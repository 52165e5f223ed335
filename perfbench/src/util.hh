/**
 * @file
 * Pure helpers of the end-to-end benchmark, kept free of sockets and
 * of the simulator so the unit tests can pin them exactly:
 *
 *  - percentile(): nearest-rank percentile in which every failed or
 *    refused operation ranks above every measured latency, so failures
 *    can only push a tail up, never hide in it.
 *  - sumOfBests: the min estimator over round-robin passes, per part
 *    of a pass. The host stalls in bursts, so a run's best is far
 *    steadier than its mean or median.
 *  - HostSpeed: a frozen calibration kernel timed through the run, so
 *    that time metrics can be reported at a fixed reference speed of
 *    the host, whose speed drifts by tens of percent over minutes.
 *  - Spans: in-memory span recorder with self-time arithmetic and
 *    Chrome trace-event output, written once at exit.
 *  - ChunkedReader: incremental HTTP/1.1 response reader for sweepd's
 *    chunked JSON-lines stream (and Content-Length replies).
 */

#ifndef PERFBENCH_UTIL_HH
#define PERFBENCH_UTIL_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Monotonic seconds since the first call in this process. */
double now();

/**
 * Nearest-rank percentile @p q (0 < q <= 1) of @p samples plus
 * @p failures operations that count as +infinity. Returns +infinity
 * when the rank lands on a failure and NaN when there is no operation.
 */
double percentile(std::vector<double> samples, std::size_t failures,
                  double q);

/** 64-bit FNV-1a over @p text, continuing from @p h. */
std::uint64_t fnv1a(const std::string &text,
                    std::uint64_t h = 0xcbf29ce484222325ull);

/**
 * The min estimator at the grain of a part: each pass is a list of
 * part times (figure sessions, matched by position). partBests() is
 * each part's best time across the passes, empty when there is no
 * pass or the passes disagree on the part count; sumOfBests() is their
 * sum, NaN when partBests() is empty.
 */
std::vector<double>
partBests(const std::vector<std::vector<double>> &passes);
double sumOfBests(const std::vector<std::vector<double>> &passes);

/**
 * Host-speed calibration. The host's speed drifts by tens of percent
 * over minutes, and the share of time it spends in bursts of contention
 * changes with it, so no estimator inside a run removes the drift;
 * every time metric moves with it. Each phase of a run therefore times
 * a fixed kernel between its measured steps (sample()), and its times
 * are reported at the reference speed: multiplied by factor(), the
 * reference kernel time over the median sample of that phase. The
 * median, not the best: in a slow phase even the best figure session
 * of a run slowed with the kernel's median, while 2-ms kernel samples
 * still found the gaps between bursts. The kernel and its reference
 * time are frozen; changing either rescales every time.
 */
class HostSpeed
{
  public:
    /** The reference kernel time, which times are reported at. On a
     * 4-vCPU Xeon VM the kernel took 1.4-2.6 ms, by host phase. */
    static constexpr double referenceSeconds = 2.0e-3;

    /** Time the kernel @p times times on the calling thread. */
    void sample(unsigned times = 1);
    /** Record one kernel time measured elsewhere. */
    void add(double seconds) { samples_.push_back(seconds); }

    /** referenceSeconds over the median sample; 1 with no sample. */
    double factor() const;
    /** Median and best sample (NaN with no sample). */
    double median() const;
    double best() const;
    std::size_t samples() const { return samples_.size(); }

  private:
    std::vector<double> samples_;
};

/** Seconds of one run of the frozen calibration kernel. */
double calibrationKernel();

/** One recorded interval. Times are now() seconds. */
struct Span
{
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;   ///< 0 = root
    std::uint64_t request = 0;  ///< request or cell this span serves
    double start = 0.0;
    double end = 0.0;
};

/**
 * Span recorder. Disabled recorders ignore every call, so the timed
 * (untraced) runs pay one branch per call site.
 */
class Spans
{
  public:
    explicit Spans(bool enabled = false) : enabled_(enabled) {}

    /** Record a finished span; @return its id (0 when disabled). */
    std::uint64_t add(const std::string &name, double start, double end,
                      std::uint64_t parent = 0, std::uint64_t request = 0);

    /** Open a span now; close it with close(). */
    std::uint64_t open(const std::string &name, std::uint64_t parent = 0,
                       std::uint64_t request = 0);
    void close(std::uint64_t id);

    const std::vector<Span> &spans() const { return spans_; }

    /**
     * Self time per span name: each span's duration minus the part of
     * its interval that the union of its children covers (children
     * are clipped to the parent), summed by name.
     */
    std::map<std::string, double> selfSeconds() const;

    /** Chrome trace-event JSON ("X" events, microseconds). */
    std::string chromeTrace() const;

  private:
    bool enabled_;
    std::vector<Span> spans_;
};

/** RAII span over a scope (no-op when the recorder is disabled). */
class ScopedSpan
{
  public:
    ScopedSpan(Spans &s, const std::string &name, std::uint64_t parent = 0,
               std::uint64_t request = 0)
        : spans_(s), id_(s.open(name, parent, request))
    {}
    ~ScopedSpan() { spans_.close(id_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::uint64_t id() const { return id_; }

  private:
    Spans &spans_;
    std::uint64_t id_;
};

/**
 * Incremental HTTP/1.1 response reader. Accepts a chunked body or a
 * Content-Length body. done() turns true at the terminating chunk (or
 * once Content-Length bytes arrived); a stream that ends before that
 * is incomplete, and malformed framing sets error().
 */
class ChunkedReader
{
  public:
    /** Consume @p n raw bytes. */
    void feed(const char *data, std::size_t n);

    bool done() const { return state_ == State::Done; }
    bool error() const { return state_ == State::Error; }
    /** Status code once the head is parsed; 0 before. */
    int status() const { return status_; }
    /** Decoded body so far. */
    const std::string &body() const { return body_; }
    /** Raw bytes consumed (head and framing included). */
    std::size_t rawBytes() const { return raw_; }

  private:
    enum class State { Head, ChunkSize, ChunkData, ChunkEnd, Trailer,
                       Fixed, Done, Error };

    void step();

    State state_ = State::Head;
    std::string buf_;
    std::string body_;
    std::size_t raw_ = 0;
    std::size_t need_ = 0;
    int status_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_UTIL_HH
