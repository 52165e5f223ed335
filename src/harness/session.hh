/**
 * @file
 * SweepSession: the sweep engine's primary entry point.
 *
 * A session owns one sweep end to end — spec selection (sharding),
 * result-cache probing, and execution — and streams per-cell events to
 * its caller as the sweep progresses: cell started, cell done, and
 * cached-hit, each carrying the lossless RunResult JSON line
 * (serialize.hh runResultToJson) for completed cells. The one-shot
 * runSweep (executor.hh) is a thin wrapper that opens a session and
 * runs it to completion; the bench binaries and the sweepd service
 * daemon are both clients of this API.
 *
 * One execution path, two executors. start(cb) probes the caches
 * (firing CachedHit events) and queues the remaining cells; step()
 * then advances the sweep one slice at a time, so a single-threaded
 * event loop (sweepd) can interleave many sessions with socket I/O:
 *
 *  - threads == 0: step() runs the next queued cell in the calling
 *    thread (one cell per call — the event-loop slice).
 *  - threads >= 1: start() launches that many worker threads, and
 *    step() only drains finished cells without blocking. wakeFd() is
 *    readable whenever completions are waiting, so the loop can poll
 *    it alongside its sockets.
 *
 * Events always fire on the *driving* thread. finish() joins workers,
 * writes successful fresh results back to the caches, and returns the
 * merged results. run(cb) is exactly start(cb), step() until finished
 * (blocking in poll(2) on wakeFd() while workers are busy), then
 * finish().
 *
 * Every executor contains exceptions per cell: a cell that throws is
 * recorded as a failed outcome carrying the exception text, and the
 * sweep goes on (a long-lived daemon must outlive a golden-model
 * mismatch; a figure binary reports the failure and exits 1). An
 * exception thrown by the event callback itself propagates to the
 * caller. abort() discards not-yet-started cells so a disconnected
 * client stops costing simulation time. A cell that kills its process
 * takes the session with it; crash isolation comes from running
 * shards as separate processes (bench/sweep_driver.cc).
 *
 * Determinism: outcomes depend only on the cells, so the merged
 * results are byte-identical across driving styles and thread counts —
 * the invariant the CI diff gates enforce.
 */

#ifndef SVW_HARNESS_SESSION_HH
#define SVW_HARNESS_SESSION_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness/executor.hh"
#include "harness/sweep.hh"

namespace svw::harness {

/** What happened to a cell (CellEvent::kind). */
enum class CellEventKind
{
    Started,   ///< dealt for execution (no outcome yet)
    Done,      ///< executed; outcome records success or failure
    CachedHit, ///< served from a result cache without simulating
};

/** One streamed per-cell event. Pointers are valid only during the
 * callback (they alias session-owned storage). */
struct CellEvent
{
    CellEventKind kind = CellEventKind::Done;
    std::size_t index = 0;            ///< cell index in the spec
    const SweepCell *cell = nullptr;  ///< always set
    /** Outcome for Done/CachedHit; null for Started. */
    const CellOutcome *outcome = nullptr;
    /** Lossless RunResult JSON line (runResultToJson) for successful
     * Done/CachedHit events; empty otherwise. This is the same format
     * the result cache stores, so a stream consumer (sweepd clients)
     * sees bit-exact metrics. */
    std::string resultLine;
};

using SessionCallback = std::function<void(const CellEvent &)>;

/** One sweep, opened over a spec and execution options. */
class SweepSession
{
  public:
    /** The session owns a copy of @p spec (cells, hooks, and all). */
    SweepSession(SweepSpec spec, SweepOptions opts);
    ~SweepSession();

    SweepSession(const SweepSession &) = delete;
    SweepSession &operator=(const SweepSession &) = delete;

    const SweepSpec &spec() const { return spec_; }
    const SweepOptions &options() const { return opts_; }

    /** Run the whole sweep (blocking) and return merged results:
     * start(cb), step() until finished, finish(). */
    SweepResults run(const SessionCallback &cb = nullptr);

    // -- Incremental driving (sweepd's event loop) --------------------

    /** Probe caches, queue the remaining cells, and (threads >= 1)
     * launch workers. Fires CachedHit events for cache-served cells. */
    void start(SessionCallback cb = nullptr);

    bool started() const { return started_; }

    /** True once every queued cell is recorded or discarded. */
    bool finished() const;

    /**
     * Advance the sweep. threads == 0: run the next queued cell in the
     * calling thread. threads >= 1: drain finished cells from the
     * workers without blocking. Events fire on this thread either way.
     * @return false once the session is finished.
     */
    bool step();

    /**
     * Readable whenever worker completions are waiting to be drained
     * (threads >= 1); -1 otherwise. Poll it next to the sockets: when
     * it fires, call step().
     */
    int wakeFd() const { return wakePipe_[0]; }

    /** Discard all not-yet-started cells (a disconnected client). The
     * in-flight cells, if any, still complete and are recorded. */
    void abort();

    /** Join workers, drain remaining events, write fresh results to
     * the caches, and return the merged results. Terminal. */
    SweepResults finish();

    // -- Progress -----------------------------------------------------

    /** Cells selected by this session's shard. */
    std::size_t cellsSelected() const { return selected_; }
    /** Cells recorded so far (cache hits included). */
    std::size_t cellsDone() const { return done_; }
    /** Recorded cells that failed so far. */
    std::size_t failuresSoFar() const { return failures_; }
    /** Cells served from a cache (memory or disk) by this session. */
    std::size_t cacheHits() const { return cacheHits_; }

  private:
    void probeAndQueue();
    void record(std::size_t idx, CellOutcome o, CellEventKind kind);
    void emit(CellEventKind kind, std::size_t idx, const CellOutcome *o);
    void workerMain();
    void wakeDriver();
    void drainCompletions();
    void storeFreshResults();
    void joinWorkers();

    SweepSpec spec_;
    SweepOptions opts_;
    SessionCallback cb_;

    std::vector<CellOutcome> outcomes_;
    std::optional<ResultCache> cache_;
    std::vector<std::pair<std::size_t, CellKey>> probed_;
    std::deque<std::size_t> pending_;  ///< cells still to run

    bool started_ = false;
    bool finishedCalled_ = false;
    std::size_t selected_ = 0;
    std::size_t done_ = 0;
    std::size_t failures_ = 0;
    std::size_t cacheHits_ = 0;
    std::size_t queuedCells_ = 0;
    std::size_t recordedCells_ = 0;
    std::size_t discardedCells_ = 0;

    // Worker machinery (threads >= 1): workers pull cells from
    // pending_ and push completions here; the driving thread drains
    // them in step(). One byte per completion keeps wakeFd readable
    // while the queue is non-empty.
    struct Completion
    {
        std::size_t index = 0;
        CellOutcome outcome;
        bool isStart = false;  ///< a Started notification, no outcome
    };
    mutable std::mutex mutex_;
    std::deque<Completion> completed_;
    bool stop_ = false;
    int wakePipe_[2] = {-1, -1};
    std::vector<std::thread> workers_;  ///< last: uses everything above
};

} // namespace svw::harness

#endif // SVW_HARNESS_SESSION_HH
