/**
 * @file
 * The benchmark's measurement phases. In-process phases link svw_core
 * and time calls into its public functions; service phases drive a
 * sweepd child as an HTTP client. Every phase also checks what it
 * received, adding to the shared Tally.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/random.hh"
#include "harness/executor.hh"
#include "net.hh"
#include "util.hh"

namespace perfbench {

/** The paper figures every workload covers (270 cells). */
extern const std::vector<std::string> figureNames;

/** Instruction budget of every figure cell (the --quick size). */
constexpr std::uint64_t figureInsts = 20'000;

/** Operations attempted / failed and output checks, across phases. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool correct = true;
    std::vector<std::string> problems;

    /** Record a failed check (kept to the first few messages). */
    void mismatch(const std::string &what);
};

/**
 * Seeded figure order of warm requests: shuffled cycles of fig5, fig6,
 * fig7 and fig8 twice. Each figure's latency forms a cluster of its
 * own (fig8 has 30 cells, the others 80). With four equal shares the
 * median would fall in the gap between two clusters and jump between
 * them on one request more or less; the second fig8 puts it inside a
 * cluster. Exact shares per cycle also keep the request rate from
 * depending on the mix drawn.
 */
class WarmOrder
{
  public:
    explicit WarmOrder(std::uint64_t seed) : rng_(seed) {}
    /** Index into figureNames of the next request. */
    std::size_t next();

  private:
    svw::Random rng_;
    std::vector<std::size_t> cycle_{0, 1, 2, 3, 3};
    std::size_t at_ = cycle_.size();
};

/** Cell result lines keyed "<figure>/<group>/<label>". */
using LineMap = std::map<std::string, std::string>;

// -- In-process phases ---------------------------------------------------

/** The four figure specs at figureInsts. */
std::vector<svw::harness::SweepSpec> figureSpecs();

/** Seconds to build every program the specs use into a fresh
 * ProgramCache (the figures_cold set-up). */
double buildPrograms(const std::vector<svw::harness::SweepSpec> &specs);

/** One pass of the four specs through SweepSession::run. */
struct Pass
{
    double wall = 0.0;
    std::vector<double> figWall;       ///< per figure session
    std::vector<double> figFirstDone;  ///< per figure, first Done
    LineMap lines;
    std::vector<svw::harness::RunResult> results;  ///< spec order
    double busy = 0.0;         ///< sum of cell seconds
    std::vector<double> unitTimes;  ///< in-caller units, in run order
    std::uint64_t cellsRun = 0;  ///< runCellCalls() delta
};

/** Run every spec with @p opts (result caches off). */
Pass runPass(const std::vector<svw::harness::SweepSpec> &specs,
             const svw::harness::SweepOptions &opts, Tally &tally,
             Spans &spans);


/** Per-layer numbers measured in-process, cell by cell. */
struct LayerProbe
{
    double buildMs = 0.0;
    std::uint64_t builds = 0;
    double goldenS = 0.0, goldenInsts = 0.0;
    double runS = 0.0, profiledS = 0.0;
    std::uint64_t simInsts = 0, simCycles = 0;
    std::uint64_t reexecuted = 0, filtered = 0;
    double stageS[svw::prof::NumStages] = {};
    double keyS = 0.0, getS = 0.0, serializeS = 0.0;
    std::uint64_t lineBytes = 0, cells = 0, hits = 0;
    std::uint64_t memBytes = 0;
};

LayerProbe probeLayers(const std::vector<svw::harness::SweepSpec> &specs,
                       Tally &tally, Spans &spans);

// -- Service phases ------------------------------------------------------

/** A daemon filled with the 270 figure cells through per-row cold
 * POSTs at the daemon's defaults. */
struct Service
{
    std::unique_ptr<Daemon> daemon;
    double setupSeconds = 0.0;
    LineMap lines;
};

/** Start and fill a daemon; @p speed is sampled after every fill row,
 * outside the timed set-up. */
Service startService(const std::string &sweepd,
                     const std::vector<int> &cpus, Tally &tally,
                     Spans &spans, HostSpeed &speed);

/** Client-side timings of a set of warm requests. */
struct WarmStats
{
    std::vector<double> latency;   ///< seconds, completed requests
    std::vector<double> at;        ///< completion time of each latency
    std::vector<double> failedAt;  ///< failed or refused requests
    std::vector<double> ttfb, stream, status;
    double respBytes = 0.0;
    double start = 0.0, wall = 0.0;
    std::string order;  ///< seeded figure order, one digit per request

    void done(double latencySeconds, double when)
    {
        latency.push_back(latencySeconds);
        at.push_back(when);
    }
};

/**
 * A burst of @p seconds of in-process warm sessions in a closed loop
 * (memory cache filled from @p ref), figures in a WarmOrder,
 * appended to @p w. Bursts may be interleaved with other work: @p w's
 * clock (at, wall) counts only time spent in bursts.
 */
void warmInProcess(const Pass &ref, double seconds, std::uint64_t seed,
                   WarmStats &w, Tally &tally, Spans &spans);

/** One connection, closed loop of warm POSTs in a WarmOrder, with a
 * GET /status every 100th request. */
WarmStats warmClosedLoop(Service &svc, double seconds, std::uint64_t seed,
                         Tally &tally, Spans &spans);

/** Open-loop warm traffic under a back-to-back cold sweep stream. */
struct MixedStats
{
    WarmStats warm;
    std::vector<double> coldFirstDone, coldSweep, unitGaps;
    std::vector<double> genLate;
    double daemonUtil = 0.0;
    std::uint64_t skipped = 0;
    std::vector<std::string> coldRows;
    LineMap coldLines;  ///< "fig6/<row>/<label>" of checked rows
};

/** Warm requests per second of the open loop. */
constexpr double mixedWarmRate = 15.0;
/** Concurrent warm connections of the open loop. */
constexpr unsigned mixedWarmConns = 3;

/** The open loop; @p speed is sampled between cold sweeps while no
 * warm request is in flight. */
MixedStats mixedOpenLoop(Service &svc, double seconds, std::uint64_t seed,
                         Tally &tally, Spans &spans, HostSpeed &speed);

/** Re-run the first checked cold rows of @p m in-process and compare
 * their lines byte for byte. */
void recheckColdRows(const MixedStats &m, unsigned threads, Tally &tally);

/** Compare two line maps; report missing or differing cells. */
void compareLines(const LineMap &want, const LineMap &got,
                  const std::string &what, Tally &tally);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
