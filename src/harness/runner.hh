/**
 * @file
 * Experiment runner: executes one (workload, configuration) cell,
 * cross-checks the timing simulation against the functional golden
 * model, and extracts the metrics the paper's figures plot.
 */

#ifndef SVW_HARNESS_RUNNER_HH
#define SVW_HARNESS_RUNNER_HH

#include <cstdint>
#include <functional>
#include <string>

#include "base/profile.hh"
#include "harness/config.hh"
#include "prog/program.hh"

namespace svw::harness {

/** Metrics of a single run (one bar of a paper figure). */
struct RunResult
{
    std::string workload;
    std::string config;
    bool halted = false;
    bool goldenOk = true;

    std::uint64_t cycles = 0;
    std::uint64_t insts = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    double ipc = 0.0;

    // Re-execution figures of merit.
    std::uint64_t loadsMarked = 0;
    std::uint64_t loadsReExecuted = 0;
    std::uint64_t loadsFilteredBySvw = 0;
    std::uint64_t rexFlushes = 0;
    double rexRate = 0.0;       ///< re-executions / retired loads (%)
    double markedRate = 0.0;    ///< marked loads / retired loads (%)

    // Optimization-specific splits.
    double elimRate = 0.0;      ///< RLE: eliminated / retired loads (%)
    double bypassShare = 0.0;   ///< RLE: bypass fraction of eliminations
    double fsqLoadShare = 0.0;  ///< SSQ: FSQ-steered retired loads (%)

    std::uint64_t branchSquashes = 0;
    std::uint64_t orderingSquashes = 0;
    std::uint64_t wrapDrains = 0;

    // Self-profiler attribution (base/profile.hh), all zero unless
    // the run was profiled (RunRequest::profile): host ns per stage,
    // profiled ticks, and the cell's total host wall (stage time plus
    // harness overhead — construction, golden check, extraction).
    std::uint64_t profStageNs[prof::NumStages] = {};
    std::uint64_t profTicks = 0;
    std::uint64_t profCellNs = 0;
};

/** Run request. */
struct RunRequest
{
    ExperimentConfig config{};
    std::string workload;
    std::uint64_t targetInsts = 100'000;
    std::uint64_t maxCycles = 0;   ///< 0 = auto (generous multiple)
    bool goldenCheck = true;
    /** Attach the stage profiler (host-side only; cycles unchanged). */
    bool profile = false;
    /** Optional per-cycle hook (invalidation injectors). */
    std::function<void(Core &)> hook;
};

/**
 * Execute one cell against an already-built program (the sweep
 * engine's workload cache shares one `Program` across every config of
 * a workload). @p prog must be the program `workloads::make` would
 * build for (req.workload, req.targetInsts). Throws (via svw_fatal) on
 * golden-model mismatch when goldenCheck is set.
 */
RunResult runOne(const RunRequest &req, const Program &prog);

/** Convenience overload: builds the workload program, then runs. */
RunResult runOne(const RunRequest &req);

/** Paper-style percent speedup of @p test over @p base (same program). */
double speedupPercent(const RunResult &base, const RunResult &test);

} // namespace svw::harness

#endif // SVW_HARNESS_RUNNER_HH
