/**
 * @file
 * Self-profiler: host-nanosecond attribution of simulator time to
 * pipeline stage (docs/ARCHITECTURE.md "Self-profiling &
 * perf-regression harness").
 *
 * The tick loop is the simulator's hot path, so the profiler must
 * never cost anything when it is off: Core keeps a single nullable
 * pointer to a StageTimes block, and every instrumentation site is one
 * predictable `if (stageProf)` branch. The tick body is one stage
 * sequence compiled twice (Core::tickBody<Profiled>), so the plain
 * instantiation reads no clock and the two can never drift apart.
 * When it is on, stage boundaries read a monotonic clock and charge
 * the delta to the stage's counter — pure host-side observation that
 * never touches timing-visible simulated state, so a profiled run
 * retires bit-identical cycles and metrics.
 *
 * Two stages are nested scopes: LsuSearch (the LQ/SQ/SSQ associative
 * walks, charged inside Issue) and WheelAdvance (the completion event
 * wheel drain plus its completion callbacks — branch resolution and
 * squash recovery fire from inside the drain — charged inside
 * Complete). Folded-stack output keeps the nesting
 * (`...;issue;lsu_search`), and a parent's self time is its counter
 * minus its children's, which is non-negative by construction (a
 * nested interval is measured inside the parent's interval on one
 * monotonic clock).
 */

#ifndef SVW_BASE_PROFILE_HH
#define SVW_BASE_PROFILE_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

namespace svw::prof {

/**
 * Stage taxonomy. Top-level stages mirror Core::tick's calls (rename
 * runs inside dispatchOne and is charged to Dispatch); LsuSearch and
 * WheelAdvance are nested children of Issue and Complete.
 */
enum Stage : unsigned {
    Commit,        ///< in-order retirement (incl. rename deref, stores)
    Rex,           ///< re-execution engine tick
    Complete,      ///< completion bookkeeping outside the wheel drain
    WheelAdvance,  ///< event-wheel drain + completion callbacks (nested
                   ///< in Complete; includes branch squash recovery)
    Issue,         ///< IQ scan + operand checks + execute
    LsuSearch,     ///< LQ/SQ/SSQ associative searches (nested in Issue)
    Dispatch,      ///< rename, RLE integration, queue allocation
    Fetch,         ///< predictor-driven fetch + I-cache timing
    NumStages
};

/** Stable lower-case stage name ("commit", "lsu_search", ...). */
const char *stageName(Stage s);

/** Parent stage for folded-stack nesting; NumStages = top level. */
Stage stageParent(Stage s);

/** Monotonic host nanoseconds (arbitrary origin). */
std::uint64_t nowNs();

/** Per-run stage attribution block, owned by the harness and attached
 * to a Core for the run's lifetime. */
struct StageTimes
{
    std::uint64_t ns[NumStages] = {};
    std::uint64_t ticks = 0;  ///< profiled tick() calls

    /** Sum of the top-level stage counters (nested stages excluded —
     * their time is already inside their parents'). */
    std::uint64_t totalNs() const;
};

/**
 * Process-wide accumulator of per-cell attributions, filled by the
 * sweep executor on profiled runs and drained into one
 * flamegraph.pl-compatible folded-stack file at exit
 * (enableFoldedOutput). Cells accumulate by name — a binary running
 * several sweeps (or several reps) over the same cells folds them into
 * one stack set. Thread-safe (thread-pool workers record through the
 * parent thread, but keep it safe regardless).
 */
class Collector
{
  public:
    /** Accumulate @p t (and the cell's total host wall @p cellNs —
     * stage time plus harness overhead: construction, golden check,
     * extraction) under @p cell. */
    void add(const std::string &cell, const StageTimes &t,
             std::uint64_t cellNs);

    /**
     * Folded-stack rendering: one "frame;frame;... <ns>" line per
     * non-zero counter, cells sorted by name and stages in enum order,
     * so equal inputs produce byte-identical output. Frames are
     * `svw_sim;<cell>;tick;<stage>[;<child>]`, plus a
     * `svw_sim;<cell>;harness` line for the cell's residual
     * (cellNs minus stage time, clamped at zero).
     */
    std::string folded() const;

    bool empty() const;
    void clear();

  private:
    struct CellEntry
    {
        StageTimes t;
        std::uint64_t cellNs = 0;
    };

    mutable std::mutex mutex_;
    std::map<std::string, CellEntry> cells_;
};

/** The process-wide collector. */
Collector &collector();

/**
 * Arm folded-stack output: truncate-create @p path now (so flag
 * validation can fail fast) and register an atexit writer that dumps
 * the collector into it. @return false when the path cannot be
 * created. Calling again replaces the path.
 */
bool enableFoldedOutput(const std::string &path);

/** The armed output path ("" = off). */
const std::string &foldedOutputPath();

} // namespace svw::prof

#endif // SVW_BASE_PROFILE_HH
