/**
 * @file
 * The out-of-order core: a value-accurate timing model of the paper's
 * two machine configurations (8-wide NLQ/SSQ machine, 4-wide RLE
 * machine), with the re-execution pipeline and SVW attached.
 *
 * Values are computed exactly: wrong-path instructions really execute,
 * premature loads really read stale memory, silent stores really store
 * silently. That is what makes value-based re-execution (and SVW's
 * filtering of it) meaningful to simulate. Every run can be checked
 * against the in-order functional interpreter.
 */

#ifndef SVW_CPU_CORE_HH
#define SVW_CPU_CORE_HH

#include <array>
#include <functional>
#include <unordered_map>
#include <vector>

#include "base/bounded_ring.hh"
#include "cpu/bpred.hh"
#include "cpu/completion_wheel.hh"
#include "cpu/iq.hh"
#include "cpu/rename.hh"
#include "cpu/rob.hh"
#include "cpu/tracer.hh"
#include "func/memory_image.hh"
#include "lsu/lsu.hh"
#include "lsu/spct.hh"
#include "lsu/store_sets.hh"
#include "mem/hierarchy.hh"
#include "mem/port.hh"
#include "prog/program.hh"
#include "rex/rex_engine.hh"
#include "rle/rle.hh"
#include "stats/stats.hh"
#include "svw/svw.hh"

namespace svw {

namespace prof {
enum Stage : unsigned;
struct StageTimes;
} // namespace prof

/** Full machine configuration. */
struct CoreParams
{
    // Widths (paper section 4).
    unsigned fetchWidth = 8;
    unsigned dispatchWidth = 8;
    unsigned issueWidth = 8;
    unsigned commitWidth = 8;
    unsigned intIssue = 5;      ///< integer ALU+mul issue slots
    unsigned loadIssue = 2;
    unsigned branchIssue = 1;

    // Structures.
    unsigned robEntries = 512;
    unsigned iqEntries = 200;
    unsigned numPhysRegs = 448;
    /**
     * Rename-map checkpoint pool for squash recovery (0 disables and
     * every squash takes the youngest-first walk). Host-side recovery
     * machinery only: pool size never changes simulated timing, just
     * how fast the simulator repairs state on a squash.
     */
    unsigned renameCheckpoints = 64;

    // Pipeline shape (15-stage base pipe).
    unsigned frontendDepth = 7;      ///< fetch->dispatch stages
    unsigned mispredictRedirect = 3; ///< execute->refetch bubble (plus
                                     ///< the front-end refill)
    /** Extra pre-commit stages from the rex pipeline (+2 NLQ/SSQ, +4 RLE)
     * and the SVW stage (+1). */
    unsigned rexTransit = 0;

    unsigned dcachePorts = 1;  ///< shared store-commit / rex port

    BPredParams bpred{};
    MemParams mem{};
    LsuParams lsu{};
    SvwConfig svw{};
    RexParams rex{};
    RleParams rle{};

    bool nlqsm = false;  ///< mark in-flight loads on invalidations
};

/** Aggregate outcome of a run. */
struct RunOutcome
{
    bool halted = false;
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
};

/** The out-of-order core. */
class Core
{
  public:
    Core(const CoreParams &params, const Program &prog,
         stats::StatRegistry &reg);

    /** Run until Halt commits or a cap is reached. */
    RunOutcome run(std::uint64_t maxInsts, std::uint64_t maxCycles);

    /** Advance a single cycle (exposed for tests and injectors). */
    void tick();

    bool halted() const { return haltCommitted; }
    Cycle cycle() const { return now; }
    std::uint64_t retiredInstCount() const { return retired.value(); }

    /**
     * Dense hot-loop counter block. Every stats::Scalar below is bound
     * to its like-named field (stats::Scalar::bind), so the per-cycle
     * loops bump plain adjacent uint64s instead of scattered Scalar
     * objects; value()/print()/reset() on the Scalars stay exact.
     */
    struct HotCounters
    {
        std::uint64_t retired = 0;
        std::uint64_t retiredLoads = 0;
        std::uint64_t retiredStores = 0;
        std::uint64_t retiredBranches = 0;
        std::uint64_t cycles = 0;
        std::uint64_t branchSquashes = 0;
        std::uint64_t orderingSquashes = 0;
        std::uint64_t rexFlushes = 0;
        std::uint64_t loadsEliminatedRetired = 0;
        std::uint64_t elimReuseRetired = 0;
        std::uint64_t elimBypassRetired = 0;
        std::uint64_t fsqLoadsRetired = 0;
        std::uint64_t wrapDrainCycles = 0;
        std::uint64_t invalidationsSeen = 0;
        std::uint64_t ckptRestores = 0;
        std::uint64_t ckptWalks = 0;
    };

    /** Architectural view for golden-model comparison. */
    std::uint64_t archReg(RegIndex a) const;
    const MemoryImage &memory() const { return committedMem; }

    /**
     * External (simulated other-agent) store: the NLQ-SM stimulus.
     * Writes memory, invalidates the caches, updates the SSBF with
     * SSNRENAME+1 and marks in-flight loads for re-execution.
     */
    void externalStore(Addr addr, unsigned size, std::uint64_t value);

    /** Hook invoked at the top of every cycle (invalidation injectors). */
    std::function<void(Core &)> perCycleHook;

    /** Attach (or detach, with nullptr) a pipeline event tracer. */
    void setTracer(Tracer *t) { tracer = t; }

    /**
     * Attach (or detach, with nullptr) a per-stage host-time
     * attribution block (base/profile.hh). Host-side observation only:
     * a profiled core retires bit-identical cycles. Costs one
     * predictable branch per tick when detached.
     */
    void setStageProfiler(prof::StageTimes *p) { stageProf = p; }

    // Component access for white-box tests.
    SvwUnit &svwUnit() { return svw; }
    RexEngine &rexEngine() { return rex; }
    LoadStoreUnit &lsuUnit() { return lsu; }
    RleUnit &rleUnit() { return rle; }
    const CoreParams &params() const { return prm; }

  public:
    // --- stats --------------------------------------------------------
    stats::Scalar retired;
    stats::Scalar retiredLoads;
    stats::Scalar retiredStores;
    stats::Scalar retiredBranches;
    stats::Scalar cyclesStat;
    stats::Scalar branchSquashes;
    stats::Scalar orderingSquashes;  ///< LQ-CAM violations (baseline)
    stats::Scalar rexFlushes;        ///< re-execution value mismatches
    stats::Scalar loadsEliminatedRetired;
    stats::Scalar elimReuseRetired;
    stats::Scalar elimBypassRetired;
    stats::Scalar fsqLoadsRetired;
    stats::Scalar wrapDrainCycles;
    stats::Scalar invalidationsSeen;
    stats::Scalar ckptRestores;      ///< squashes recovered via checkpoint
    stats::Scalar ckptWalks;         ///< squashes recovered via the walk

  private:
    // --- pipeline stages (one call each per tick) ----------------------
    void commitStage();
    void completeStage();
    void issueStage();
    void dispatchStage();
    void fetchStage();

    /** The stage sequence of one cycle. The Profiled instantiation
     * charges each stage's host time to stageProf; the plain one reads
     * no clock. */
    template <bool Profiled>
    void tickBody();
    /** Run @p f, charging its host time to the nested stage @p s when
     * the profiler is attached. */
    template <typename F>
    void timed(prof::Stage s, F &&f);
    /** completeStage's event-wheel drain (profiled as wheel_advance). */
    void drainCompletions();

    // --- helpers -------------------------------------------------------
    bool dispatchOne(DynInst &inst, const DynInstCold &cold);
    bool tryIssue(DynInst &inst, unsigned &intUsed, unsigned &loadUsed,
                  unsigned &storeUsed, unsigned &branchUsed);
    void issueLoad(DynInst &load);
    void issueStore(DynInst &store);
    void captureStoreData(DynInst &store);
    void finishBranch(DynInst &inst);

    /**
     * Squash everything younger than @p keepSeq and refetch at
     * @p newFetchPc. @p replay identifies a control instruction whose
     * own predictor effects must be replayed with the real outcome.
     */
    void squashAfter(InstSeqNum keepSeq, std::uint64_t newFetchPc,
                     const DynInst *replay);

    void handleRexFailure(DynInst &load);

    /** Read a source operand value. */
    std::uint64_t srcVal(PhysRegIndex p) const
    {
        return rename.regs().value(p);
    }

    bool srcReady(PhysRegIndex p) const
    {
        return rename.regs().isReady(p, now);
    }

    /** A register became schedulable: record the arrival cycle and
     * wake the IQ entries sleeping on @p p (this is the only operation
     * that moves a register out of notReady, so firing the waiter list
     * here is an exact replacement for re-screening every cycle). */
    void noteReadyAt(PhysRegIndex p, Cycle c)
    {
        rename.regs().setReadyAt(p, c);
        iq.wakeReg(p);
    }

    CoreParams prm;
    const Program &prog;
    /** prog.predecoded().data(), cached at construction: fetch binds
     * DynInst facts from this table (index = PC) with one 8-byte copy. */
    const PreDecodedInst *preText = nullptr;
    Tracer *tracer = nullptr;
    /** Stage-time attribution sink; nullptr = profiler off. */
    prof::StageTimes *stageProf = nullptr;

    MemoryImage committedMem;   ///< committed ("cache") state
    MemHierarchy mem;
    BPred bpred;
    RenameState rename;
    ROB rob;
    IssueQueue iq;
    SvwUnit svw;
    LoadStoreUnit lsu;
    RexEngine rex;
    RleUnit rle;
    StoreSets storeSets;
    SPCT spct;

    CyclePort dcachePort;       ///< shared store-commit / rex port
    std::vector<CyclePort> loadBankPorts;
    CyclePort storeIssuePorts;

    Cycle now = 0;
    InstSeqNum seqCounter = 0;
    bool haltCommitted = false;
    /** Journal IT squash-hygiene markers at load dispatch so checkpoint
     * recovery can replay them (RLE cores with a checkpoint pool). */
    bool hygieneJournalOn = false;

    /** Hot-loop counter block (see HotCounters). */
    HotCounters hot;

    // Fetch state.
    std::uint64_t fetchPc;
    bool fetchStopped = false;   ///< halted / ran off text on this path
    Cycle fetchResumeCycle = 0;
    BoundedRing<DynInst> fetchQueue;
    /** Cold side-records of the fetch queue, same slot order (the queue
     * ring itself carries only the hot records). */
    BoundedRing<DynInstCold> fetchColds;
    Addr lastFetchLine = ~Addr(0);

    // SSN wrap drain (section 3.6).
    bool drainPending = false;

    /**
     * Replacement-mode livelock guard: per-PC streak of consecutive
     * SSBF-hit flushes; past a small threshold the refetched load
     * re-executes for real (section 6 mode stays forward-progressing
     * even when a hot granule keeps its SSBF entry fresh).
     */
    std::unordered_map<std::uint64_t, unsigned> replaceFlushStreak;
    static constexpr unsigned replaceStreakLimit = 2;

    // Completion bookkeeping. Squash does not prune the wheel: stale
    // events miss their findBySeq at drain time and are skipped.
    CompletionWheel<InstSeqNum> completionQueue;
    std::vector<InstSeqNum> elimPending;  ///< eliminated insts awaiting
                                          ///< their shared register
    std::vector<InstSeqNum> storesAwaitingData;

    /** Architectural rename map, updated at commit (golden compare). */
    std::array<PhysRegIndex, numArchRegs> archMap{};

    /** Helper for line alignment without pulling intmath into the header
     * users. */
    static Addr alignDownAddr(Addr a, unsigned align)
    {
        return a & ~static_cast<Addr>(align - 1);
    }
};

} // namespace svw

#endif // SVW_CPU_CORE_HH
