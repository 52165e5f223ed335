/**
 * @file
 * Pre-commit load re-execution pipeline (paper section 2.1, Figure 1)
 * with the SVW filter stage (section 3) in front of the cache access.
 *
 * The engine walks the ROB in program order behind completion and ahead
 * of commit (the rex-head pointer). Stores pass through the SVW stage —
 * updating the SSBF with their SSN — and wait in a small internal store
 * buffer for their commit-time cache write. Marked loads take the SVW
 * filter test; positives re-read memory through the shared data-cache
 * read/write port (store commit has priority) and compare against the
 * original value. A mismatch makes commit flush the pipeline at the
 * load.
 *
 * The critical serialization the paper analyses — a store may not commit
 * until every older load has re-executed successfully — appears here as
 * the store's commit-eligible cycle being the max of the pending older
 * load re-execution completion cycles.
 *
 * Paper-term map: this is the "re-execution" pipeline of Figure 1 with
 * the SVW stage of Figure 3 inserted; rexNextSeq is the R-head pointer
 * walking the window in order, the internal store buffer is the
 * paper's post-SVW store queue segment, and a "marked" load is one
 * whose optimization (NLQ-LS/NLQ-SM/SSQ/RLE, DynInst::rexReasons)
 * obliges verification before commit. svwReplacesReExecution models
 * section 6's replacement mode: a positive SSBF test flushes instead
 * of re-executing, trading cache-port bandwidth for squashes.
 */

#ifndef SVW_REX_REX_ENGINE_HH
#define SVW_REX_REX_ENGINE_HH

#include <deque>

#include "cpu/rename.hh"
#include "cpu/rob.hh"
#include "func/memory_image.hh"
#include "mem/port.hh"
#include "stats/stats.hh"
#include "svw/svw.hh"

namespace svw {

/** Re-execution engine configuration. */
struct RexParams
{
    bool enabled = false;       ///< any load optimization active
    bool perfect = false;       ///< +PERFECT: zero latency, no port use
    unsigned width = 4;         ///< SVW-stage throughput per cycle
    unsigned storeBufferEntries = 4;
    unsigned cacheLatency = 2;  ///< D$ access latency for re-execution
    /** Extra latency for reading address/value from the register file
     * (RLE's elongated pipeline, section 2.4). */
    unsigned regfileReadLatency = 2;
    /**
     * Paper section 6 (future work): use SVW as a *replacement* for
     * re-execution — no verification cache access at all; a positive
     * SSBF test conservatively flushes the load. Requires SVW enabled.
     */
    bool svwReplacesReExecution = false;
};

/** The re-execution engine. */
class RexEngine
{
  public:
    RexEngine(const RexParams &params, MemoryImage &committed,
              SvwUnit &svwUnit, CyclePort &dcachePort,
              stats::StatRegistry &reg);

    const RexParams &params() const { return prm; }

    /** Advance the rex pipeline one cycle. */
    void tick(ROB &rob, RenameState &rename, Cycle now);

    /**
     * Commit-side query: earliest cycle the store may write the cache
     * (all older load re-executions complete by then).
     */
    Cycle storeCommitReadyCycle(const DynInst &store) const;

    /** A store left the ROB (cache write done): drain its buffer slot. */
    void storeCommitted(const DynInst &store);

    /** Squash: drop buffered stores and rewind the rex head. */
    void squashAfter(InstSeqNum keepSeq);

    /**
     * In-order pre-commit memory read for a re-executing load:
     * committed state overlaid with older buffered stores.
     */
    std::uint64_t readRexValue(const DynInst &load) const;

    /** True if @p seq already passed the rex SVW stage. */
    bool processed(InstSeqNum seq) const { return seq < rexNextSeq; }

    /**
     * Earliest cycle at or after @p now at which tick() can change
     * state; ~Cycle(0) when it waits on another stage (a completion,
     * an issue, a commit). Mirrors tick()'s first step. Sets
     * @p bufferStall when tick() would count a storeBufferStalls cycle
     * at every cycle until then.
     */
    Cycle idleUntil(const ROB &rob, const RenameState &rename, Cycle now,
                    bool &bufferStall) const;

    /** Account @p n skipped cycles of a full-store-buffer stall. */
    void countStoreBufferStalls(std::uint64_t n)
    {
        hot.storeBufferStalls += n;
    }

  public:
    stats::Scalar loadsMarked;
    stats::Scalar loadsReExecuted;
    stats::Scalar loadsRexSkippedSvw;
    stats::Scalar loadsRexFailed;
    stats::Scalar portConflictStalls;
    stats::Scalar storeBufferStalls;
    stats::Scalar svwReplaceFlushes;
    /** Per-marked-load vulnerability window size in stores (the paper
     * reports 5-15 for SSQ): SSNRETIRE at the SVW stage minus ld.SVW. */
    stats::Distribution svwWindowStores;

  private:
    /** Dense hot-loop accumulators, bound to the Scalars above (see
     * stats::Scalar::bind). */
    struct HotCounters
    {
        std::uint64_t loadsMarked = 0;
        std::uint64_t loadsReExecuted = 0;
        std::uint64_t loadsRexSkippedSvw = 0;
        std::uint64_t loadsRexFailed = 0;
        std::uint64_t portConflictStalls = 0;
        std::uint64_t storeBufferStalls = 0;
        std::uint64_t svwReplaceFlushes = 0;
    };
    HotCounters hot;

    /** Can this instruction enter the SVW stage yet? */
    bool rexReady(const DynInst &inst, const RenameState &rename,
                  Cycle now) const;

    /** Perform the cache read + compare for a marked load. */
    void reExecuteLoad(DynInst &load, Cycle now);

    RexParams prm;
    MemoryImage &committed;
    SvwUnit &svw;
    CyclePort &dcachePort;

    InstSeqNum rexNextSeq = 1;     ///< next seq to pass the SVW stage
    /** Buffered (rex-passed, not yet committed) stores, oldest first.
     * Pointers into the ROB ring: a buffered store is always live in
     * the ROB until storeCommitted() or squashAfter() drops it. */
    std::deque<DynInst *> storeBuffer;
    Cycle pendingLoadRexMax = 0;   ///< latest in-flight rex completion
};

} // namespace svw

#endif // SVW_REX_REX_ENGINE_HH
