/**
 * @file
 * Load-store unit supporting the paper's three organizations, composably:
 *
 *  - Conventional (Figure 2a): associative SQ search for store-to-load
 *    forwarding; associative LQ search at store resolution for
 *    memory-ordering violations; one store issue per cycle (the LQ CAM
 *    port); under Figure 6's baseline the big associative SQ adds two
 *    cycles to every load.
 *  - NLQ (Figure 2b): the LQ CAM is removed (two stores may issue per
 *    cycle); loads that issue past older unresolved stores are marked
 *    for pre-commit re-execution.
 *  - SSQ (Figure 2c): the SQ splits into a non-associative RSQ (all
 *    stores; off the load path) and a small single-ported FSQ holding
 *    only predicted-forwarding stores; other loads use best-effort
 *    per-bank forwarding buffers. Every load is marked for re-execution.
 *
 * Values: a load takes its value from a forwarding structure or from the
 * committed memory image at issue time — so premature loads naturally
 * read stale values, which is what re-execution later detects.
 */

#ifndef SVW_LSU_LSU_HH
#define SVW_LSU_LSU_HH

#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "base/types.hh"
#include "cpu/dyninst.hh"
#include "func/memory_image.hh"
#include "stats/stats.hh"
#include "svw/svw.hh"

namespace svw {

/** LSU configuration knobs (see file comment). */
struct LsuParams
{
    unsigned lqEntries = 128;
    unsigned sqEntries = 64;
    bool nlq = false;
    bool ssq = false;
    unsigned fsqEntries = 16;
    unsigned fsqPorts = 1;
    unsigned fwdBufEntriesPerBank = 8;
    unsigned loadExtraLatency = 0;   ///< +2 under the associative-SQ baseline
    /** Value-aware LQ search: skip violations whose store wrote the
     * value the load already read (silent stores, section 2.2). */
    bool lqValueCheck = false;
    unsigned storeIssueWidth = 1;    ///< 2 once the LQ CAM is gone (NLQ)
    unsigned steeringEntries = 4096; ///< SSQ steering predictor bits
};

/** Outcome of attempting to execute a load this cycle. */
struct LoadExecResult
{
    enum class Status
    {
        Done,          ///< value obtained; see fields
        BlockedPartial,///< partial store overlap: retry later
        BlockedPort,   ///< structure port busy (FSQ): retry later
    };
    Status status = Status::Done;
    std::uint64_t value = 0;
    bool forwarded = false;      ///< value from an in-flight store
    bool bestEffort = false;     ///< value from a best-effort buffer
    SSN fwdSsn = 0;
    bool sawAmbiguousOlderStore = false;
    bool cacheMiss = false;
};

/**
 * The load/store unit. Owns the LQ/SQ (as age-ordered lists of DynInst
 * pointers into the ROB ring, whose slots are stable for an entry's
 * lifetime), the SSQ structures, and the steering predictor. Associative
 * searches walk the pointers directly; no per-entry ROB lookups.
 */
class LoadStoreUnit
{
  public:
    LoadStoreUnit(const LsuParams &params, MemoryImage &committed,
                  SvwUnit &svwUnit, stats::StatRegistry &reg);

    const LsuParams &params() const { return prm; }

    // --- dispatch ------------------------------------------------------
    bool lqFull() const { return lqSize() >= prm.lqEntries; }
    bool sqFull() const { return sqSize() >= prm.sqEntries; }
    /** FSQ allocation check for a steered store (SSQ). */
    bool fsqFullFor(const DynInst &store) const;

    void dispatchLoad(DynInst &load);
    void dispatchStore(DynInst &store);

    // --- execution -------------------------------------------------------
    /**
     * Execute a load whose address is in @p load.addr. Reads forwarding
     * structures / the committed image; does not model cache latency
     * (the core layers that on top).
     */
    LoadExecResult executeLoad(DynInst &load, Cycle now);

    /** A store's data became available (best-effort buffer insertion). */
    void storeDataReady(DynInst &store);

    /**
     * A store resolved its address (issued).
     * @return seq of the oldest younger load that already issued with an
     *         overlapping address (ordering violation; 0 = none).
     *         Always 0 when the LQ CAM is removed (NLQ).
     */
    InstSeqNum storeResolved(DynInst &store);

    /** Re-copy @p store's search-relevant fields into its mirror slot
     * (by-seq binary search; no-op if the store was already squashed).
     * The pipeline reaches this through storeResolved/storeDataReady;
     * tests that poke store fields directly call it to resync. */
    void refreshSqMirror(const DynInst &store);

    // --- retirement / squash --------------------------------------------
    void commitLoad(const DynInst &load);
    void commitStore(const DynInst &store);
    void squashAfter(InstSeqNum keepSeq);

    // --- SSQ steering predictor ------------------------------------------
    bool loadSteeredToFsq(std::uint64_t pc) const;
    bool storeSteeredToFsq(std::uint64_t pc) const;
    /** Train after a re-execution failure (missed forwarding). */
    void trainSteering(std::uint64_t loadPc, std::uint64_t storePc);

    std::size_t lqSize() const { return lq.size() - lqHead; }
    std::size_t sqSize() const { return sq.size() - sqHead; }
    std::size_t fsqSize() const { return fsq.size(); }

    /** Youngest in-flight store (nullptr if none); SSN rollback. */
    DynInst *youngestStore() const
    {
        return sqSize() == 0 ? nullptr : sq.back();
    }

    /** Age-ordered in-flight stores. Checkpoint recovery reads the
     * squashed suffix (before squashAfter prunes it) to release the
     * stores' LFST claims without walking the ROB. */
    std::span<DynInst *const> storeQueue() const
    {
        return std::span<DynInst *const>(sq).subspan(sqHead);
    }

    /** Seq of the youngest in-flight store (0 if none). */
    InstSeqNum youngestStoreSeq() const
    {
        return sqSize() == 0 ? 0 : sq.back()->seq;
    }

  public:
    stats::Scalar forwards;
    stats::Scalar bestEffortHits;
    stats::Scalar partialBlocks;
    stats::Scalar lqSearches;
    stats::Scalar lqViolations;
    stats::Scalar fsqForwards;
    stats::Scalar fsqAllocStalls;
    stats::Scalar steeringTrainings;

  private:
    /** Dense hot-loop accumulators, bound to the Scalars above (see
     * stats::Scalar::bind). Cold-path increments (e.g. the core's
     * ++fsqAllocStalls) may still go through the Scalars directly. */
    struct HotCounters
    {
        std::uint64_t forwards = 0;
        std::uint64_t bestEffortHits = 0;
        std::uint64_t partialBlocks = 0;
        std::uint64_t lqSearches = 0;
        std::uint64_t lqViolations = 0;
        std::uint64_t fsqForwards = 0;
        std::uint64_t steeringTrainings = 0;
    };
    HotCounters hot;

    struct FwdBufEntry
    {
        Addr addr = 0;
        unsigned size = 0;
        std::uint64_t value = 0;
    };

    /**
     * Compact mirror of one SQ entry: everything the associative
     * forwarding search reads (searchSq), packed so the youngest-first
     * scan walks a dense array instead of dereferencing each store's
     * two-cache-line DynInst out of the ROB ring. Maintained strictly
     * in lockstep with @c sq (same order, same length): pushed at
     * dispatch, refreshed from the DynInst when the store's address and
     * data resolve (storeResolved / storeDataReady — the only points
     * those fields change), popped with commit and squash.
     */
    struct SqMirrorEntry
    {
        InstSeqNum seq = 0;
        Addr addr = 0;
        std::uint64_t data = 0;
        SSN ssn = 0;
        std::uint8_t size = 0;
        bool addrOk = false;
        bool dataOk = false;
    };

    /** Extract the bytes of @p load covered by @p store (full cover). */
    static std::uint64_t extractForward(const DynInst &store,
                                        const DynInst &load);

    /** Same, over a mirror entry's address/data. */
    static std::uint64_t extractForward(Addr stAddr, std::uint64_t stData,
                                        const DynInst &load);

    /** Conventional/NLQ path: associative SQ search. */
    LoadExecResult searchSq(DynInst &load);
    /** SSQ path: FSQ search (steered) or best-effort buffer. */
    LoadExecResult searchSsq(DynInst &load, Cycle now);

    unsigned steeringIndex(std::uint64_t pc) const
    {
        return static_cast<unsigned>(pc) & (prm.steeringEntries - 1);
    }

    LsuParams prm;
    MemoryImage &committed;
    SvwUnit &svw;

    /** Age-ordered in-flight loads and stores live at [lqHead, end)
     * and [sqHead, end): retirement advances the head, and the retired
     * prefix is erased once it is as long as the live part, so a
     * retirement moves O(1) entries amortized. */
    std::vector<DynInst *> lq;
    std::vector<DynInst *> sq;
    std::vector<SqMirrorEntry> sqm;  ///< dense searchSq mirror of sq
    std::size_t lqHead = 0;
    std::size_t sqHead = 0;          ///< shared by sq and sqm
    std::vector<DynInst *> fsq;  ///< subset of sq steered to the FSQ

    std::vector<std::deque<FwdBufEntry>> fwdBufs;  ///< per cache bank
    std::vector<bool> loadFsqBits;
    std::vector<bool> storeFsqBits;

    Cycle fsqPortCycle = ~Cycle(0);
    unsigned fsqPortUsed = 0;
};

namespace nlq {

/**
 * Cain & Lipasti's intra-thread filter heuristic (NLQ-LS): re-execute
 * only loads that issued in the presence of older unresolved stores.
 */
bool shouldMarkLoad(bool nlqEnabled, const LoadExecResult &res);

} // namespace nlq

} // namespace svw

#endif // SVW_LSU_LSU_HH
