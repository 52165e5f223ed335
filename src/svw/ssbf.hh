/**
 * @file
 * Store Sequence Bloom Filter (SSBF) — the paper's table of retired-store
 * SSNs, indexed by low-order address bits (tagless; aliasing can only
 * cause false positives, i.e., superfluous re-executions).
 *
 * Supported organizations mirror Figure 8's sensitivity study:
 *  - "simple" filters of 128/512/2048 entries at 8-byte granularity,
 *  - a dual-hash "Bloom" configuration (second table indexed by the next
 *    address bits; a load re-executes only if it hits in both),
 *  - 4-byte granularity, and
 *  - an infinite (exact, per-granule) filter.
 *
 * For NLQ-SM, the SSBF is logically banked by word-in-line so a cache
 * line invalidation can update every granule of the line in one shot
 * (section 3.2); invalidate() models that.
 *
 * Paper-term map: SSBF[A] approximates "the SSN of the youngest store
 * that wrote address granule A". The filter test for a marked load is
 * SSBF[ld.addr] > ld.SVW => re-execute (a store the load is vulnerable
 * to may have hit its address). Stores update the table at their rex
 * SVW stage (speculative update, section 3.6) or at their cache commit
 * (atomic variant); wrap-around of the finite SSN width flash-clears
 * it behind a pipeline drain.
 */

#ifndef SVW_SVW_SSBF_HH
#define SVW_SVW_SSBF_HH

#include <compare>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "base/types.hh"
#include "stats/stats.hh"

namespace svw {

/** SSBF organization. */
struct SsbfParams
{
    unsigned entries = 512;          ///< entries per table
    unsigned granularityBytes = 8;   ///< conflict-tracking granule
    bool dualHash = false;           ///< Figure 8 "Bloom" configuration
    bool infinite = false;           ///< exact per-granule tracking

    /** Memberwise order (harness::ExperimentConfig's needs it). */
    auto operator<=>(const SsbfParams &) const = default;
};

/**
 * The SSBF. Entries hold *truncated* SSNs as the hardware would; the
 * caller compares against truncated load SVWs. Value 0 means "no store
 * to a matching address since the last clear".
 */
class SSBF
{
  public:
    SSBF(const SsbfParams &params, stats::StatRegistry &reg);

    /** Store (at its rex SVW stage) records its SSN for its granule(s). */
    void update(Addr addr, unsigned size, SSN truncSsn);

    /**
     * Coherence invalidation: pretend an asynchronous store hit every
     * granule of the line (write SSNRENAME+1 per section 3.2).
     */
    void invalidateLine(Addr lineAddr, unsigned lineBytes, SSN truncSsn);

    /**
     * Re-execution filter test: true if some store the load may be
     * vulnerable to wrote a matching address, i.e.
     * SSBF[ld.addr] > ld.SVW (per granule; any granule positive =>
     * re-execute).
     */
    bool test(Addr addr, unsigned size, SSN truncSvw) const;

    /** Flash clear (SSN wrap-around drain). */
    void clear();

    /** Storage cost in bytes for a given SSN width (reporting). */
    std::uint64_t storageBits(unsigned ssnBits) const;

  public:
    stats::Scalar updates;
    stats::Scalar invalidationUpdates;
    stats::Scalar tests;
    stats::Scalar positives;

  private:
    /** Dense hot-loop accumulators, bound to the Scalars above (see
     * stats::Scalar::bind); mutable so the const filter test can count. */
    mutable struct HotCounters
    {
        std::uint64_t updates = 0;
        std::uint64_t invalidationUpdates = 0;
        std::uint64_t tests = 0;
        std::uint64_t positives = 0;
    } hot;

    SsbfParams params;
    unsigned granShift;
    unsigned idxShift;  ///< exactLog2(entries), cached (table-2 hash)
    std::vector<SSN> table1;
    std::vector<SSN> table2;            ///< dual-hash second table
    std::unordered_map<Addr, SSN> exact;  ///< infinite configuration

    SSN lookup(Addr granule) const;
    void store(Addr granule, SSN truncSsn);
};

} // namespace svw

#endif // SVW_SVW_SSBF_HH
