/**
 * @file
 * Timing-only set-associative cache model.
 *
 * Caches in this simulator track tags, LRU state, and dirty bits to
 * decide hit/miss and writeback traffic; data always lives in the
 * simulation's MemoryImage (the timing and value planes are separate,
 * which is what makes value-accurate re-execution cheap to model).
 */

#ifndef SVW_MEM_CACHE_HH
#define SVW_MEM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "base/types.hh"
#include "stats/stats.hh"

namespace svw {

/** Geometry and latency of one cache level. */
struct CacheParams
{
    std::uint64_t sizeBytes = 32 * 1024;
    unsigned assoc = 2;
    unsigned lineBytes = 64;
    unsigned latency = 2;       ///< access latency in cycles (hit)
};

/**
 * Tag/LRU/dirty state for one cache. No data storage; see file comment.
 * Replacement fills the first invalid way, else the least recently
 * touched one.
 */
class Cache
{
  public:
    Cache(std::string name, const CacheParams &params,
          stats::StatRegistry &reg);

    /** Result of a lookup+fill operation. */
    struct AccessResult
    {
        bool hit = false;
        bool writebackVictim = false;  ///< dirty line evicted
    };

    /**
     * Probe and, on miss, fill the line containing @p addr.
     * @param isWrite marks the line dirty on a write.
     */
    AccessResult access(Addr addr, bool isWrite);

    /** Probe without side effects. */
    bool probe(Addr addr) const;

    /**
     * Invalidate the line containing @p addr if present (coherence).
     * @return true if the line was present.
     */
    bool invalidate(Addr addr);

    unsigned latency() const { return params.latency; }
    unsigned lineBytes() const { return params.lineBytes; }

    /** Line-address (addr with offset bits cleared). */
    Addr lineAddr(Addr addr) const { return addr & ~lineMask; }

    /** Bank index for an interleaved cache with @p banks banks. */
    unsigned bank(Addr addr, unsigned banks) const
    {
        return static_cast<unsigned>((addr >> offsetBits) & (banks - 1));
    }

  private:
    /** Flag bits of a tag word, kept in its line-offset bits. */
    static constexpr std::uint64_t validBit = 1;
    static constexpr std::uint64_t dirtyBit = 2;

    /** Dense hot-loop accumulators, bound to the Scalars below (see
     * stats::Scalar::bind). */
    struct HotCounters
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
    };
    HotCounters hot;

    CacheParams params;
    unsigned numSets;
    unsigned offsetBits;
    Addr lineMask;
    /**
     * One word per line, set-major: the line address with validBit and
     * dirtyBit in its offset bits; zero = invalid. With its rank byte
     * a line costs 9 B, so the L2's 32768 lines take 288 KB.
     */
    std::vector<std::uint64_t> tags;
    /**
     * One recency rank per line, set-major: within a set the ranks are
     * a permutation of 0..assoc-1, 0 the most recently touched. Every
     * hit and fill touches its line, so among valid lines rank order
     * is touch order — the victim a per-line LRU stamp would pick.
     */
    std::vector<std::uint8_t> ranks;

    /** Index of the first way of @p addr's set in tags and ranks. */
    std::size_t setBase(Addr addr) const
    {
        return static_cast<std::size_t>((addr >> offsetBits) &
                                        (numSets - 1)) *
               params.assoc;
    }
    /** Way holding @p addr's line in the set at @p base, or assoc. */
    unsigned findWay(std::size_t base, Addr addr) const;
    /** Make @p way the most recently touched of the set at @p base. */
    void touch(std::size_t base, unsigned way);

  public:
    stats::Scalar hits;
    stats::Scalar misses;
    stats::Scalar writebacks;
    stats::Scalar invalidations;
};

} // namespace svw

#endif // SVW_MEM_CACHE_HH
