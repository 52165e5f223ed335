#include "mem/cache.hh"

#include <algorithm>

#include "base/intmath.hh"
#include "base/logging.hh"

namespace svw {

Cache::Cache(std::string name, const CacheParams &p, stats::StatRegistry &reg)
    : params(p),
      hits(reg, name + ".hits", "cache hits"),
      misses(reg, name + ".misses", "cache misses"),
      writebacks(reg, name + ".writebacks", "dirty lines evicted"),
      invalidations(reg, name + ".invalidations", "lines invalidated")
{
    hits.bind(&hot.hits);
    misses.bind(&hot.misses);
    svw_assert(isPowerOf2(p.lineBytes) && isPowerOf2(p.sizeBytes),
               "cache geometry must be powers of two");
    numSets = static_cast<unsigned>(p.sizeBytes / (p.lineBytes * p.assoc));
    svw_assert(numSets > 0 && isPowerOf2(numSets), "bad set count");
    offsetBits = exactLog2(p.lineBytes);
    lineMask = p.lineBytes - 1;
    // The flags live in the line-offset bits and a rank in one byte.
    svw_assert(p.lineBytes >= 4, "cache lines must be at least 4 bytes");
    svw_assert(p.assoc >= 1 && p.assoc <= 256,
               "cache associativity must be 1..256");
    const std::size_t n = static_cast<std::size_t>(numSets) * p.assoc;
    tags.assign(n, 0);
    // Every set starts ranked 0..assoc-1 by way: build one set's ranks
    // and copy it set by set (no per-line division).
    ranks.resize(n);
    for (unsigned w = 0; w < p.assoc; ++w)
        ranks[w] = static_cast<std::uint8_t>(w);
    for (std::size_t b = p.assoc; b < n; b += p.assoc)
        std::copy_n(ranks.begin(), p.assoc, ranks.begin() + b);
}

unsigned
Cache::findWay(std::size_t base, Addr addr) const
{
    const std::uint64_t want = (addr & ~lineMask) | validBit;
    const std::uint64_t *set = &tags[base];
    unsigned w = 0;
    while (w < params.assoc && (set[w] & ~dirtyBit) != want)
        ++w;
    return w;
}

void
Cache::touch(std::size_t base, unsigned way)
{
    std::uint8_t *rank = &ranks[base];
    const std::uint8_t old = rank[way];
    if (old == 0)
        return;  // already the most recent: the usual repeat hit
    for (unsigned w = 0; w < params.assoc; ++w)
        rank[w] += rank[w] < old;
    rank[way] = 0;
}

Cache::AccessResult
Cache::access(Addr addr, bool isWrite)
{
    AccessResult res;
    const std::size_t base = setBase(addr);
    std::uint64_t *set = &tags[base];
    unsigned way = findWay(base, addr);
    if (way < params.assoc) {
        ++hot.hits;
        set[way] |= isWrite ? dirtyBit : 0;
        touch(base, way);
        res.hit = true;
        return res;
    }

    ++hot.misses;
    // Fill: the first invalid way, else the least recently touched
    // (with every way valid, the one ranked last).
    way = 0;
    while (way < params.assoc && (set[way] & validBit))
        ++way;
    if (way == params.assoc) {
        way = 0;
        while (ranks[base + way] != params.assoc - 1)
            ++way;
        if (set[way] & dirtyBit) {
            ++writebacks;
            res.writebackVictim = true;
        }
    }
    set[way] = (addr & ~lineMask) | validBit | (isWrite ? dirtyBit : 0);
    touch(base, way);
    return res;
}

bool
Cache::probe(Addr addr) const
{
    const std::size_t base = setBase(addr);
    return findWay(base, addr) < params.assoc;
}

bool
Cache::invalidate(Addr addr)
{
    const std::size_t base = setBase(addr);
    const unsigned way = findWay(base, addr);
    if (way == params.assoc)
        return false;
    tags[base + way] = 0;
    ++invalidations;
    return true;
}

} // namespace svw
