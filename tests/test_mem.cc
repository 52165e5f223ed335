/**
 * @file
 * Unit tests: cache model, ports/buses, and the two-level hierarchy.
 */

#include <gtest/gtest.h>

#include "base/random.hh"
#include "mem/cache.hh"
#include "mem/hierarchy.hh"
#include "mem/port.hh"
#include "stats/stats.hh"

using namespace svw;

namespace {

CacheParams
smallCache()
{
    return CacheParams{1024, 2, 64, 2};  // 1 KB, 2-way, 8 sets
}

} // namespace

TEST(Cache, MissThenHit)
{
    stats::StatRegistry reg;
    Cache c("c", smallCache(), reg);
    EXPECT_FALSE(c.access(0x1000, false).hit);
    EXPECT_TRUE(c.access(0x1000, false).hit);
    EXPECT_TRUE(c.access(0x103f, false).hit);   // same line
    EXPECT_FALSE(c.access(0x1040, false).hit);  // next line
    EXPECT_EQ(c.misses.value(), 2u);
    EXPECT_EQ(c.hits.value(), 2u);
}

TEST(Cache, AssociativityHoldsTwoWays)
{
    stats::StatRegistry reg;
    Cache c("c", smallCache(), reg);
    // Same set: addresses 8 sets * 64 B = 512 B apart.
    c.access(0x0000, false);
    c.access(0x0200, false);
    EXPECT_TRUE(c.access(0x0000, false).hit);
    EXPECT_TRUE(c.access(0x0200, false).hit);
    // A third line in the set evicts the LRU (0x0000 after the touch
    // order above is... 0x0000 was touched more recently than 0x0200).
    c.access(0x0200, false);  // make 0x0000 the LRU
    c.access(0x0400, false);  // evicts 0x0000
    EXPECT_FALSE(c.access(0x0000, false).hit);
}

TEST(Cache, DirtyEvictionReportsWriteback)
{
    stats::StatRegistry reg;
    Cache c("c", smallCache(), reg);
    c.access(0x0000, true);   // dirty
    c.access(0x0200, false);
    c.access(0x0000, true);   // keep dirty line MRU
    auto res = c.access(0x0400, false);  // evicts 0x0200 (clean)
    EXPECT_FALSE(res.writebackVictim);
    c.access(0x0400, false);
    c.access(0x0600, false);  // evicts the dirty 0x0000
    EXPECT_EQ(c.writebacks.value(), 1u);
}

TEST(Cache, InvalidateRemovesLine)
{
    stats::StatRegistry reg;
    Cache c("c", smallCache(), reg);
    c.access(0x1000, false);
    EXPECT_TRUE(c.probe(0x1000));
    EXPECT_TRUE(c.invalidate(0x1000));
    EXPECT_FALSE(c.probe(0x1000));
    EXPECT_FALSE(c.invalidate(0x1000));  // already gone
}

TEST(Cache, ProbeHasNoSideEffects)
{
    stats::StatRegistry reg;
    Cache c("c", smallCache(), reg);
    EXPECT_FALSE(c.probe(0x1000));
    EXPECT_FALSE(c.probe(0x1000));
    EXPECT_EQ(c.misses.value(), 0u);
}

TEST(Cache, LineAddrAndBank)
{
    stats::StatRegistry reg;
    Cache c("c", smallCache(), reg);
    EXPECT_EQ(c.lineAddr(0x12345), 0x12340u);
    EXPECT_EQ(c.bank(0x0000, 2), 0u);
    EXPECT_EQ(c.bank(0x0040, 2), 1u);
    EXPECT_EQ(c.bank(0x0080, 2), 0u);
}

TEST(Cache, BadGeometryPanics)
{
    stats::StatRegistry reg;
    CacheParams p{1000, 2, 64, 2};  // non power of two
    EXPECT_THROW(Cache("c", p, reg), std::logic_error);
}

namespace {

/** Reference model of Cache: one record per line with a per-line LRU
 * stamp, the victim the first invalid way else the oldest stamp. */
class StampLruCache
{
  public:
    explicit StampLruCache(const CacheParams &p)
        : assoc(p.assoc),
          sets(static_cast<unsigned>(p.sizeBytes / (p.lineBytes * p.assoc))),
          lineBytes(p.lineBytes), lines(std::size_t(sets) * assoc)
    {}

    Cache::AccessResult access(Addr addr, bool isWrite)
    {
        Cache::AccessResult res;
        Line *set = setOf(addr);
        const Addr tag = addr / lineBytes;
        for (unsigned w = 0; w < assoc; ++w) {
            if (set[w].valid && set[w].tag == tag) {
                set[w].stamp = ++clock;
                set[w].dirty |= isWrite;
                res.hit = true;
                return res;
            }
        }
        Line *victim = &set[0];
        for (unsigned w = 0; w < assoc; ++w) {
            if (!set[w].valid) {
                victim = &set[w];
                break;
            }
            if (set[w].stamp < victim->stamp)
                victim = &set[w];
        }
        res.writebackVictim = victim->valid && victim->dirty;
        *victim = Line{true, isWrite, tag, ++clock};
        return res;
    }

    bool invalidate(Addr addr)
    {
        Line *set = setOf(addr);
        for (unsigned w = 0; w < assoc; ++w) {
            if (set[w].valid && set[w].tag == addr / lineBytes) {
                set[w].valid = set[w].dirty = false;
                return true;
            }
        }
        return false;
    }

  private:
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        Addr tag = 0;
        std::uint64_t stamp = 0;
    };

    Line *setOf(Addr addr)
    {
        return &lines[std::size_t(addr / lineBytes % sets) * assoc];
    }

    unsigned assoc, sets, lineBytes;
    std::vector<Line> lines;
    std::uint64_t clock = 0;
};

} // namespace

TEST(Cache, MatchesStampLruReferenceOnEveryGeometry)
{
    // Seeded random accesses, writes and invalidations on the l1i, l1d
    // and l2 geometries; every hit, writeback and invalidation must
    // match the stamp-LRU reference.
    const MemParams mp;
    const std::pair<const char *, CacheParams> geometries[] = {
        {"l1i", mp.l1i}, {"l1d", mp.l1d}, {"l2", mp.l2}};
    for (const auto &[name, params] : geometries) {
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            stats::StatRegistry reg;
            Cache cache(name, params, reg);
            StampLruCache ref(params);
            Random rng(seed * 7919);
            // A footprint of about 1.5x the cache, in lines, so sets
            // see hits, conflict misses and evictions of dirty lines.
            const std::uint64_t lines =
                params.sizeBytes / params.lineBytes * 3 / 2;
            std::uint64_t hits = 0, writebacks = 0, invalidations = 0;
            for (int i = 0; i < 200'000; ++i) {
                const Addr addr = rng.next() % lines * params.lineBytes +
                                  rng.next() % params.lineBytes;
                const std::uint64_t op = rng.next() % 16;
                if (op == 0) {
                    const bool was = ref.invalidate(addr);
                    ASSERT_EQ(cache.invalidate(addr), was)
                        << name << " seed " << seed << " op " << i;
                    invalidations += was;
                    continue;
                }
                const bool isWrite = op < 5;
                const Cache::AccessResult want = ref.access(addr, isWrite);
                const Cache::AccessResult got = cache.access(addr, isWrite);
                ASSERT_EQ(got.hit, want.hit)
                    << name << " seed " << seed << " op " << i;
                ASSERT_EQ(got.writebackVictim, want.writebackVictim)
                    << name << " seed " << seed << " op " << i;
                ASSERT_EQ(cache.probe(addr), true);
                hits += want.hit;
                writebacks += want.writebackVictim;
            }
            EXPECT_EQ(cache.hits.value(), hits);
            EXPECT_EQ(cache.writebacks.value(), writebacks);
            EXPECT_EQ(cache.invalidations.value(), invalidations);
            EXPECT_GT(hits, 0u);
            EXPECT_GT(writebacks, 0u);
            EXPECT_GT(invalidations, 0u);
        }
    }
}

TEST(CyclePort, WidthEnforcedPerCycle)
{
    CyclePort p(2);
    EXPECT_TRUE(p.tryClaim(10));
    EXPECT_TRUE(p.tryClaim(10));
    EXPECT_FALSE(p.tryClaim(10));
    EXPECT_TRUE(p.tryClaim(11));  // new cycle
    EXPECT_EQ(p.freeSlots(11), 1u);
    EXPECT_EQ(p.freeSlots(12), 2u);
}

TEST(Bus, SerializesTransfers)
{
    Bus bus(4);
    EXPECT_EQ(bus.schedule(10), 14u);
    EXPECT_EQ(bus.schedule(10), 18u);  // queued behind the first
    EXPECT_EQ(bus.schedule(100), 104u);  // idle gap
}

TEST(Hierarchy, LatenciesLayer)
{
    stats::StatRegistry reg;
    MemParams p;
    MemHierarchy m(p, reg);
    // Cold: L1 miss -> L2 miss -> memory.
    Cycle t0 = m.accessData(0x1000, false, 0);
    EXPECT_GT(t0, 150u);
    // Now hot in L1.
    Cycle t1 = m.accessData(0x1000, false, 1000);
    EXPECT_EQ(t1, 1000u + p.l1d.latency);
}

TEST(Hierarchy, L2CatchesL1Evictions)
{
    stats::StatRegistry reg;
    MemParams p;
    p.l1d.sizeBytes = 1024;  // tiny L1 to force eviction
    MemHierarchy m(p, reg);
    m.accessData(0x0000, false, 0);
    // Walk far past L1 capacity.
    for (Addr a = 64; a < 16 * 1024; a += 64)
        m.accessData(a, false, 1000);
    // 0x0000 is out of L1 but still in L2: latency = L1 + bus + L2.
    Cycle t = m.accessData(0x0000, false, 100000);
    EXPECT_GT(t, 100000u + p.l1d.latency);
    EXPECT_LT(t, 100000u + p.memLatency);
}

TEST(Hierarchy, InstAndDataSeparateL1s)
{
    stats::StatRegistry reg;
    MemParams p;
    MemHierarchy m(p, reg);
    m.accessInst(0x2000, 0);
    // Same address on the data side still misses L1D (hits L2).
    Cycle t = m.accessData(0x2000, false, 1000);
    EXPECT_GT(t, 1000u + p.l1d.latency);
}

TEST(Hierarchy, InvalidateLineDropsData)
{
    stats::StatRegistry reg;
    MemParams p;
    MemHierarchy m(p, reg);
    m.accessData(0x3000, true, 0);
    m.invalidateLine(0x3000);
    // Next access misses all the way to memory (L2 dropped it too).
    Cycle t = m.accessData(0x3000, false, 1000);
    EXPECT_GT(t, 1000u + p.memLatency);
}

TEST(Hierarchy, DataBankInterleave)
{
    stats::StatRegistry reg;
    MemParams p;
    MemHierarchy m(p, reg);
    EXPECT_NE(m.dataBank(0x0000), m.dataBank(0x0040));
    EXPECT_EQ(m.dataBank(0x0000), m.dataBank(0x0080));
    EXPECT_EQ(m.numDataBanks(), 2u);
}
