/**
 * @file
 * Unit tests: integration table and the RLE policy unit — load reuse,
 * memory bypassing, squash reuse, pin budgeting, and SSN carrying.
 */

#include <gtest/gtest.h>

#include <deque>

#include "rle/integration_table.hh"
#include "rle/rle.hh"

using namespace svw;

namespace {

struct RleFixture : ::testing::Test
{
    RleFixture() : rename(128) {}

    RleUnit mkUnit(bool squashReuse = true, bool alu = true,
                   unsigned pins = 64)
    {
        RleParams p;
        p.enabled = true;
        p.squashReuse = squashReuse;
        p.integrateAlu = alu;
        p.maxPinnedRegs = pins;
        return RleUnit(p, reg);
    }

    DynInst mkLoadInst(const StaticInst *si, PhysRegIndex base,
                       InstSeqNum seq)
    {
        DynInst d;
        d.setStatic(si);
        d.seq = seq;
        d.prs1 = base;
        d.prd = rename.alloc();
        return d;
    }

    stats::StatRegistry reg;
    RenameState rename;

    StaticInst ld8{Opcode::Ld8, 3, 2, 0, 16};
    StaticInst ld8Other{Opcode::Ld8, 4, 2, 0, 24};
    StaticInst st8{Opcode::St8, 0, 2, 5, 16};
    StaticInst addOp{Opcode::Add, 6, 2, 5, 0};
};

} // namespace

TEST_F(RleFixture, LoadReuseHitsOnIdenticalSignature)
{
    RleUnit rle = mkUnit();
    PhysRegIndex base = rename.alloc();

    DynInst first = mkLoadInst(&ld8, base, 1);
    EXPECT_FALSE(rle.tryIntegrate(ld8, base, 0, rename).has_value());
    rle.createEntry(first, rename, /*ssnRename=*/5, 0);

    auto integ = rle.tryIntegrate(ld8, base, 0, rename);
    ASSERT_TRUE(integ.has_value());
    EXPECT_EQ(integ->dst, first.prd);
    EXPECT_EQ(integ->ssn, 5u);
    EXPECT_FALSE(integ->fromSquash);
    EXPECT_FALSE(integ->fromStore);
    EXPECT_EQ(rle.loadsEliminated.value(), 1u);
    EXPECT_EQ(rle.elimByReuse.value(), 1u);
}

TEST_F(RleFixture, DifferentOffsetDoesNotMatch)
{
    RleUnit rle = mkUnit();
    PhysRegIndex base = rename.alloc();
    DynInst first = mkLoadInst(&ld8, base, 1);
    rle.createEntry(first, rename, 5, 0);
    EXPECT_FALSE(rle.tryIntegrate(ld8Other, base, 0, rename).has_value());
}

TEST_F(RleFixture, DifferentBaseRegDoesNotMatch)
{
    RleUnit rle = mkUnit();
    PhysRegIndex base = rename.alloc();
    PhysRegIndex other = rename.alloc();
    DynInst first = mkLoadInst(&ld8, base, 1);
    rle.createEntry(first, rename, 5, 0);
    EXPECT_FALSE(rle.tryIntegrate(ld8, other, 0, rename).has_value());
}

TEST_F(RleFixture, StoreCreatesBypassEntry)
{
    RleUnit rle = mkUnit();
    PhysRegIndex base = rename.alloc();
    PhysRegIndex data = rename.alloc();

    DynInst st;
    st.setStatic(&st8);
    st.seq = 1;
    st.prs1 = base;
    st.prs2 = data;
    st.ssn = 42;
    rle.createEntry(st, rename, 40, st.ssn);

    // A matching ld8 integrates the store's data register.
    auto integ = rle.tryIntegrate(ld8, base, 0, rename);
    ASSERT_TRUE(integ.has_value());
    EXPECT_EQ(integ->dst, data);
    EXPECT_EQ(integ->ssn, 42u);  // window starts at the bypassing store
    EXPECT_TRUE(integ->fromStore);
    EXPECT_EQ(rle.elimByBypass.value(), 1u);
}

TEST_F(RleFixture, SubQuadStoresDoNotBypass)
{
    RleUnit rle = mkUnit();
    StaticInst st4{Opcode::St4, 0, 2, 5, 16};
    PhysRegIndex base = rename.alloc();
    PhysRegIndex data = rename.alloc();
    DynInst st;
    st.setStatic(&st4);
    st.seq = 1;
    st.prs1 = base;
    st.prs2 = data;
    rle.createEntry(st, rename, 40, 42);
    StaticInst ld4{Opcode::Ld4, 3, 2, 0, 16};
    EXPECT_FALSE(rle.tryIntegrate(ld4, base, 0, rename).has_value());
}

TEST_F(RleFixture, SquashReuseFlagsIntegration)
{
    RleUnit rle = mkUnit();
    PhysRegIndex base = rename.alloc();
    DynInst first = mkLoadInst(&ld8, base, 10);
    rename.regs().setReadyAt(first.prd, 1);  // value was produced
    rle.createEntry(first, rename, 5, 0);

    rle.onSquash(/*keepSeq=*/9, rename);  // seq 10 squashed

    auto integ = rle.tryIntegrate(ld8, base, 0, rename);
    ASSERT_TRUE(integ.has_value());
    EXPECT_TRUE(integ->fromSquash);
    EXPECT_EQ(integ->ssn, 0u);  // SVW disabled for squash reuse
    EXPECT_EQ(rle.elimBySquashReuse.value(), 1u);
}

TEST_F(RleFixture, SquashReuseDisabledConfig)
{
    RleUnit rle = mkUnit(/*squashReuse=*/false);
    PhysRegIndex base = rename.alloc();
    DynInst first = mkLoadInst(&ld8, base, 10);
    rename.regs().setReadyAt(first.prd, 1);
    rle.createEntry(first, rename, 5, 0);
    rle.onSquash(9, rename);
    EXPECT_FALSE(rle.tryIntegrate(ld8, base, 0, rename).has_value());
}

TEST_F(RleFixture, SquashedNeverProducedEntryIsDead)
{
    RleUnit rle = mkUnit();
    PhysRegIndex base = rename.alloc();
    DynInst first = mkLoadInst(&ld8, base, 10);
    // prd never became ready (producer squashed before issue).
    rle.createEntry(first, rename, 5, 0);
    rle.onSquash(9, rename);
    EXPECT_FALSE(rle.tryIntegrate(ld8, base, 0, rename).has_value());
}

TEST_F(RleFixture, ItPinsKeepSquashedRegistersAlive)
{
    RleUnit rle = mkUnit();
    PhysRegIndex base = rename.alloc();
    DynInst first = mkLoadInst(&ld8, base, 10);
    rename.regs().setReadyAt(first.prd, 1);
    rle.createEntry(first, rename, 5, 0);
    EXPECT_EQ(rename.regs().refCount(first.prd), 2u);  // inst + IT
    rename.deref(first.prd);  // squash walk releases the inst's ref
    EXPECT_EQ(rename.regs().refCount(first.prd), 1u);  // IT keeps it
}

TEST_F(RleFixture, FalseEliminationKillsEntry)
{
    RleUnit rle = mkUnit();
    PhysRegIndex base = rename.alloc();
    DynInst first = mkLoadInst(&ld8, base, 1);
    rle.createEntry(first, rename, 5, 0);

    DynInst victim = mkLoadInst(&ld8, base, 2);
    rle.onFalseElimination(victim, rename);
    EXPECT_FALSE(rle.tryIntegrate(ld8, base, 0, rename).has_value());
}

TEST_F(RleFixture, VerifiedEliminationRefreshesWindow)
{
    RleUnit rle = mkUnit();
    PhysRegIndex base = rename.alloc();
    DynInst first = mkLoadInst(&ld8, base, 1);
    rle.createEntry(first, rename, 5, 0);

    DynInst consumer = mkLoadInst(&ld8, base, 2);
    rename.deref(consumer.prd);  // drop the fixture's allocation
    consumer.prd = first.prd;    // shares the entry's register
    rle.onVerifiedElimination(consumer, rename, /*ssnRetire=*/99);

    auto integ = rle.tryIntegrate(ld8, base, 0, rename);
    ASSERT_TRUE(integ.has_value());
    EXPECT_EQ(integ->ssn, 99u);
}

TEST_F(RleFixture, AluIntegrationSharesResult)
{
    RleUnit rle = mkUnit();
    PhysRegIndex s1 = rename.alloc();
    PhysRegIndex s2 = rename.alloc();
    DynInst add;
    add.setStatic(&addOp);
    add.seq = 1;
    add.prs1 = s1;
    add.prs2 = s2;
    add.prd = rename.alloc();
    rle.createEntry(add, rename, 5, 0);
    auto integ = rle.tryIntegrate(addOp, s1, s2, rename);
    ASSERT_TRUE(integ.has_value());
    EXPECT_EQ(integ->dst, add.prd);
    EXPECT_EQ(rle.aluIntegrated.value(), 1u);
}

TEST_F(RleFixture, AluIntegrationCanBeDisabled)
{
    RleUnit rle = mkUnit(true, /*alu=*/false);
    PhysRegIndex s1 = rename.alloc();
    PhysRegIndex s2 = rename.alloc();
    DynInst add;
    add.setStatic(&addOp);
    add.seq = 1;
    add.prs1 = s1;
    add.prs2 = s2;
    add.prd = rename.alloc();
    rle.createEntry(add, rename, 5, 0);
    EXPECT_FALSE(rle.tryIntegrate(addOp, s1, s2, rename).has_value());
}

TEST_F(RleFixture, GenerationGuardInvalidatesRecycledSources)
{
    RleUnit rle = mkUnit();
    PhysRegIndex base = rename.alloc();
    DynInst first = mkLoadInst(&ld8, base, 1);
    rle.createEntry(first, rename, 5, 0);

    // Recycle the base register: free it and re-allocate.
    rename.deref(base);
    PhysRegIndex recycled = rename.alloc();
    ASSERT_EQ(recycled, base);  // same index, new generation
    EXPECT_FALSE(rle.tryIntegrate(ld8, recycled, 0, rename).has_value());
}

TEST_F(RleFixture, PinBudgetEvictsBeforeInserting)
{
    RleUnit rle = mkUnit(true, true, /*pins=*/4);
    PhysRegIndex base = rename.alloc();
    std::vector<DynInst> loads;
    std::deque<StaticInst> sis;  // stable addresses for DynInst::si
    for (int i = 0; i < 8; ++i) {
        sis.push_back(StaticInst{Opcode::Ld8, 3, 2, 0, 8 * i});
        DynInst d = mkLoadInst(&sis.back(), base, i + 1);
        rle.createEntry(d, rename, 5, 0);
        loads.push_back(d);
    }
    EXPECT_LE(rle.it().liveEntries(), 4u);
    EXPECT_GT(rle.it().pressureReleases.value(), 0u);
}

TEST_F(RleFixture, RelievePressureFreesRegisters)
{
    RleUnit rle = mkUnit();
    PhysRegIndex base = rename.alloc();
    DynInst first = mkLoadInst(&ld8, base, 1);
    rle.createEntry(first, rename, 5, 0);
    rename.deref(first.prd);  // only the IT pin remains

    // Drain the free list completely.
    std::vector<PhysRegIndex> hogs;
    while (rename.hasFreeReg())
        hogs.push_back(rename.alloc());

    EXPECT_TRUE(rle.relievePressure(rename));
    EXPECT_TRUE(rename.hasFreeReg());
}

TEST_F(RleFixture, PressureReleaseVictimOrder)
{
    // releaseOnePinned's priority: the least recently used ALU entry
    // whose register only the IT keeps alive, then the least recently
    // used such load entry, then the global LRU head.
    IntegrationTable it(8, 8, 8, reg);  // one fully associative set
    struct Pin
    {
        ItKey key;
        PhysRegIndex dst;
    };
    const auto pin = [&](Opcode op, std::int64_t imm, bool solo) {
        ItKey k;
        k.op = op;
        k.imm = imm;
        const PhysRegIndex dst = rename.alloc();
        it.insert(k, dst, /*ssn=*/1, /*creatorSeq=*/1, rename);
        if (solo)
            rename.deref(dst);  // only the IT pin remains
        return Pin{k, dst};
    };
    const Pin lx = pin(Opcode::Ld8, 0, false);
    const Pin a0 = pin(Opcode::Add, 1, false);
    const Pin l0 = pin(Opcode::Ld8, 2, true);
    const Pin a1 = pin(Opcode::Add, 3, true);
    const Pin l1 = pin(Opcode::Ld8, 4, true);
    const Pin a2 = pin(Opcode::Add, 5, true);
    // A hit refreshes recency: LRU order is now lx a0 a1 l1 a2 l0.
    ASSERT_NE(it.lookup(l0.key, rename), nullptr);

    // A pin drops only when its entry is released, so each step names
    // its victim.
    for (const Pin *victim : {&a1, &a2, &l1, &l0, &lx, &a0}) {
        const unsigned refs = rename.regs().refCount(victim->dst);
        ASSERT_TRUE(it.releaseOnePinned(rename));
        EXPECT_EQ(rename.regs().refCount(victim->dst), refs - 1)
            << "imm " << victim->key.imm;
    }
    EXPECT_EQ(it.liveEntries(), 0u);
    EXPECT_FALSE(it.releaseOnePinned(rename));
}

TEST_F(RleFixture, DisabledUnitDoesNothing)
{
    RleParams p;  // enabled = false
    RleUnit rle(p, reg);
    PhysRegIndex base = rename.alloc();
    DynInst first = mkLoadInst(&ld8, base, 1);
    rle.createEntry(first, rename, 5, 0);
    EXPECT_FALSE(rle.tryIntegrate(ld8, base, 0, rename).has_value());
    EXPECT_FALSE(rle.relievePressure(rename));
}

TEST_F(RleFixture, WrapClearEmptiesTable)
{
    RleUnit rle = mkUnit();
    PhysRegIndex base = rename.alloc();
    DynInst first = mkLoadInst(&ld8, base, 1);
    rle.createEntry(first, rename, 5, 0);
    rle.wrapClear(rename);
    EXPECT_EQ(rle.it().liveEntries(), 0u);
    EXPECT_FALSE(rle.tryIntegrate(ld8, base, 0, rename).has_value());
}
