/**
 * @file
 * Unit tests: the ring-buffer ROB (wrap-around across squash/refill
 * cycles, seq lookup with gaps, capacity behavior, pointer stability)
 * and the completion event wheel (insertion-order same-cycle drain,
 * squashed-entry skip, horizon overflow).
 */

#include <gtest/gtest.h>

#include <vector>

#include "cpu/completion_wheel.hh"
#include "cpu/rob.hh"

using namespace svw;

namespace {

StaticInst nopInst{Opcode::Nop, 0, 0, 0, 0};

DynInst
mkInst(InstSeqNum seq)
{
    DynInst d;
    d.seq = seq;
    d.setStatic(&nopInst);
    return d;
}

} // namespace

// ---------------------------------------------------------------------
// Ring ROB
// ---------------------------------------------------------------------

TEST(RobRing, WrapAroundManyTimes)
{
    ROB rob(8);
    InstSeqNum next = 1;
    // Push/pop far past the ring size so every slot is reused many
    // times; FIFO order and head/tail identity must hold throughout.
    for (int round = 0; round < 100; ++round) {
        while (!rob.full())
            rob.push(mkInst(next++));
        EXPECT_EQ(rob.size(), 8u);
        EXPECT_EQ(rob.tail().seq, next - 1);
        EXPECT_EQ(rob.head().seq, next - 8);
        // Commit a few from the head.
        rob.popHead();
        rob.popHead();
        rob.popHead();
        EXPECT_EQ(rob.head().seq, next - 5);
    }
}

TEST(RobRing, SquashRefillCyclesWithSeqGaps)
{
    ROB rob(8);
    InstSeqNum fetchCounter = 0;
    // Model the core's squash pattern: the fetch counter keeps running
    // while the ROB suffix is discarded, leaving seq gaps in the window.
    for (int round = 0; round < 50; ++round) {
        while (!rob.full())
            rob.push(mkInst(++fetchCounter));
        // Squash everything younger than the fourth-oldest entry; burn
        // fetch seqs for the killed wrong-path instructions that never
        // reached dispatch.
        auto it = rob.begin();
        ++it;
        ++it;
        ++it;
        const InstSeqNum keep = (*it).seq;
        while (!rob.empty() && rob.tail().seq > keep)
            rob.popTail();
        fetchCounter += 5;
        // Refill past the gap.
        rob.push(mkInst(++fetchCounter));
        // Ordering and lookup must survive the gap.
        EXPECT_EQ(rob.tail().seq, fetchCounter);
        EXPECT_EQ(rob.findBySeq(keep)->seq, keep);
        EXPECT_EQ(rob.findBySeq(fetchCounter)->seq, fetchCounter);
        EXPECT_EQ(rob.findBySeq(keep + 1), nullptr) << "squashed seq";
        // Drain a few so the ring head keeps advancing.
        rob.popHead();
        rob.popHead();
    }
}

TEST(RobRing, FindBySeqAbsentAndSquashed)
{
    ROB rob(8);
    rob.push(mkInst(2));
    rob.push(mkInst(5));
    rob.push(mkInst(9));
    EXPECT_EQ(rob.findBySeq(2)->seq, 2u);
    EXPECT_EQ(rob.findBySeq(5)->seq, 5u);
    EXPECT_EQ(rob.findBySeq(9)->seq, 9u);
    EXPECT_EQ(rob.findBySeq(1), nullptr);   // older than head
    EXPECT_EQ(rob.findBySeq(3), nullptr);   // in a gap
    EXPECT_EQ(rob.findBySeq(8), nullptr);   // in a gap near tail
    EXPECT_EQ(rob.findBySeq(10), nullptr);  // younger than tail
    rob.popTail();
    EXPECT_EQ(rob.findBySeq(9), nullptr) << "squashed entry";
}

TEST(RobRing, LowerBoundWithGaps)
{
    ROB rob(8);
    rob.push(mkInst(2));
    rob.push(mkInst(5));
    rob.push(mkInst(9));
    EXPECT_EQ(rob.lowerBound(1)->seq, 2u);
    EXPECT_EQ(rob.lowerBound(2)->seq, 2u);
    EXPECT_EQ(rob.lowerBound(3)->seq, 5u);
    EXPECT_EQ(rob.lowerBound(6)->seq, 9u);
    EXPECT_EQ(rob.lowerBound(9)->seq, 9u);
    EXPECT_EQ(rob.lowerBound(10), nullptr);
}

TEST(RobRing, CapacityFullBlocksDispatch)
{
    // Non-power-of-two capacity: the ring rounds up internally but the
    // architectural limit must stay exact (dispatch stalls at full()).
    ROB rob(6);
    for (InstSeqNum s = 1; s <= 6; ++s) {
        EXPECT_FALSE(rob.full());
        rob.push(mkInst(s));
    }
    EXPECT_TRUE(rob.full());
    EXPECT_EQ(rob.size(), 6u);
    rob.popHead();
    EXPECT_FALSE(rob.full());
    rob.push(mkInst(7));
    EXPECT_TRUE(rob.full());
    EXPECT_EQ(rob.head().seq, 2u);
    EXPECT_EQ(rob.tail().seq, 7u);
}

TEST(RobRing, SlotPointersStableForEntryLifetime)
{
    ROB rob(16);
    DynInst &first = rob.push(mkInst(1));
    std::vector<DynInst *> ptrs{&first};
    for (InstSeqNum s = 2; s <= 16; ++s)
        ptrs.push_back(&rob.push(mkInst(s)));
    // Pushing up to capacity must not move earlier entries (the IQ, LSU
    // queues and rex store buffer hold these pointers).
    for (std::size_t i = 0; i < ptrs.size(); ++i)
        EXPECT_EQ(ptrs[i]->seq, i + 1);
    // Pop + refill reuses the head slots, not the live ones.
    rob.popHead();
    rob.popHead();
    rob.push(mkInst(17));
    EXPECT_EQ(ptrs[2]->seq, 3u) << "live entry must not move";
}

TEST(RobRing, IterationIsAgeOrdered)
{
    ROB rob(4);
    // Force wrap: fill, drain, refill.
    for (InstSeqNum s = 1; s <= 4; ++s)
        rob.push(mkInst(s));
    rob.popHead();
    rob.popHead();
    rob.push(mkInst(7));
    std::vector<InstSeqNum> seen;
    for (const DynInst &d : rob)
        seen.push_back(d.seq);
    EXPECT_EQ(seen, (std::vector<InstSeqNum>{3, 4, 7}));
}

// ---------------------------------------------------------------------
// Completion event wheel
// ---------------------------------------------------------------------

TEST(CompletionWheel, SameCycleEventsFireInInsertionOrder)
{
    CompletionWheel<InstSeqNum> wheel(16);
    wheel.schedule(0, 3, 11);
    wheel.schedule(0, 3, 22);
    wheel.schedule(1, 3, 33);
    std::vector<InstSeqNum> fired;
    for (Cycle c = 0; c <= 4; ++c)
        wheel.drain(c, [&](InstSeqNum s) { fired.push_back(s); });
    EXPECT_EQ(fired, (std::vector<InstSeqNum>{11, 22, 33}));
    EXPECT_TRUE(wheel.empty());
}

TEST(CompletionWheel, SquashedEntriesAreSkippedByConsumer)
{
    // The core never prunes the wheel at squash: the drain callback
    // looks the seq up in the ROB and skips it. Model that contract.
    ROB rob(8);
    rob.push(mkInst(1));
    rob.push(mkInst(2));
    rob.push(mkInst(3));
    CompletionWheel<InstSeqNum> wheel(16);
    wheel.schedule(0, 2, 1);
    wheel.schedule(0, 2, 3);
    rob.popTail();  // squash seq 3
    std::vector<InstSeqNum> completed;
    for (Cycle c = 1; c <= 2; ++c) {
        wheel.drain(c, [&](InstSeqNum s) {
            if (rob.findBySeq(s))
                completed.push_back(s);
        });
    }
    EXPECT_EQ(completed, (std::vector<InstSeqNum>{1}));
}

TEST(CompletionWheel, PastDueFiresNextDrainNotNever)
{
    CompletionWheel<InstSeqNum> wheel(16);
    wheel.schedule(5, 5, 42);  // due <= now: clamp to now + 1
    bool fired = false;
    wheel.drain(5, [&](InstSeqNum) { fired = true; });
    EXPECT_FALSE(fired);
    wheel.drain(6, [&](InstSeqNum) { fired = true; });
    EXPECT_TRUE(fired);
}

TEST(CompletionWheel, BeyondHorizonOverflowStillFiresOnTime)
{
    CompletionWheel<InstSeqNum> wheel(8);
    wheel.schedule(0, 100, 7);   // way past the 8-cycle horizon
    wheel.schedule(0, 5, 1);     // in-wheel
    std::vector<std::pair<Cycle, InstSeqNum>> fired;
    for (Cycle c = 0; c <= 110; ++c) {
        if (c == 97)
            wheel.schedule(c, 100, 9);  // same due cycle, later insert
        wheel.drain(c, [&](InstSeqNum s) { fired.emplace_back(c, s); });
    }
    ASSERT_EQ(fired.size(), 3u);
    EXPECT_EQ(fired[0], (std::pair<Cycle, InstSeqNum>{5, 1}));
    // Overflow (inserted first) fires before the in-wheel event of the
    // same cycle: global insertion order is preserved.
    EXPECT_EQ(fired[1], (std::pair<Cycle, InstSeqNum>{100, 7}));
    EXPECT_EQ(fired[2], (std::pair<Cycle, InstSeqNum>{100, 9}));
    EXPECT_TRUE(wheel.empty());
}

TEST(CompletionWheel, DrainCallbackMaySchedule)
{
    CompletionWheel<InstSeqNum> wheel(8);
    wheel.schedule(0, 2, 1);
    std::vector<InstSeqNum> fired;
    for (Cycle c = 1; c <= 5; ++c) {
        wheel.drain(c, [&](InstSeqNum s) {
            fired.push_back(s);
            if (s == 1)
                wheel.schedule(c, c + 1, 2);  // store-data capture pattern
        });
    }
    EXPECT_EQ(fired, (std::vector<InstSeqNum>{1, 2}));
}
