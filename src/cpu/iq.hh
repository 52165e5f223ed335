/**
 * @file
 * Issue queue: holds dispatched, un-issued instructions in age order;
 * the scheduler scans it oldest-first each cycle.
 *
 * Entries carry a raw DynInst pointer: ROB ring slots are stable for an
 * entry's lifetime, and the core prunes the IQ before popping squashed
 * ROB entries.
 *
 * The scheduler iterates the slot array in place (no per-cycle snapshot
 * copy). Issue removal tombstones the slot (inst = nullptr); compaction
 * is deferred to insert time, so slot indices never shift while the
 * issue scan is live. Squash only pops from the back (squashed entries
 * are the age-ordered suffix), which also leaves earlier indices intact.
 *
 * Wakeup-driven scan (host-side only — issue decisions are bit-exact
 * with a full walk): an "awake" bitmap marks the slots the scan must
 * visit. A sleeping entry's wake condition is exact, so it leaves the
 * bitmap and is re-armed through one of two structures:
 *
 *  - sleepRetry = r (producer issued, value due at r): a time wheel
 *    sets the bit again at exactly cycle r (drainWakes).
 *  - sleepReg = p (producer un-issued, readyAt == notReady): a
 *    per-register waiter list, fired by the core's noteReadyAt — the
 *    only operation that ever moves a register out of notReady.
 *
 * Wake records carry {slot, seq} and are validated when they fire, so
 * records left stale by a squash or compaction are simply dropped; a
 * spurious wake only makes the scan re-screen (pure reads) and re-arm.
 * Missed wakes cannot happen: the two conditions above are the only
 * ways a sleeping entry's screen can start passing.
 */

#ifndef SVW_CPU_IQ_HH
#define SVW_CPU_IQ_HH

#include <bit>
#include <vector>

#include "base/types.hh"
#include "cpu/completion_wheel.hh"
#include "cpu/dyninst.hh"

namespace svw {

/** Age-ordered issue queue. */
class IssueQueue
{
  public:
    /** Issue-resource class of an entry (which per-class cap gates it). */
    enum ClsGroup : std::uint8_t
    {
        ClsInt = 0,
        ClsBranch,
        ClsLoad,
        ClsStore,
    };

    /**
     * Gate bits: which renamed sources an entry must see ready before
     * it can issue. Stores and loads gate only on rs1 (the address
     * base; store data is captured after issue), ALU ops and branches
     * on whichever of rs1/rs2 the opcode really reads.
     */
    enum GateBit : std::uint8_t
    {
        GateRs1 = 1 << 0,
        GateRs2 = 1 << 1,
    };

    /**
     * One slot. Besides the instruction pointer the entry mirrors every
     * scan-relevant DynInst fact (class group, issue-gating renamed
     * sources at insert; sleep state after every failed wakeup check)
     * so the per-cycle scan — including the failed-issue path — runs
     * entirely over this compact sequential array and touches the
     * two-cache-line DynInst only when an entry actually issues (or
     * fails for a non-register reason: port conflict, store-set wait).
     */
    struct Entry
    {
        InstSeqNum seq;
        DynInst *inst;  ///< nullptr = tombstone (already issued)
        Cycle sleepRetry;        ///< earliest possible issue cycle
        PhysRegIndex sleepReg;   ///< unissued-producer blocking register
        PhysRegIndex prs1;       ///< mirror of DynInst::prs1
        PhysRegIndex prs2;       ///< mirror of DynInst::prs2
        std::uint8_t clsGroup;   ///< issue-resource class
        std::uint8_t gates;      ///< GateBit mask of issue-gating sources
    };

    explicit IssueQueue(unsigned capacity) : cap(capacity) {}

    bool full() const { return live >= cap; }
    std::size_t size() const { return live; }
    unsigned capacity() const { return cap; }

    static std::uint8_t classGroup(const DynInst &inst)
    {
        switch (inst.cls()) {
          case InstClass::Load:
            return ClsLoad;
          case InstClass::Store:
            return ClsStore;
          case InstClass::Branch:
          case InstClass::Jump:
          case InstClass::JumpReg:
            return ClsBranch;
          default:
            return ClsInt;
        }
    }

    /** Issue-gating source mask (see GateBit). */
    static std::uint8_t gateMask(const DynInst &inst)
    {
        std::uint8_t g = 0;
        if (inst.readsRs1())
            g |= GateRs1;
        // Memory ops issue on the address base alone: a store's rs2 is
        // data, captured whenever it arrives after issue.
        if (inst.readsRs2() && !inst.isMem())
            g |= GateRs2;
        return g;
    }

    void insert(DynInst *inst)
    {
        // Deferred compaction: reclaim tombstones outside the issue
        // scan (dispatch never runs mid-scan).
        if (entries_.size() - live > compactThreshold)
            compact();
        entries_.push_back(Entry{inst->seq, inst, 0, invalidPhysReg,
                                 inst->prs1, inst->prs2,
                                 classGroup(*inst), gateMask(*inst)});
        ++live;
        const std::size_t idx = entries_.size() - 1;
        if ((idx >> 6) >= awake_.size())
            awake_.push_back(0);
        awake_[idx >> 6] |= std::uint64_t(1) << (idx & 63);
    }

    /** Number of slots to scan (live entries + tombstones). */
    std::size_t slotCount() const { return entries_.size(); }

    /** Slot @p idx; check .inst for nullptr (tombstone). */
    const Entry &slot(std::size_t idx) const { return entries_[idx]; }

    /** Mutable slot access (the scan refreshes the sleep mirror). */
    Entry &slotRef(std::size_t idx) { return entries_[idx]; }

    /** Tombstone the (live) entry at slot @p idx after it issued. */
    void removeAt(std::size_t idx)
    {
        entries_[idx].inst = nullptr;
        --live;
        awake_[idx >> 6] &= ~(std::uint64_t(1) << (idx & 63));
    }

    static constexpr std::size_t npos = ~std::size_t(0);

    /**
     * Next awake slot at index >= @p from (npos when none). Reads the
     * live bitmap, not a snapshot: a producer issuing at slot i wakes
     * its consumers' (strictly higher, age order) slots mid-scan, and
     * the same scan visits them — exactly like the screened full walk.
     */
    std::size_t nextAwake(std::size_t from) const
    {
        std::size_t wi = from >> 6;
        if (wi >= awake_.size())
            return npos;
        std::uint64_t w = awake_[wi] &
                          (~std::uint64_t(0) << (from & 63));
        while (!w) {
            if (++wi >= awake_.size())
                return npos;
            w = awake_[wi];
        }
        return (wi << 6) + std::countr_zero(w);
    }

    /**
     * The scan recorded (or re-confirmed) a sleep in slot @p idx: drop
     * the awake bit and arm the exact wake — sleepReg goes on that
     * register's waiter list, otherwise sleepRetry (> @p now) goes on
     * the time wheel. Re-arming after a spurious wake may duplicate a
     * record; fires are validated and idempotent, so that is harmless.
     */
    void noteAsleep(std::size_t idx, Cycle now)
    {
        const Entry &e = entries_[idx];
        awake_[idx >> 6] &= ~(std::uint64_t(1) << (idx & 63));
        const WakeRec rec{e.seq, static_cast<std::uint32_t>(idx)};
        if (e.sleepReg != invalidPhysReg) {
            if (regWaiters_.size() <= std::size_t(e.sleepReg))
                regWaiters_.resize(std::size_t(e.sleepReg) + 1);
            regWaiters_[e.sleepReg].push_back(rec);
        } else {
            wakeWheel_.schedule(now, e.sleepRetry, rec);
        }
    }

    /** Fire every wheel record due at cycle @p now. Must run once per
     * cycle (the wheel's drain contract). Firing order is immaterial:
     * a validated wake only sets an awake bit. */
    void drainWakes(Cycle now)
    {
        wakeWheel_.drain(now,
                         [this](const WakeRec &r) { wakeValidated(r); });
    }

    /** Register @p p left notReady (its producer issued): wake the
     * entries sleeping on it. */
    void wakeReg(PhysRegIndex p)
    {
        if (std::size_t(p) >= regWaiters_.size())
            return;
        auto &list = regWaiters_[p];
        if (!list.empty()) {
            for (const WakeRec &r : list)
                wakeValidated(r);
            list.clear();
        }
    }

    /** Drop all entries with seq > @p keepSeq (squash). Must run before
     * the ROB discards the squashed instructions. Only pops from the
     * back: surviving slot indices are unchanged. */
    void squashAfter(InstSeqNum keepSeq);

  private:
    /** A pending wake for slot @p idx; @p seq guards against the slot
     * having been squashed, re-used, or shifted by compaction. */
    struct WakeRec
    {
        InstSeqNum seq;
        std::uint32_t idx;
    };

    void compact();

    /** Set the awake bit iff the record still names its entry. */
    void wakeValidated(const WakeRec &r)
    {
        if (r.idx < entries_.size() && entries_[r.idx].inst &&
            entries_[r.idx].seq == r.seq) {
            awake_[r.idx >> 6] |= std::uint64_t(1) << (r.idx & 63);
        }
    }

    static constexpr std::size_t compactThreshold = 32;

    unsigned cap;
    std::size_t live = 0;
    std::vector<Entry> entries_;  ///< kept in insertion (age) order
    /** One bit per slot: the scan must visit it (bits past slotCount
     * are kept zero by squashAfter/compact). */
    std::vector<std::uint64_t> awake_;
    /** sleepRetry wakes, keyed by due cycle. */
    CompletionWheel<WakeRec> wakeWheel_{256};
    /** sleepReg wakes, indexed by physical register (grown lazily). */
    std::vector<std::vector<WakeRec>> regWaiters_;
};

} // namespace svw

#endif // SVW_CPU_IQ_HH
