/**
 * @file
 * Issue queue: holds dispatched, un-issued instructions; the scheduler
 * scans it oldest-first each cycle.
 *
 * Slots are keyed by ROB ring slot: an instruction's IQ entry lives at
 * the index of its ROB slot, which is stable for the entry's lifetime,
 * and age order is ring order starting at the ROB head. Issue clears
 * the slot in place and squash clears the squashed suffix's slots, so
 * nothing is ever compacted and no entry's index ever shifts. (The
 * entry still carries its DynInst pointer and seq: the pointer saves
 * the scan a ROB access, the seq validates wake records.)
 *
 * Wakeup-driven scan (host-side only — issue decisions are bit-exact
 * with a full walk): an "awake" bitmap marks the slots the scan must
 * visit. A sleeping entry's wake condition is exact, so it leaves the
 * bitmap and is re-armed through one of three structures:
 *
 *  - sleepRetry = r (producer issued, value due at r): a time wheel
 *    sets the bit again at exactly cycle r (drainWakes).
 *  - sleepReg = p (producer un-issued, readyAt == notReady): a
 *    per-register waiter list. The core's noteReadyAt — the only
 *    operation that ever moves a register out of notReady — hands the
 *    list to wakeReg, which moves each waiter straight onto the time
 *    wheel at the value's arrival cycle (nothing can issue earlier).
 *  - a store-set wait (every register gate passed, but the predicted
 *    conflicting store has not resolved its address): a per-ROB-slot
 *    waiter list, fired by the core when that store issues. The fire
 *    happens mid-scan, and the waiter is younger than the store, so the
 *    same scan still reaches it — the same-cycle issue behind the store
 *    is kept.
 *
 * Wake records carry {slot, seq} and are validated when they fire, so
 * records left stale by a squash are simply dropped; a spurious wake
 * only makes the scan re-screen (pure reads) and re-arm. Missed wakes
 * cannot happen: the conditions above are the only ways a sleeping
 * entry's screen can start passing.
 *
 * Entries that still poll (stay awake after a failed visit): those
 * skipped because their issue class was already saturated this cycle,
 * and those that passed every gate but failed in tryIssue for a reason
 * with no recorded wake — a load-bank or FSQ port taken this cycle, or
 * a partial store overlap (lsu.partialBlocks counts each retry).
 */

#ifndef SVW_CPU_IQ_HH
#define SVW_CPU_IQ_HH

#include <bit>
#include <vector>

#include "base/types.hh"
#include "cpu/completion_wheel.hh"
#include "cpu/dyninst.hh"
#include "cpu/rob.hh"

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
     * entirely over this compact array and touches the two-cache-line
     * DynInst only when an entry actually issues (or fails for a
     * non-register reason: port conflict, store-set wait).
     */
    struct Entry
    {
        InstSeqNum seq;
        DynInst *inst;  ///< nullptr = empty slot
        Cycle sleepRetry;        ///< earliest possible issue cycle
        PhysRegIndex sleepReg;   ///< unissued-producer blocking register
        PhysRegIndex prs1;       ///< mirror of DynInst::prs1
        PhysRegIndex prs2;       ///< mirror of DynInst::prs2
        std::uint8_t clsGroup;   ///< issue-resource class
        std::uint8_t gates;      ///< GateBit mask of issue-gating sources
    };

    /** @p rob supplies the slot keying (ring size, slots, head); the
     * per-register waiter lists are sized for @p numPhysRegs. */
    IssueQueue(unsigned capacity, const ROB &rob, unsigned numPhysRegs);

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

    /** Enter @p inst, a live ROB entry, at its ROB slot (awake). */
    void insert(DynInst *inst)
    {
        const std::size_t idx = rob.slotOf(*inst);
        entries_[idx] = Entry{inst->seq, inst, 0, invalidPhysReg,
                              inst->prs1, inst->prs2,
                              classGroup(*inst), gateMask(*inst)};
        ++live;
        setAwake(idx);
    }

    /** Number of slots (the ROB ring size). */
    std::size_t slotCount() const { return entries_.size(); }

    /** Slot @p idx; check .inst for nullptr (empty). */
    const Entry &slot(std::size_t idx) const { return entries_[idx]; }

    /** Mutable slot access (the scan refreshes the sleep mirror). */
    Entry &slotRef(std::size_t idx) { return entries_[idx]; }

    /** Clear the (live) entry at slot @p idx after it issued. */
    void removeAt(std::size_t idx)
    {
        entries_[idx].inst = nullptr;
        --live;
        clearAwake(idx);
    }

    static constexpr std::size_t npos = ~std::size_t(0);

    /**
     * First awake slot in [@p lo, @p hi), or npos. Reads the live
     * bitmap, not a snapshot: the scan walks ring order from the ROB
     * head (two linear ranges), and a producer issuing mid-scan wakes
     * its consumers' (strictly younger, so later) slots, which the same
     * scan then visits — exactly like the screened full walk.
     */
    std::size_t findAwake(std::size_t lo, std::size_t hi) const
    {
        if (lo >= hi)
            return npos;
        std::size_t wi = lo >> 6;
        const std::size_t last = (hi - 1) >> 6;
        std::uint64_t w = awake_[wi] & (~std::uint64_t(0) << (lo & 63));
        while (!w) {
            if (++wi > last)
                return npos;
            w = awake_[wi];
        }
        const std::size_t r = (wi << 6) + std::countr_zero(w);
        return r < hi ? r : npos;
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
        clearAwake(idx);
        const WakeRec rec{e.seq, static_cast<std::uint32_t>(idx)};
        if (e.sleepReg != invalidPhysReg)
            regWaiters_[e.sleepReg].push_back(rec);
        else
            wakeWheel_.schedule(now, e.sleepRetry, rec);
    }

    /** Slot @p idx passed every register gate but waits for the store
     * in ROB slot @p storeSlot to resolve its address (store sets). */
    void sleepOnStore(std::size_t idx, std::size_t storeSlot)
    {
        clearAwake(idx);
        storeWaiters_[storeSlot].push_back(
            WakeRec{entries_[idx].seq, static_cast<std::uint32_t>(idx)});
    }

    /** The store in ROB slot @p storeSlot resolved its address: wake
     * the entries waiting on it (mid-scan; see the file comment). */
    void wakeStoreWaiters(std::size_t storeSlot)
    {
        auto &list = storeWaiters_[storeSlot];
        if (list.empty())
            return;
        for (const WakeRec &r : list)
            wakeValidated(r);
        list.clear();
    }

    /** Fire every wheel record due at cycle @p now. Must run for every
     * cycle that has a record due (CompletionWheel's drain contract).
     * Firing order is immaterial: a validated wake only sets a bit. */
    void drainWakes(Cycle now)
    {
        wakeWheel_.drain(now,
                         [this](const WakeRec &r) { wakeValidated(r); });
    }

    /**
     * Register @p p left notReady at cycle @p now: its value arrives at
     * @p readyAt. The entries sleeping on it cannot pass that gate
     * before then, so each goes straight onto the time wheel for
     * @p readyAt (or wakes now if the value is already there).
     */
    void wakeReg(PhysRegIndex p, Cycle readyAt, Cycle now)
    {
        auto &list = regWaiters_[p];
        if (list.empty())
            return;
        for (const WakeRec &r : list) {
            if (!validRec(r))
                continue;
            if (readyAt <= now)
                setAwake(r.idx);
            else
                wakeWheel_.schedule(now, readyAt, r);
        }
        list.clear();
    }

    /** Drop all entries with seq > @p keepSeq (squash). Must run before
     * the ROB discards the squashed instructions: the squashed entries
     * are exactly the ROB's squashed suffix, whose slots it clears. */
    void squashAfter(InstSeqNum keepSeq);

    // --- dead-cycle skipping (Core::run) ---------------------------------
    /** Whether some slot will be visited by the next scan. */
    bool anyAwake() const
    {
        for (const std::uint64_t w : awake_)
            if (w)
                return true;
        return false;
    }

    /** Earliest cycle a wheel record fires (~Cycle(0) if none). */
    Cycle nextWake(Cycle now) const { return wakeWheel_.nextDue(now); }

  private:
    /** A pending wake for slot @p idx; @p seq guards against the slot
     * having been squashed or re-used since. */
    struct WakeRec
    {
        InstSeqNum seq;
        std::uint32_t idx;
    };

    bool validRec(const WakeRec &r) const
    {
        return entries_[r.idx].inst && entries_[r.idx].seq == r.seq;
    }

    /** Set the awake bit iff the record still names its entry. */
    void wakeValidated(const WakeRec &r)
    {
        if (validRec(r))
            setAwake(r.idx);
    }

    void setAwake(std::size_t idx)
    {
        awake_[idx >> 6] |= std::uint64_t(1) << (idx & 63);
    }
    void clearAwake(std::size_t idx)
    {
        awake_[idx >> 6] &= ~(std::uint64_t(1) << (idx & 63));
    }

    const ROB &rob;
    unsigned cap;
    std::size_t live = 0;
    std::vector<Entry> entries_;  ///< indexed by ROB ring slot
    /** One bit per slot: the scan must visit it. */
    std::vector<std::uint64_t> awake_;
    /** sleepRetry wakes, keyed by due cycle. */
    CompletionWheel<WakeRec> wakeWheel_{256};
    /** sleepReg wakes, indexed by physical register. */
    std::vector<std::vector<WakeRec>> regWaiters_;
    /** Store-set waits, indexed by the awaited store's ROB slot. */
    std::vector<std::vector<WakeRec>> storeWaiters_;
};

} // namespace svw

#endif // SVW_CPU_IQ_HH
