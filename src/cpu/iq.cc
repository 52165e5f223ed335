#include "cpu/iq.hh"

namespace svw {

IssueQueue::IssueQueue(unsigned capacity, const ROB &robRef,
                       unsigned numPhysRegs)
    : rob(robRef),
      cap(capacity),
      entries_(robRef.ringSlots()),
      awake_((robRef.ringSlots() + 63) / 64, 0),
      regWaiters_(numPhysRegs),
      storeWaiters_(robRef.ringSlots())
{
}

void
IssueQueue::squashAfter(InstSeqNum keepSeq)
{
    // The squashed instructions are the ROB's age-ordered suffix; clear
    // their slots (trivial and eliminated ones never entered the IQ and
    // issued ones already left it, so those slots are empty). Wake
    // records naming them now fail validation and just drop.
    const std::size_t n = rob.youngerThan(keepSeq);
    for (std::size_t i = rob.size() - n; i < rob.size(); ++i) {
        const std::size_t idx = rob.slotAt(i);
        if (entries_[idx].inst) {
            entries_[idx].inst = nullptr;
            --live;
            clearAwake(idx);
        }
    }
}

} // namespace svw
