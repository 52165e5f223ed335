/**
 * @file
 * LoadStoreUnit: construction, dispatch, retirement, squash.
 * Execution paths live in conventional.cc (SQ/LQ CAM) and ssq.cc.
 */

#include "lsu/lsu.hh"

#include <algorithm>

#include "base/logging.hh"

namespace svw {

LoadStoreUnit::LoadStoreUnit(const LsuParams &p, MemoryImage &img,
                             SvwUnit &svwUnit, stats::StatRegistry &reg)
    : forwards(reg, "lsu.forwards", "loads forwarded from in-flight stores"),
      bestEffortHits(reg, "lsu.bestEffortHits",
                     "loads served by best-effort buffers (SSQ)"),
      partialBlocks(reg, "lsu.partialBlocks",
                    "load issue retries due to partial store overlap"),
      lqSearches(reg, "lsu.lqSearches", "associative LQ searches"),
      lqViolations(reg, "lsu.lqViolations",
                   "ordering violations found by LQ search"),
      fsqForwards(reg, "lsu.fsqForwards", "forwards out of the FSQ"),
      fsqAllocStalls(reg, "lsu.fsqAllocStalls",
                     "dispatch stalls: FSQ full for a steered store"),
      steeringTrainings(reg, "lsu.steeringTrainings",
                        "steering predictor trainings"),
      prm(p),
      committed(img),
      svw(svwUnit)
{
    forwards.bind(&hot.forwards);
    bestEffortHits.bind(&hot.bestEffortHits);
    partialBlocks.bind(&hot.partialBlocks);
    lqSearches.bind(&hot.lqSearches);
    lqViolations.bind(&hot.lqViolations);
    fsqForwards.bind(&hot.fsqForwards);
    steeringTrainings.bind(&hot.steeringTrainings);

    fwdBufs.resize(2);  // matches the 2-way interleaved L1D
    loadFsqBits.assign(prm.steeringEntries, false);
    storeFsqBits.assign(prm.steeringEntries, false);
}

bool
LoadStoreUnit::fsqFullFor(const DynInst &store) const
{
    if (!prm.ssq || !storeSteeredToFsq(store.pc))
        return false;
    return fsq.size() >= prm.fsqEntries;
}

void
LoadStoreUnit::dispatchLoad(DynInst &load)
{
    svw_assert(!lqFull(), "LQ overflow");
    if (prm.ssq)
        load.fsqLoad = loadSteeredToFsq(load.pc);
    lq.push_back(&load);
}

void
LoadStoreUnit::dispatchStore(DynInst &store)
{
    svw_assert(!sqFull(), "SQ overflow");
    sq.push_back(&store);
    // Snapshot whatever is already known (in the pipeline a store is
    // unresolved at dispatch; unit tests dispatch pre-resolved ones).
    sqm.push_back(SqMirrorEntry{store.seq, store.addr, store.storeData,
                                store.ssn,
                                static_cast<std::uint8_t>(store.size),
                                store.addrResolved, store.dataResolved});
    if (prm.ssq && storeSteeredToFsq(store.pc)) {
        svw_assert(fsq.size() < prm.fsqEntries, "FSQ overflow");
        store.fsqStore = true;
        fsq.push_back(&store);
    }
}

std::uint64_t
LoadStoreUnit::extractForward(const DynInst &store, const DynInst &load)
{
    return extractForward(store.addr, store.storeData, load);
}

std::uint64_t
LoadStoreUnit::extractForward(Addr stAddr, std::uint64_t stData,
                              const DynInst &load)
{
    // Store fully covers the load; shift out the leading bytes.
    const unsigned byteOff = static_cast<unsigned>(load.addr - stAddr);
    std::uint64_t v = stData >> (8 * byteOff);
    if (load.size < 8)
        v &= (std::uint64_t(1) << (8 * load.size)) - 1;
    return v;
}

void
LoadStoreUnit::refreshSqMirror(const DynInst &store)
{
    // sqm is age-ordered (parallel to sq); locate the slot by seq.
    auto it = std::lower_bound(sqm.begin() + sqHead, sqm.end(), store.seq,
                               [](const SqMirrorEntry &e, InstSeqNum s) {
                                   return e.seq < s;
                               });
    if (it == sqm.end() || it->seq != store.seq)
        return;  // already squashed out
    it->addr = store.addr;
    it->data = store.storeData;
    it->ssn = store.ssn;
    it->addrOk = store.addrResolved;
    it->dataOk = store.dataResolved;
}

LoadExecResult
LoadStoreUnit::executeLoad(DynInst &load, Cycle now)
{
    LoadExecResult res = prm.ssq ? searchSsq(load, now)
                                 : searchSq(load);
    if (res.status != LoadExecResult::Status::Done)
        return res;

    if (res.forwarded) {
        ++hot.forwards;
        load.forwarded = true;
        load.fwdStoreSSN = res.fwdSsn;
        // +UPD: shrink the vulnerability window to the forwarding store.
        // Best-effort forwards do not maintain the invariants required
        // (the matched entry may not be the youngest older store).
        if (!res.bestEffort)
            svw.onStoreForward(load, res.fwdSsn);
    }
    load.loadValue = res.value;
    return res;
}

void
LoadStoreUnit::commitLoad(const DynInst &load)
{
    svw_assert(lqSize() != 0 && lq[lqHead]->seq == load.seq,
               "LQ commit out of order");
    if (2 * ++lqHead >= lq.size()) {
        lq.erase(lq.begin(), lq.begin() + lqHead);
        lqHead = 0;
    }
}

void
LoadStoreUnit::commitStore(const DynInst &store)
{
    svw_assert(sqSize() != 0 && sq[sqHead]->seq == store.seq,
               "SQ commit out of order");
    if (2 * ++sqHead >= sq.size()) {
        sq.erase(sq.begin(), sq.begin() + sqHead);
        sqm.erase(sqm.begin(), sqm.begin() + sqHead);
        sqHead = 0;
    }
    if (prm.ssq) {
        // The committed store enters its bank's best-effort forwarding
        // buffer (an 8-entry window in front of the cache bank).
        // A hit in this buffer is served without re-execution whenever
        // the SVW filter clears the load, so entries must stay equal to
        // committed memory: any older entry this store overlaps is now
        // stale and is dropped (both banks — the overlap can cross the
        // bank interleave even though the new entry lands in one).
        for (auto &b : fwdBufs) {
            std::erase_if(b, [&store](const FwdBufEntry &e) {
                return e.addr < store.addr + store.size &&
                       store.addr < e.addr + e.size;
            });
        }
        const unsigned bank = static_cast<unsigned>(store.addr >> 6) & 1;
        auto &buf = fwdBufs[bank];
        if (buf.size() >= prm.fwdBufEntriesPerBank)
            buf.pop_front();
        // The entry holds the bytes the store wrote, not the raw source
        // register: an exact addr/size hit is served unmasked, and a
        // sub-8-byte store's high register bits are not memory content.
        std::uint64_t data = store.storeData;
        if (store.size < 8)
            data &= (std::uint64_t(1) << (8 * store.size)) - 1;
        buf.push_back(FwdBufEntry{store.addr, store.size, data});
    }
    if (store.fsqStore) {
        auto it = std::find_if(fsq.begin(), fsq.end(),
                               [&store](const DynInst *s) {
                                   return s->seq == store.seq;
                               });
        svw_assert(it != fsq.end(), "FSQ entry lost");
        fsq.erase(it);
    }
}

void
LoadStoreUnit::squashAfter(InstSeqNum keepSeq)
{
    // Squashed entries are a suffix (queues are age-ordered): pop while
    // the tail is younger than the squash point.
    auto prune = [keepSeq](std::vector<DynInst *> &q, std::size_t head) {
        while (q.size() > head && q.back()->seq > keepSeq)
            q.pop_back();
    };
    prune(lq, lqHead);
    prune(sq, sqHead);
    prune(fsq, 0);
    sqm.resize(sq.size());
    // Best-effort buffers are not cleaned: they are speculative by
    // construction and re-execution verifies every load under SSQ.
}

bool
LoadStoreUnit::loadSteeredToFsq(std::uint64_t pc) const
{
    return loadFsqBits[steeringIndex(pc)];
}

bool
LoadStoreUnit::storeSteeredToFsq(std::uint64_t pc) const
{
    return storeFsqBits[steeringIndex(pc)];
}

void
LoadStoreUnit::trainSteering(std::uint64_t loadPc, std::uint64_t storePc)
{
    ++hot.steeringTrainings;
    loadFsqBits[steeringIndex(loadPc)] = true;
    if (storePc != ~std::uint64_t(0))
        storeFsqBits[steeringIndex(storePc)] = true;
}

} // namespace svw
