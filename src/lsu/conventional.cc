/**
 * @file
 * Conventional LSU paths: associative SQ search for forwarding and
 * associative LQ search (at store resolution) for ordering violations.
 * These also serve the NLQ organization, which keeps the SQ CAM but
 * removes the LQ CAM (storeResolved returns no violations; the marked
 * loads are verified by re-execution instead).
 */

#include "base/intmath.hh"
#include "lsu/lsu.hh"

namespace svw {

LoadExecResult
LoadStoreUnit::searchSq(DynInst &load)
{
    LoadExecResult res;

    // Youngest-first scan of older stores, over the dense SQ mirror
    // (sqm) rather than the DynInst pointers: the search is the hot
    // associative structure of the conventional/NLQ machine, and the
    // mirror keeps it on a few contiguous cache lines.
    for (std::size_t i = sqm.size(); i-- > sqHead;) {
        const SqMirrorEntry &st = sqm[i];
        if (st.seq > load.seq)
            continue;
        if (!st.addrOk) {
            // Ambiguous older store: the load may speculate past it.
            res.sawAmbiguousOlderStore = true;
            continue;
        }
        if (!rangesOverlap(st.addr, st.size, load.addr, load.size))
            continue;
        if (rangeContains(st.addr, st.size, load.addr, load.size) &&
            st.dataOk) {
            res.forwarded = true;
            res.fwdSsn = st.ssn;
            res.value = extractForward(st.addr, st.data, load);
            return res;
        }
        // Partial overlap, or matching store whose data has not been
        // captured yet: stall until it drains / the data arrives.
        ++hot.partialBlocks;
        res.status = LoadExecResult::Status::BlockedPartial;
        return res;
    }

    res.value = committed.read(load.addr, load.size);
    return res;
}

void
LoadStoreUnit::storeDataReady(DynInst &store)
{
    refreshSqMirror(store);
    // No buffer insertion: the best-effort buffers front the cache
    // banks and hold *committed* stores only (see commitStore).
    // Inserting speculative values here would let a load pick up a
    // younger store's data — a future-value hazard SVW's older-store
    // window cannot detect.
}

InstSeqNum
LoadStoreUnit::storeResolved(DynInst &store)
{
    refreshSqMirror(store);
    if (prm.nlq)
        return 0;  // no LQ CAM; re-execution checks ordering

    // Associative LQ search: oldest younger load that already issued
    // with an overlapping address is a memory-ordering violation.
    ++hot.lqSearches;
    for (std::size_t i = lqHead; i < lq.size(); ++i) {
        DynInst *ld = lq[i];
        if (ld->seq <= store.seq)
            continue;
        if (!ld->issued || !ld->addrResolved)
            continue;
        // A load that forwarded from a store younger than (or equal to)
        // this one is not vulnerable to it.
        if (ld->forwarded && ld->fwdStoreSSN >= store.ssn)
            continue;
        if (rangesOverlap(store.addr, store.size, ld->addr, ld->size)) {
            // Optional value-aware search (section 2.2): a silent store
            // whose covered bytes equal what the load already read is
            // no violation.
            if (prm.lqValueCheck && store.dataResolved &&
                rangeContains(store.addr, store.size, ld->addr,
                              ld->size) &&
                extractForward(store, *ld) == ld->loadValue) {
                continue;
            }
            ++hot.lqViolations;
            return ld->seq;
        }
    }
    return 0;
}

} // namespace svw
