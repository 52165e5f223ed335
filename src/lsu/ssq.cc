/**
 * @file
 * SSQ execution path (Figure 2c): steered loads search the small FSQ
 * (one port); everything else takes its chances with the per-bank
 * best-effort forwarding buffer or the cache. All SSQ loads are marked
 * for re-execution, which is what makes the speculation safe.
 */

#include "base/intmath.hh"
#include "lsu/lsu.hh"

namespace svw {

LoadExecResult
LoadStoreUnit::searchSsq(DynInst &load, Cycle now)
{
    LoadExecResult res;

    if (load.fsqLoad) {
        // One FSQ search per cycle. A port-blocked load retries next
        // cycle and its result is discarded, so it is turned away
        // before any search work.
        if (now != fsqPortCycle) {
            fsqPortCycle = now;
            fsqPortUsed = 0;
        }
        if (fsqPortUsed >= prm.fsqPorts) {
            res.status = LoadExecResult::Status::BlockedPort;
            return res;
        }
        ++fsqPortUsed;
    }

    // Note ambiguous older stores for statistics/NLQ composition; the
    // SSQ itself marks every load regardless. Read from the dense SQ
    // mirror (addrOk is refreshed whenever a store's address resolves).
    for (std::size_t i = sqHead; i < sqm.size(); ++i) {
        if (sqm[i].seq > load.seq)
            break;
        if (!sqm[i].addrOk) {
            res.sawAmbiguousOlderStore = true;
            break;
        }
    }

    if (load.fsqLoad) {

        // Youngest-first search of FSQ stores older than the load.
        for (auto it = fsq.rbegin(); it != fsq.rend(); ++it) {
            DynInst *st = *it;
            if (st->seq > load.seq)
                continue;
            if (!st->addrResolved)
                continue;
            if (!rangesOverlap(st->addr, st->size, load.addr, load.size))
                continue;
            if (rangeContains(st->addr, st->size, load.addr, load.size) &&
                st->dataResolved) {
                ++hot.fsqForwards;
                res.forwarded = true;
                res.fwdSsn = st->ssn;
                res.value = extractForward(*st, load);
                return res;
            }
            ++hot.partialBlocks;
            res.status = LoadExecResult::Status::BlockedPartial;
            return res;
        }
        // Steered but no FSQ producer: fall through to the cache.
        res.value = committed.read(load.addr, load.size);
        return res;
    }

    // Unsteered load: best-effort buffer at the target bank, newest
    // entry first. Exact address/size match required; the entry is not
    // guaranteed to be the architecturally correct producer.
    const unsigned bank = static_cast<unsigned>(load.addr >> 6) & 1;
    const auto &buf = fwdBufs[bank];
    for (auto it = buf.rbegin(); it != buf.rend(); ++it) {
        if (it->addr == load.addr && it->size == load.size) {
            ++hot.bestEffortHits;
            res.forwarded = true;
            res.bestEffort = true;
            res.value = it->value;
            return res;
        }
    }
    res.value = committed.read(load.addr, load.size);
    return res;
}

} // namespace svw
