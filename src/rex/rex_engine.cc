#include "rex/rex_engine.hh"

#include <cstring>

#include "base/intmath.hh"
#include "base/logging.hh"

namespace svw {

RexEngine::RexEngine(const RexParams &p, MemoryImage &img, SvwUnit &s,
                     CyclePort &port, stats::StatRegistry &reg)
    : loadsMarked(reg, "rex.loadsMarked", "loads marked for re-execution"),
      loadsReExecuted(reg, "rex.loadsReExecuted",
                      "loads that performed a re-execution cache access"),
      loadsRexSkippedSvw(reg, "rex.loadsRexSkippedSvw",
                         "marked loads filtered out by SVW"),
      loadsRexFailed(reg, "rex.loadsRexFailed",
                     "re-executions with value mismatch (flush)"),
      portConflictStalls(reg, "rex.portConflictStalls",
                         "cycles rex stalled for the shared D$ port"),
      storeBufferStalls(reg, "rex.storeBufferStalls",
                        "cycles rex stalled on a full store buffer"),
      svwReplaceFlushes(reg, "rex.svwReplaceFlushes",
                        "flushes triggered by SSBF hits in replacement "
                        "mode (section 6)"),
      svwWindowStores(reg, "rex.svwWindowStores",
                      "per-marked-load vulnerability window (stores)",
                      0, 128, 16),
      prm(p),
      committed(img),
      svw(s),
      dcachePort(port)
{
    loadsMarked.bind(&hot.loadsMarked);
    loadsReExecuted.bind(&hot.loadsReExecuted);
    loadsRexSkippedSvw.bind(&hot.loadsRexSkippedSvw);
    loadsRexFailed.bind(&hot.loadsRexFailed);
    portConflictStalls.bind(&hot.portConflictStalls);
    storeBufferStalls.bind(&hot.storeBufferStalls);
    svwReplaceFlushes.bind(&hot.svwReplaceFlushes);
}

bool
RexEngine::rexReady(const DynInst &inst, const RenameState &rename,
                    Cycle now) const
{
    if (inst.isStore())
        return inst.addrResolved && inst.completed;
    if (inst.isLoad()) {
        if (inst.eliminated) {
            const PhysRegFile &f = rename.regs();
            return f.isReady(inst.prs1, now) && f.isReady(inst.prd, now);
        }
        return inst.completed;
    }
    return true;  // non-memory instructions do not flow through rex
}

void
RexEngine::tick(ROB &rob, RenameState &rename, Cycle now)
{
    if (!prm.enabled)
        return;

    unsigned budget = prm.width;
    while (budget > 0) {
        DynInst *inst = rob.lowerBound(rexNextSeq);
        if (!inst)
            return;
        svw_assert(inst->seq >= rexNextSeq, "rex pointer corrupt");

        if (!inst->isMem()) {
            inst->rexProcessed = true;
            rexNextSeq = inst->seq + 1;
            continue;  // free transit; no rex bandwidth consumed
        }

        if (!rexReady(*inst, rename, now))
            return;  // in-order stall at first non-completed mem op

        if (inst->isStore()) {
            if (storeBuffer.size() >= prm.storeBufferEntries) {
                ++hot.storeBufferStalls;
                return;
            }
            if (svw.config().speculativeSsbfUpdate)
                svw.storeUpdate(*inst);
            inst->rexProcessed = true;
            inst->rexDoneCycle = std::max(now + 1, pendingLoadRexMax);
            storeBuffer.push_back(inst);
            rexNextSeq = inst->seq + 1;
            --budget;
            continue;
        }

        // --- load ---
        DynInst &load = *inst;
        if (!load.marked()) {
            load.rexProcessed = true;
            load.rexDone = true;
            load.rexPassed = true;
            rexNextSeq = load.seq + 1;
            continue;
        }

        // Atomic (non-speculative) SSBF updates serialize the filter
        // test behind every older store's cache commit.
        if (svw.enabled() && !svw.config().speculativeSsbfUpdate &&
            !storeBuffer.empty()) {
            return;
        }

        if (!load.rexSvwStageDone) {
            ++hot.loadsMarked;
            --budget;
            load.rexSvwStageDone = true;

            // Eliminated loads read base address (and expected value)
            // from the register file in the elongated pipeline.
            if (load.eliminated) {
                load.addr = effectiveAddr(*load.si,
                                          rename.regs().value(load.prs1));
                load.addrResolved = true;
                load.loadValue = rename.regs().value(load.prd);
            }

            if (prm.perfect) {
                // Ideal re-execution: instant, no bandwidth.
                const std::uint64_t v = readRexValue(load);
                load.rexPassed = (v == load.loadValue);
                if (!load.rexPassed)
                    ++hot.loadsRexFailed;
                ++hot.loadsReExecuted;
                load.rexProcessed = true;
                load.rexDone = true;
                load.rexDoneCycle = now;
                rexNextSeq = load.seq + 1;
                continue;
            }

            if (svw.enabled() && load.svwValid) {
                // Window-size accounting (the paper's "5-15 stores").
                const SSN retired = svw.ssn().retired();
                if (retired >= load.svw)
                    svwWindowStores.sample(retired - load.svw);

                if (!svw.mustReExecute(load)) {
                    ++hot.loadsRexSkippedSvw;
                    load.rexProcessed = true;
                    load.rexDone = true;
                    load.rexPassed = true;
                    load.rexFiltered = true;
                    load.rexDoneCycle = now + 1;
                    rexNextSeq = load.seq + 1;
                    continue;
                }

                if (prm.svwReplacesReExecution && !load.forceRealRex) {
                    // Section 6: no verification access at all; an SSBF
                    // hit conservatively flushes the load.
                    ++hot.svwReplaceFlushes;
                    load.rexProcessed = true;
                    load.rexDone = true;
                    load.rexPassed = false;  // commit flushes at the load
                    load.rexDoneCycle = now + 1;
                    rexNextSeq = load.seq + 1;
                    continue;
                }
            }
            load.rexNeedsCache = true;
        }

        // Needs the cache: arbitrate for the shared port (store commit
        // claimed its slots earlier in the cycle).
        if (!dcachePort.tryClaim(now)) {
            ++hot.portConflictStalls;
            return;
        }
        reExecuteLoad(load, now);
        rexNextSeq = load.seq + 1;
    }
}

Cycle
RexEngine::idleUntil(const ROB &rob, const RenameState &rename, Cycle now,
                     bool &bufferStall) const
{
    constexpr Cycle never = ~Cycle(0);
    if (!prm.enabled)
        return never;
    const DynInst *inst = rob.lowerBound(rexNextSeq);
    if (!inst || !inst->isMem())
        return inst ? now : never;
    if (inst->isStore()) {
        if (!inst->addrResolved || !inst->completed)
            return never;
        if (storeBuffer.size() >= prm.storeBufferEntries) {
            bufferStall = true;
            return never;  // until a store commits
        }
        return now;
    }
    if (inst->eliminated) {
        const PhysRegFile &f = rename.regs();
        const Cycle ready = std::max(f.readyAt(inst->prs1),
                                     f.readyAt(inst->prd));
        if (ready > now)
            return ready;
    } else if (!inst->completed) {
        return never;
    }
    if (!inst->marked())
        return now;
    if (svw.enabled() && !svw.config().speculativeSsbfUpdate &&
        !storeBuffer.empty()) {
        return never;  // until the buffered stores commit
    }
    return now;
}

void
RexEngine::reExecuteLoad(DynInst &load, Cycle now)
{
    ++hot.loadsReExecuted;
    const std::uint64_t v = readRexValue(load);
    const unsigned extra = load.eliminated ? prm.regfileReadLatency : 0;
    load.rexProcessed = true;
    load.rexDone = true;
    load.rexPassed = (v == load.loadValue);
    load.rexDoneCycle = now + prm.cacheLatency + extra;
    if (!load.rexPassed)
        ++hot.loadsRexFailed;
    if (load.rexDoneCycle > pendingLoadRexMax)
        pendingLoadRexMax = load.rexDoneCycle;
}

std::uint64_t
RexEngine::readRexValue(const DynInst &load) const
{
    std::uint8_t buf[8] = {0};
    committed.readBytes(load.addr, buf, load.size);

    // Overlay older buffered (rex-passed, not yet committed) stores in
    // age order; they are the in-order memory state at this load.
    for (const DynInst *st : storeBuffer) {
        if (st->seq > load.seq)
            break;
        if (!rangesOverlap(st->addr, st->size, load.addr, load.size))
            continue;
        std::uint8_t sbuf[8];
        std::memcpy(sbuf, &st->storeData, 8);
        for (unsigned b = 0; b < st->size; ++b) {
            const Addr byteAddr = st->addr + b;
            if (byteAddr >= load.addr && byteAddr < load.addr + load.size)
                buf[byteAddr - load.addr] = sbuf[b];
        }
    }

    std::uint64_t v = 0;
    std::memcpy(&v, buf, 8);
    return v;
}

Cycle
RexEngine::storeCommitReadyCycle(const DynInst &store) const
{
    if (!prm.enabled)
        return 0;
    return store.rexDoneCycle;
}

void
RexEngine::storeCommitted(const DynInst &store)
{
    if (!prm.enabled)
        return;
    svw_assert(!storeBuffer.empty() &&
               storeBuffer.front()->seq == store.seq,
               "rex store buffer commit out of order");
    storeBuffer.pop_front();
    if (!svw.config().speculativeSsbfUpdate)
        svw.storeUpdate(store);
}

void
RexEngine::squashAfter(InstSeqNum keepSeq)
{
    while (!storeBuffer.empty() && storeBuffer.back()->seq > keepSeq)
        storeBuffer.pop_back();
    if (rexNextSeq > keepSeq + 1)
        rexNextSeq = keepSeq + 1;
}

} // namespace svw
