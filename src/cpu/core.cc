#include "cpu/core.hh"

#include <algorithm>

#include "base/logging.hh"
#include "base/profile.hh"

namespace svw {

Core::Core(const CoreParams &p, const Program &program,
           stats::StatRegistry &reg)
    : retired(reg, "core.retired", "instructions retired"),
      retiredLoads(reg, "core.retiredLoads", "loads retired"),
      retiredStores(reg, "core.retiredStores", "stores retired"),
      retiredBranches(reg, "core.retiredBranches",
                      "conditional branches retired"),
      cyclesStat(reg, "core.cycles", "cycles simulated"),
      branchSquashes(reg, "core.branchSquashes", "control mispredictions"),
      orderingSquashes(reg, "core.orderingSquashes",
                       "LQ-search ordering violations"),
      rexFlushes(reg, "core.rexFlushes", "re-execution mismatch flushes"),
      loadsEliminatedRetired(reg, "core.loadsEliminatedRetired",
                             "retired loads that were RLE-eliminated"),
      elimReuseRetired(reg, "core.elimReuseRetired",
                       "retired eliminations via load reuse"),
      elimBypassRetired(reg, "core.elimBypassRetired",
                        "retired eliminations via memory bypassing"),
      fsqLoadsRetired(reg, "core.fsqLoadsRetired",
                      "retired loads steered to the FSQ"),
      wrapDrainCycles(reg, "core.wrapDrainCycles",
                      "cycles dispatch stalled for SSN wrap drains"),
      invalidationsSeen(reg, "core.invalidationsSeen",
                        "external invalidations observed"),
      ckptRestores(reg, "core.ckptRestores",
                   "squashes recovered from a rename checkpoint"),
      ckptWalks(reg, "core.ckptWalks",
                "squashes recovered by the youngest-first walk"),
      prm(p),
      prog(program),
      mem(p.mem, reg),
      bpred(p.bpred, reg),
      rename(p.numPhysRegs, p.renameCheckpoints,
             // Journal capacity: one definition per in-flight
             // instruction plus one hygiene marker per in-flight load
             // (RLE checkpoint recovery).
             2 * p.robEntries),
      rob(p.robEntries),
      iq(p.iqEntries),
      svw(p.svw, reg),
      lsu(p.lsu, committedMem, svw, reg),
      rex(p.rex, committedMem, svw, dcachePort, reg),
      rle(p.rle, reg),
      storeSets(4096, 256, reg),
      spct(512, 8),
      dcachePort(p.dcachePorts),
      storeIssuePorts(p.lsu.storeIssueWidth),
      hygieneJournalOn(p.rle.enabled && p.renameCheckpoints > 0),
      fetchPc(program.entry()),
      fetchQueue(static_cast<std::size_t>(p.frontendDepth + 1) *
                 p.fetchWidth),
      fetchColds(static_cast<std::size_t>(p.frontendDepth + 1) *
                 p.fetchWidth)
{
    preText = prog.predecoded().data();
    committedMem.loadProgram(program);
    rename.regs().setValue(rename.map(regSp), program.stackTop());
    for (unsigned b = 0; b < p.mem.l1dBanks; ++b)
        loadBankPorts.emplace_back(1);
    archMap.fill(0);
    for (RegIndex a = 0; a < numArchRegs; ++a)
        archMap[a] = rename.map(a);

    retired.bind(&hot.retired);
    retiredLoads.bind(&hot.retiredLoads);
    retiredStores.bind(&hot.retiredStores);
    retiredBranches.bind(&hot.retiredBranches);
    cyclesStat.bind(&hot.cycles);
    branchSquashes.bind(&hot.branchSquashes);
    orderingSquashes.bind(&hot.orderingSquashes);
    rexFlushes.bind(&hot.rexFlushes);
    loadsEliminatedRetired.bind(&hot.loadsEliminatedRetired);
    elimReuseRetired.bind(&hot.elimReuseRetired);
    elimBypassRetired.bind(&hot.elimBypassRetired);
    fsqLoadsRetired.bind(&hot.fsqLoadsRetired);
    wrapDrainCycles.bind(&hot.wrapDrainCycles);
    invalidationsSeen.bind(&hot.invalidationsSeen);
    ckptRestores.bind(&hot.ckptRestores);
    ckptWalks.bind(&hot.ckptWalks);
}

std::uint64_t
Core::archReg(RegIndex a) const
{
    return rename.regs().value(archMap[a]);
}

RunOutcome
Core::run(std::uint64_t maxInsts, std::uint64_t maxCycles)
{
    while (!haltCommitted && retired.value() < maxInsts &&
           now < maxCycles) {
        tick();
    }
    RunOutcome out;
    out.halted = haltCommitted;
    out.cycles = now;
    out.instructions = retired.value();
    return out;
}

void
Core::tick()
{
    if (stageProf) {
        tickProfiled();
        return;
    }
    if (perCycleHook)
        perCycleHook(*this);
    commitStage();
    rex.tick(rob, rename, now);
    completeStage();
    issueStage();
    dispatchStage();
    fetchStage();
    ++now;
    ++hot.cycles;
}

void
Core::tickProfiled()
{
    // Same stage sequence as tick(), with a monotonic-clock read at
    // each boundary. Host-side observation only: no simulated state
    // depends on the readings, so cycles and metrics are bit-identical
    // to the unprofiled body.
    prof::StageTimes &st = *stageProf;
    if (perCycleHook)
        perCycleHook(*this);
    std::uint64_t t = prof::nowNs(), u;
    commitStage();
    u = prof::nowNs(); st.ns[prof::Commit] += u - t; t = u;
    rex.tick(rob, rename, now);
    u = prof::nowNs(); st.ns[prof::Rex] += u - t; t = u;
    completeStage();
    u = prof::nowNs(); st.ns[prof::Complete] += u - t; t = u;
    issueStage();
    u = prof::nowNs(); st.ns[prof::Issue] += u - t; t = u;
    dispatchStage();
    u = prof::nowNs(); st.ns[prof::Dispatch] += u - t; t = u;
    fetchStage();
    u = prof::nowNs(); st.ns[prof::Fetch] += u - t;
    ++st.ticks;
    ++now;
    ++hot.cycles;
}

// --------------------------------------------------------------------
// Complete: results arriving this cycle; branch resolution.
// --------------------------------------------------------------------

void
Core::drainCompletions()
{
    completionQueue.drain(now, [this](InstSeqNum seq) {
        DynInst *inst = rob.findBySeq(seq);
        if (!inst)
            return;  // squashed
        inst->completed = true;
        if (tracer)
            tracer->event(now, TraceEvent::Complete, *inst);
        if (inst->isCtrl())
            finishBranch(*inst);
    });
}

void
Core::completeStage()
{
    if (stageProf) {
        const std::uint64_t t0 = prof::nowNs();
        drainCompletions();
        stageProf->ns[prof::WheelAdvance] += prof::nowNs() - t0;
    } else {
        drainCompletions();
    }

    // Stores whose address issued early capture data as it arrives.
    for (std::size_t i = 0; i < storesAwaitingData.size();) {
        DynInst *st = rob.findBySeq(storesAwaitingData[i]);
        if (!st) {
            storesAwaitingData[i] = storesAwaitingData.back();
            storesAwaitingData.pop_back();
            continue;
        }
        if (rename.regs().isReady(st->prs2, now)) {
            captureStoreData(*st);
            storesAwaitingData[i] = storesAwaitingData.back();
            storesAwaitingData.pop_back();
            continue;
        }
        ++i;
    }

    // Eliminated instructions complete when their shared register does.
    for (std::size_t i = 0; i < elimPending.size();) {
        DynInst *inst = rob.findBySeq(elimPending[i]);
        if (!inst) {
            elimPending[i] = elimPending.back();
            elimPending.pop_back();
            continue;
        }
        if (rename.regs().isReady(inst->prd, now)) {
            inst->completed = true;
            inst->completeCycle = now;
            elimPending[i] = elimPending.back();
            elimPending.pop_back();
            continue;
        }
        ++i;
    }
}

void
Core::captureStoreData(DynInst &store)
{
    store.storeData = srcVal(store.prs2);
    store.dataResolved = true;
    store.completeCycle = now + 1;
    completionQueue.schedule(now, now + 1, store.seq);
    lsu.storeDataReady(store);
}

void
Core::finishBranch(DynInst &inst)
{
    if (inst.actualNextPc == inst.predNextPc)
        return;
    inst.mispredicted = true;
    ++hot.branchSquashes;
    if (inst.isIndirectCtrl())
        bpred.btbUpdate(inst.pc, inst.actualNextPc);
    squashAfter(inst.seq, inst.actualNextPc, &inst);
}

// --------------------------------------------------------------------
// Issue: age-ordered scan of the issue queue.
// --------------------------------------------------------------------

void
Core::issueStage()
{
    // Fire this cycle's recorded sleep expiries; the scan then visits
    // only awake slots. A visit outcome is identical to the full
    // screened walk's — sleeping entries are skipped either way, and
    // the wake conditions (value-arrival cycle, producer issue) are
    // exact — so the scan is O(awake) instead of O(queue) per cycle
    // with bit-identical issue decisions.
    iq.drainWakes(now);

    unsigned globalUsed = 0;
    unsigned intUsed = 0, loadUsed = 0, storeUsed = 0, branchUsed = 0;
    const unsigned storeWidth = prm.lsu.storeIssueWidth;

    // On an unready gating source, record what the entry waits for in
    // its own slot — the cycle the value arrives (producer issued,
    // readyAt known) or the blocking register itself (producer not
    // issued yet; wakes exactly at that producer's issue). The failed
    // wakeup check reads and writes only the IQ entry, never the
    // DynInst.
    auto entryBlocked = [&](IssueQueue::Entry &e, PhysRegIndex p) {
        if (rename.regs().isReady(p, now))
            return false;
        const Cycle r = rename.regs().readyAt(p);
        if (r == notReady) {
            e.sleepReg = p;
            e.sleepRetry = 0;
        } else {
            e.sleepRetry = r;
            e.sleepReg = invalidPhysReg;
        }
        return true;
    };

    // In-place oldest-first scan: issue tombstones the slot under the
    // scan (indices never shift mid-cycle; squash only pops the young
    // suffix, and the scan breaks right after any squash). Sleep state,
    // issue class, and the gating renamed sources are read from the
    // compact IQ entry mirror; the DynInst itself is touched only when
    // every register gate passes and the entry might really issue.
    // nextAwake reads the live bitmap, so consumers woken by an issue
    // earlier in this very scan (always at higher slots: age order)
    // are visited this cycle, exactly like the full walk.
    for (std::size_t idx = iq.nextAwake(0); idx != IssueQueue::npos;
         idx = iq.nextAwake(idx + 1)) {
        if (globalUsed >= prm.issueWidth)
            break;
        if (intUsed >= prm.intIssue && loadUsed >= prm.loadIssue &&
            storeUsed >= storeWidth && branchUsed >= prm.branchIssue) {
            break;  // every class cap saturated: nothing more can issue
        }
        IssueQueue::Entry &e = iq.slotRef(idx);
        if (!e.inst)
            continue;  // tombstone
        if (e.sleepRetry > now) {
            // Spuriously woken (stale record): value still in flight;
            // go back to sleep on the recorded arrival cycle.
            iq.noteAsleep(idx, now);
            continue;
        }
        if (e.sleepReg != invalidPhysReg &&
            rename.regs().readyAt(e.sleepReg) == notReady) {
            // Spuriously woken: the blocking source's producer is
            // still unissued; re-arm on that register.
            iq.noteAsleep(idx, now);
            continue;
        }
        // A capped class would fail tryIssue's first check; skip the
        // call (and the DynInst access) outright.
        switch (e.clsGroup) {
          case IssueQueue::ClsInt:
            if (intUsed >= prm.intIssue)
                continue;
            break;
          case IssueQueue::ClsBranch:
            if (branchUsed >= prm.branchIssue)
                continue;
            break;
          case IssueQueue::ClsLoad:
            if (loadUsed >= prm.loadIssue)
                continue;
            break;
          case IssueQueue::ClsStore:
            if (storeUsed >= storeWidth)
                continue;
            break;
        }
        // Source-readiness gates, evaluated on the entry's prs1/prs2
        // mirrors: a blocked source records its sleep state above and
        // leaves the bitmap with its exact wake armed, the DynInst
        // untouched.
        if ((e.gates & IssueQueue::GateRs1) && entryBlocked(e, e.prs1)) {
            iq.noteAsleep(idx, now);
            continue;
        }
        if ((e.gates & IssueQueue::GateRs2) && entryBlocked(e, e.prs2)) {
            iq.noteAsleep(idx, now);
            continue;
        }
        DynInst *inst = e.inst;
        if (inst->issued)
            continue;
        const std::uint64_t squashesBefore =
            hot.branchSquashes + hot.orderingSquashes;
        if (tryIssue(*inst, intUsed, loadUsed, storeUsed, branchUsed)) {
            ++globalUsed;
            iq.removeAt(idx);
            if (tracer)
                tracer->event(now, TraceEvent::Issue, *inst);
        }
        // Every register gate passed, so a failure has no recorded
        // wake (port conflict, store-set wait, partial overlap): the
        // entry keeps its awake bit and is re-polled every cycle.
        // A store issue may have triggered an ordering squash that
        // invalidated the scan; stop for this cycle.
        if (hot.branchSquashes + hot.orderingSquashes != squashesBefore)
            break;
    }
}

bool
Core::tryIssue(DynInst &inst, unsigned &intUsed, unsigned &loadUsed,
               unsigned &storeUsed, unsigned &branchUsed)
{
    const StaticInst &si = *inst.si;

    switch (inst.cls()) {
      case InstClass::IntAlu:
      case InstClass::IntMul: {
        if (intUsed >= prm.intIssue)
            return false;
        if (inst.readsRs1() && !srcReady(inst.prs1))
            return false;
        if (inst.readsRs2() && !srcReady(inst.prs2))
            return false;
        const std::uint64_t r = evalAluOp(inst.opc(), si.imm,
                                          srcVal(inst.prs1),
                                          srcVal(inst.prs2), inst.pc);
        const Cycle done = now + inst.execLatency();
        if (inst.writesReg()) {
            rename.regs().setValue(inst.prd, r);
            noteReadyAt(inst.prd, done);
        }
        inst.issued = true;
        inst.completeCycle = done;
        completionQueue.schedule(now, done, inst.seq);
        ++intUsed;
        return true;
      }

      case InstClass::Branch:
      case InstClass::Jump:
      case InstClass::JumpReg: {
        if (branchUsed >= prm.branchIssue)
            return false;
        if (inst.readsRs1() && !srcReady(inst.prs1))
            return false;
        if (inst.readsRs2() && !srcReady(inst.prs2))
            return false;
        if (inst.isCondBranch()) {
            inst.actualTaken = evalBranchTakenOp(inst.opc(),
                                                 srcVal(inst.prs1),
                                                 srcVal(inst.prs2));
            inst.actualNextPc = inst.actualTaken
                ? static_cast<std::uint32_t>(si.imm) : inst.pc + 1;
        } else if (inst.isDirectCtrl()) {
            inst.actualNextPc = static_cast<std::uint32_t>(si.imm);
            if (inst.isCall()) {
                rename.regs().setValue(inst.prd, inst.pc + 1);
                noteReadyAt(inst.prd, now + 1);
            }
        } else {
            inst.actualNextPc =
                static_cast<std::uint32_t>(srcVal(inst.prs1));
        }
        inst.issued = true;
        inst.completeCycle = now + 1;
        completionQueue.schedule(now, now + 1, inst.seq);
        ++branchUsed;
        return true;
      }

      case InstClass::Load: {
        if (loadUsed >= prm.loadIssue)
            return false;
        if (!srcReady(inst.prs1))
            return false;
        // Store-sets: wait for the predicted-conflicting store.
        if (inst.storeSetDep != 0) {
            DynInst *dep = rob.findBySeq(inst.storeSetDep);
            if (dep && !dep->addrResolved)
                return false;
        }
        inst.addr = effectiveAddr(si, srcVal(inst.prs1));
        const unsigned bank = mem.dataBank(inst.addr);
        if (loadBankPorts[bank].freeSlots(now) == 0)
            return false;
        issueLoad(inst);
        if (!inst.issued)
            return false;  // blocked (partial overlap / FSQ port)
        loadBankPorts[bank].tryClaim(now);
        ++loadUsed;
        return true;
      }

      case InstClass::Store: {
        // Stores issue (generate their address, search the LQ) as soon
        // as the base register is ready; the data is captured whenever
        // it arrives. Early address resolution is what keeps the NLQ
        // ambiguous-store windows short.
        if (storeUsed >= prm.lsu.storeIssueWidth)
            return false;
        if (!srcReady(inst.prs1))
            return false;
        if (inst.storeSetDep != 0) {
            DynInst *dep = rob.findBySeq(inst.storeSetDep);
            if (dep && !dep->addrResolved)
                return false;
        }
        issueStore(inst);
        ++storeUsed;
        return true;
      }

      default:
        svw_panic("unexpected class in IQ");
    }
}

void
Core::issueLoad(DynInst &load)
{
    LoadExecResult res;
    if (stageProf) {
        const std::uint64_t t0 = prof::nowNs();
        res = lsu.executeLoad(load, now);
        stageProf->ns[prof::LsuSearch] += prof::nowNs() - t0;
    } else {
        res = lsu.executeLoad(load, now);
    }
    if (res.status != LoadExecResult::Status::Done)
        return;  // retry next cycle

    load.issued = true;
    load.addrResolved = true;
    load.loadValue = res.value;
    load.specExecuted = res.sawAmbiguousOlderStore || res.bestEffort;

    // NLQ-LS marking: issued in the presence of older ambiguous stores.
    if (nlq::shouldMarkLoad(prm.lsu.nlq, res))
        load.rexReasons |= RexNlqSpec;

    Cycle done;
    if (res.forwarded) {
        done = now + mem.l1dLatency() + prm.lsu.loadExtraLatency;
    } else {
        done = mem.accessData(load.addr, false, now) +
            prm.lsu.loadExtraLatency;
    }
    load.completeCycle = done;
    if (load.writesReg()) {
        rename.regs().setValue(load.prd, load.loadValue);
        noteReadyAt(load.prd, done);
    }
    completionQueue.schedule(now, done, load.seq);
}

void
Core::issueStore(DynInst &store)
{
    store.addr = effectiveAddr(*store.si, srcVal(store.prs1));
    store.addrResolved = true;
    store.issued = true;
    storeSets.storeResolved(store.pc, store.seq);

    if (srcReady(store.prs2)) {
        captureStoreData(store);
    } else {
        storesAwaitingData.push_back(store.seq);
    }

    InstSeqNum victim;
    if (stageProf) {
        const std::uint64_t t0 = prof::nowNs();
        victim = lsu.storeResolved(store);
        stageProf->ns[prof::LsuSearch] += prof::nowNs() - t0;
    } else {
        victim = lsu.storeResolved(store);
    }
    if (victim != 0) {
        // Associative LQ search found a premature load: flush at the
        // load and train store-sets with the exact store-load pair.
        DynInst *load = rob.findBySeq(victim);
        svw_assert(load, "violating load vanished");
        ++hot.orderingSquashes;
        storeSets.train(store.pc, load->pc);
        const std::uint64_t loadPc = load->pc;
        squashAfter(victim - 1, loadPc, nullptr);
    }
}

// --------------------------------------------------------------------
// Dispatch: rename, allocate, RLE integration, SSN/SVW assignment.
// --------------------------------------------------------------------

void
Core::dispatchStage()
{
    if (drainPending) {
        ++hot.wrapDrainCycles;
        if (rob.empty()) {
            svw.wrapClear();
            rle.wrapClear(rename);
            svw.ssn().ackWrap();
            drainPending = false;
        } else {
            return;
        }
    }

    unsigned n = 0;
    while (n < prm.dispatchWidth && !fetchQueue.empty()) {
        DynInst &head = fetchQueue.front();
        if (head.fetchReadyCycle > now)
            break;
        if (!dispatchOne(head, fetchColds.front()))
            break;
        fetchQueue.pop_front();
        fetchColds.pop_front();
        ++n;
    }
}

bool
Core::dispatchOne(DynInst &d, const DynInstCold &cold)
{
    const StaticInst &si = *d.si;

    // ---- resource checks (no state change before all pass) ----------
    if (rob.full())
        return false;
    const bool trivial = d.cls() == InstClass::Nop ||
        d.cls() == InstClass::Halt;
    if (!trivial && iq.full())
        return false;
    if (d.isLoad() && lsu.lqFull())
        return false;
    if (d.isStore()) {
        if (lsu.sqFull())
            return false;
        if (lsu.fsqFullFor(d)) {
            ++lsu.fsqAllocStalls;
            return false;
        }
        if (svw.ssn().nextAssignWraps()) {
            drainPending = true;
            return false;
        }
    }

    // ---- rename sources ----------------------------------------------
    d.prs1 = rename.map(si.rs1);
    d.prs2 = rename.map(si.rs2);

    // ---- RLE integration -----------------------------------------------
    bool integrated = false;
    if (rle.enabled() && d.writesReg()) {
        if (auto integ = rle.tryIntegrate(si, d.prs1, d.prs2, rename)) {
            integrated = true;
            d.eliminated = true;
            d.elimFromSquash = integ->fromSquash;
            d.elimFromBypass = integ->fromStore;
            d.prd = integ->dst;
            rename.addRef(d.prd);
            d.prevPrd = rename.map(si.rd);
            rename.speculativeDef(si.rd, d.prd);
            if (d.isLoad()) {
                d.rexReasons |= RexRleElim;
                // Section 3.4: the window starts at the IT entry,
                // ld.SVW = IT-ENTRY.SSN. Only when NLQ-SM is active does
                // section 3.5's composition with SSNRETIRE apply
                // (eliminated loads stay subject to invalidations).
                d.svw = prm.nlqsm
                    ? SvwUnit::composeSvw(integ->ssn, svw.svwAtDispatch())
                    : integ->ssn;
                d.svwValid = !integ->fromSquash;
            }
        }
    }

    if (!integrated && d.writesReg()) {
        if (!rename.hasFreeReg() && !rle.relievePressure(rename))
            return false;
        if (!rename.hasFreeReg())
            return false;
        d.prevPrd = rename.map(si.rd);
        d.prd = rename.alloc();
        rename.speculativeDef(si.rd, d.prd);
    }

    // ---- squash-hygiene marker for checkpoint recovery ------------------
    // On RLE cores the youngest-first walk inspects every squashed load
    // for IT invalidation; journal a marker right after the load's own
    // definition so a checkpoint replay performs the same check at the
    // same point (RenameState::restoreCheckpoint).
    if (hygieneJournalOn && d.isLoad() && !d.eliminated)
        rename.journalSquashHygiene(d.seq);

    // ---- recovery checkpoint at low-confidence control ------------------
    // Taken after this instruction's own definition so the snapshot is
    // exactly the state a squash keeping d.seq must restore. Pure
    // host-side recovery machinery; never affects timing.
    if (d.isCtrl() && d.predLowConf)
        d.ckptTag = rename.takeCheckpoint(d.seq, cold.bpredSnap);

    // ---- class-specific dispatch ---------------------------------------
    if (d.isStore()) {
        d.ssn = svw.ssn().assign();
        d.storeSetDep = storeSets.storeDispatched(d.pc, d.seq);
    } else if (d.isLoad() && !d.eliminated) {
        d.svw = svw.svwAtDispatch();
        d.svwValid = true;
        if (prm.lsu.ssq)
            d.rexReasons |= RexSsqAll;
        d.storeSetDep = storeSets.loadDependency(d.pc);
        if (prm.rex.svwReplacesReExecution) {
            auto it = replaceFlushStreak.find(d.pc);
            if (it != replaceFlushStreak.end() &&
                it->second >= replaceStreakLimit) {
                d.forceRealRex = true;
            }
        }
    }

    if (trivial) {
        d.completed = true;
        d.issued = true;
        d.completeCycle = now;
    }

    d.dispatched = true;
    DynInst &r = rob.push(std::move(d), cold);
    if (tracer)
        tracer->event(now, TraceEvent::Dispatch, r);

    if (r.isLoad())
        lsu.dispatchLoad(r);
    else if (r.isStore())
        lsu.dispatchStore(r);

    if (r.eliminated) {
        elimPending.push_back(r.seq);
    } else {
        if (!trivial) {
            iq.insert(&r);
        }
        if (rle.enabled()) {
            rle.createEntry(r, rename, svw.ssn().ssnRename(),
                            r.isStore() ? r.ssn : 0);
        }
    }
    return true;
}

// --------------------------------------------------------------------
// Squash.
// --------------------------------------------------------------------

void
Core::squashAfter(InstSeqNum keepSeq, std::uint64_t newFetchPc,
                  const DynInst *replay)
{
    // Checkpoints younger than the squash point snapshot wrong-path
    // state; drop them before looking for a covering one. With a tracer
    // attached the walk must run anyway (it emits the Squash events), so
    // the checkpoint is ignored — recovered state is identical either
    // way.
    rename.discardCheckpointsAfter(keepSeq);
    // A resolving branch finds its checkpoint through the tag it was
    // handed at dispatch; non-branch squash points can only match the
    // pool's youngest survivor.
    const RenameCheckpoint *ckpt = nullptr;
    if (!tracer) {
        ckpt = replay ? rename.checkpointByTag(replay->ckptTag, keepSeq)
                      : rename.findCheckpoint(keepSeq);
    }

    // ---- branch predictor state repair --------------------------------
    if (replay) {
        // On a checkpoint hit the pooled snapshot is the same fetch-time
        // state the replay instruction carries (wired by checkpoint tag
        // at dispatch); otherwise read it from the instruction's cold
        // side-record.
        bpred.restore(ckpt ? ckpt->bpred : rob.cold(*replay).bpredSnap);
        if (replay->isCondBranch())
            bpred.speculativeUpdate(replay->actualTaken);
        if (replay->isCall())
            bpred.rasPush(replay->pc + 1);
        if (replay->isIndirectCtrl() && replay->si->rs1 == regLink)
            bpred.rasPop();
    } else {
        if (const DynInst *oldest = rob.lowerBound(keepSeq + 1))
            bpred.restore(rob.cold(*oldest).bpredSnap);
        else if (!fetchQueue.empty())
            bpred.restore(fetchColds.front().bpredSnap);
    }

    // ---- IT entries of squashed creators become squash-reusable -------
    rle.onSquash(keepSeq, rename);

    if (ckpt) {
        // The store-set LFST claims of squashed stores must still be
        // released one by one; the squashed stores are exactly the SQ's
        // age-ordered suffix, released youngest-first like the walk.
        const auto &sq = lsu.storeQueue();
        for (std::size_t i = sq.size(); i-- > 0 && sq[i]->seq > keepSeq;)
            storeSets.storeSquashed(sq[i]->pc, sq[i]->seq);
    }

    // ---- pointer-holder prune precedes ROB pops (IQ, LSU queues, and
    //      the rex store buffer all hold ROB slot pointers) -------------
    iq.squashAfter(keepSeq);
    lsu.squashAfter(keepSeq);
    rex.squashAfter(keepSeq);

    if (ckpt) {
        // ---- checkpoint recovery: map snapshot + journal replay -------
        // Hygiene markers in the journal suffix re-run the walk's
        // squashed-speculative-load check (see below) at the exact
        // replay position the walk would, so IT state and free-list
        // order come out bit-identical. No-op closure on non-RLE cores
        // (no markers are journaled).
        rename.restoreCheckpoint(*ckpt, [this](InstSeqNum seq) {
            DynInst *t = rob.findBySeq(seq);
            if (t && t->issued && !t->eliminated &&
                (t->specExecuted || t->forwarded)) {
                rle.onSquashedSpeculativeLoad(*t, rename);
            }
        });
        rob.squashTail(keepSeq);
        ++hot.ckptRestores;
    } else {
        // ---- fallback: youngest-first walk ----------------------------
        ++hot.ckptWalks;
        while (!rob.empty() && rob.tail().seq > keepSeq) {
            DynInst &t = rob.tail();
            if (tracer)
                tracer->event(now, TraceEvent::Squash, t);
            // Squash-reuse hygiene: a load that executed speculatively or
            // forwarded from an in-flight (now squashed) store holds a
            // value the correct path may never see; kill its IT entry
            // rather than offering it for reuse. This is exactly the
            // "forwarding store exists on the squashed path but not the
            // correct path" corner case of section 4.3.
            if (t.isLoad() && t.issued && !t.eliminated &&
                (t.specExecuted || t.forwarded)) {
                rle.onSquashedSpeculativeLoad(t, rename);
            }
            if (t.writesReg())
                rename.undoLastDef();
            if (t.isStore())
                storeSets.storeSquashed(t.pc, t.seq);
            rob.popTail();
        }
    }

    // ---- SSN allocation rollback ----------------------------------------
    SSN lastSsn = svw.ssn().retired();
    if (const DynInst *st = lsu.youngestStore())
        lastSsn = st->ssn;
    svw.ssn().rollbackTo(lastSsn);

    // ---- front end redirect ----------------------------------------------
    fetchQueue.clear();
    fetchColds.clear();
    fetchPc = newFetchPc;
    fetchStopped = newFetchPc >= prog.textSize();
    fetchResumeCycle = now + prm.mispredictRedirect;
    lastFetchLine = ~Addr(0);
    drainPending = false;
}

// --------------------------------------------------------------------
// External (other-agent) store: the NLQ-SM stimulus.
// --------------------------------------------------------------------

void
Core::externalStore(Addr addr, unsigned size, std::uint64_t value)
{
    ++hot.invalidationsSeen;
    committedMem.write(addr, size, value);
    const unsigned lineBytes = mem.lineBytes();
    const Addr firstLine = alignDownAddr(addr, lineBytes);
    const Addr lastLine = alignDownAddr(addr + size - 1, lineBytes);
    for (Addr line = firstLine; line <= lastLine; line += lineBytes) {
        mem.invalidateLine(line);
        svw.invalidation(line, lineBytes);
    }
    if (prm.nlqsm) {
        // NLQ-SM: every load in the window at invalidation time must
        // re-execute (identified in hardware by remembering the LQ tail).
        for (DynInst &inst : rob) {
            if (inst.isLoad() && !inst.rexSvwStageDone)
                inst.rexReasons |= RexNlqSm;
        }
    }
}

} // namespace svw
