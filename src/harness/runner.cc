#include "harness/runner.hh"

#include "base/logging.hh"
#include "func/interp.hh"
#include "prog/workloads/workloads.hh"

namespace svw::harness {

namespace {

std::uint64_t
scalarValue(const stats::StatRegistry &reg, const std::string &name)
{
    const auto *s =
        dynamic_cast<const stats::Scalar *>(reg.find(name));
    svw_assert(s, "missing stat ", name);
    return s->value();
}

/** Extract a finished run's metrics from its stat registry. */
RunResult
extractRunResult(const RunRequest &req, const stats::StatRegistry &reg,
                 const RunOutcome &out)
{
    RunResult res;
    res.workload = req.workload;
    res.config = configLabel(req.config);
    res.halted = out.halted;
    res.cycles = out.cycles;
    res.insts = out.instructions;
    res.loads = scalarValue(reg, "core.retiredLoads");
    res.stores = scalarValue(reg, "core.retiredStores");
    res.ipc = res.cycles ? double(res.insts) / double(res.cycles) : 0.0;

    res.loadsMarked = scalarValue(reg, "rex.loadsMarked");
    res.loadsReExecuted = scalarValue(reg, "rex.loadsReExecuted");
    res.loadsFilteredBySvw = scalarValue(reg, "rex.loadsRexSkippedSvw");
    res.rexFlushes = scalarValue(reg, "core.rexFlushes");
    if (res.loads) {
        res.rexRate = 100.0 * double(res.loadsReExecuted) /
            double(res.loads);
        res.markedRate = 100.0 * double(res.loadsMarked) /
            double(res.loads);
        res.elimRate = 100.0 *
            double(scalarValue(reg, "core.loadsEliminatedRetired")) /
            double(res.loads);
        res.fsqLoadShare = 100.0 *
            double(scalarValue(reg, "core.fsqLoadsRetired")) /
            double(res.loads);
    }
    const std::uint64_t elim =
        scalarValue(reg, "core.loadsEliminatedRetired");
    if (elim) {
        res.bypassShare =
            double(scalarValue(reg, "core.elimBypassRetired")) /
            double(elim);
    }
    res.branchSquashes = scalarValue(reg, "core.branchSquashes");
    res.orderingSquashes = scalarValue(reg, "core.orderingSquashes");
    res.wrapDrains = scalarValue(reg, "svw.wrapDrains");

    if (!out.halted) {
        svw_warn("run did not halt: ", req.workload, " / ", res.config,
                 " after ", out.cycles, " cycles");
    }
    return res;
}

/** Compare against an interpreter advanced to out.instructions;
 * fatals (throws) on mismatch. */
void
goldenCompare(const RunRequest &req, const Core &core,
              const RunOutcome &out, const Interp &golden, RunResult &res)
{
    bool ok = true;
    for (RegIndex a = 0; a < numArchRegs && ok; ++a)
        ok = core.archReg(a) == golden.reg(a);
    if (ok)
        ok = core.memory().identicalTo(golden.memory());
    res.goldenOk = ok;
    if (!ok) {
        svw_fatal("golden-model mismatch: ", req.workload, " / ",
                  res.config, " after ", out.instructions,
                  " instructions");
    }
}

} // namespace

RunResult
runOne(const RunRequest &req)
{
    const Program prog = workloads::make(req.workload, req.targetInsts);
    return runOne(req, prog);
}

RunResult
runOne(const RunRequest &req, const Program &prog)
{
    const std::uint64_t cellT0 = req.profile ? prof::nowNs() : 0;
    prof::StageTimes stageTimes;

    stats::StatRegistry reg;
    CoreParams params = buildParams(req.config);
    Core core(params, prog, reg);
    if (req.hook)
        core.perCycleHook = req.hook;
    if (req.profile)
        core.setStageProfiler(&stageTimes);

    const std::uint64_t maxCycles =
        req.maxCycles ? req.maxCycles : 100 * req.targetInsts + 1'000'000;
    // Run to halt: every workload is sized by targetInsts already.
    RunOutcome out = core.run(~std::uint64_t(0), maxCycles);

    RunResult res = extractRunResult(req, reg, out);

    if (req.goldenCheck) {
        Interp golden(prog);
        golden.run(out.instructions);
        goldenCompare(req, core, out, golden, res);
    }
    if (req.profile) {
        for (unsigned s = 0; s < prof::NumStages; ++s)
            res.profStageNs[s] = stageTimes.ns[s];
        res.profTicks = stageTimes.ticks;
        res.profCellNs = prof::nowNs() - cellT0;
    }
    return res;
}

double
speedupPercent(const RunResult &base, const RunResult &test)
{
    svw_assert(base.workload == test.workload, "speedup across workloads");
    svw_assert(test.cycles != 0, "zero-cycle run");
    // Same program => same retired instruction count; %IPC improvement
    // reduces to a cycle ratio.
    return (double(base.cycles) / double(test.cycles) - 1.0) * 100.0;
}

} // namespace svw::harness
