/**
 * @file
 * In-process phases: cold figure passes, warm in-process sessions and
 * the per-cell layer probe, all through svw_core's public API.
 */

#include <mutex>
#include <set>

#include "bench.hh"
#include "func/interp.hh"
#include "harness/executor.hh"
#include "harness/figures.hh"
#include "harness/serialize.hh"
#include "harness/session.hh"

namespace perfbench {

using namespace svw;
using namespace svw::harness;

const std::vector<std::string> figureNames = {"fig5", "fig6", "fig7",
                                              "fig8"};

std::size_t
WarmOrder::next()
{
    if (at_ == cycle_.size()) {
        for (std::size_t i = cycle_.size(); i > 1; --i)
            std::swap(cycle_[i - 1], cycle_[rng_.nextBounded(i)]);
        at_ = 0;
    }
    return cycle_[at_++];
}

void
Tally::mismatch(const std::string &what)
{
    correct = false;
    if (problems.size() < 8)
        problems.push_back(what);
}

std::vector<SweepSpec>
figureSpecs()
{
    std::vector<SweepSpec> specs;
    for (const std::string &f : figureNames) {
        const FigureDef *def = findFigure(f);
        specs.push_back(def->build(def->paperSuite(), figureInsts));
    }
    return specs;
}

double
buildPrograms(const std::vector<SweepSpec> &specs)
{
    std::set<std::string> workloads;
    for (const SweepSpec &s : specs)
        for (const SweepCell &c : s.cells())
            workloads.insert(c.workload);
    ProgramCache cache;
    const double t0 = now();
    for (const std::string &w : workloads)
        cache.get(w, figureInsts);
    return now() - t0;
}

void
compareLines(const LineMap &want, const LineMap &got,
             const std::string &what, Tally &tally)
{
    for (const auto &[name, line] : want) {
        auto it = got.find(name);
        if (it == got.end())
            tally.mismatch(what + ": no result for " + name);
        else if (it->second != line)
            tally.mismatch(what + ": result differs for " + name);
    }
    if (got.size() != want.size())
        tally.mismatch(what + ": " + std::to_string(got.size()) +
                       " results, want " + std::to_string(want.size()));
}

Pass
runPass(const std::vector<SweepSpec> &specs, const SweepOptions &opts,
        Tally &tally, Spans &spans)
{
    Pass p;
    const std::uint64_t calls0 = runCellCalls();
    const double t0 = now();
    const std::string arm =
        opts.threads ? "harness.pass_par" : "harness.pass_seq";
    ScopedSpan passSpan(spans, arm);
    for (std::size_t f = 0; f < specs.size(); ++f) {
        SweepSession session(specs[f], opts);
        const std::string fig = figureNames[f];
        ScopedSpan figSpan(spans, "harness.session", passSpan.id(), f);

        std::mutex mu;  // pool Done events arrive from worker threads
        const double s0 = now();
        double firstDone = 0.0, unitStart = 0.0;
        std::size_t lanes = 0, landed = 0;
        std::vector<RunResult> results(specs[f].size());
        auto cb = [&](const CellEvent &ev) {
            std::lock_guard<std::mutex> lock(mu);
            if (ev.kind == CellEventKind::Started) {
                if (landed == lanes) {
                    unitStart = now();
                    lanes = landed = 0;
                }
                ++lanes;
                return;
            }
            const double t = now();
            if (firstDone == 0.0)
                firstDone = t - s0;
            ++tally.attempted;
            const std::string name = fig + "/" + ev.cell->name();
            if (!ev.outcome || !ev.outcome->ok ||
                !ev.outcome->result.goldenOk) {
                ++tally.failed;
                tally.mismatch("cell failed: " + name);
                return;
            }
            p.busy += ev.outcome->seconds;
            p.lines[name] = ev.resultLine;
            results[ev.index] = ev.outcome->result;
            if (lanes && ++landed == lanes) {
                p.unitTimes.push_back(t - unitStart);
                spans.add("harness.unit", unitStart, t, figSpan.id(),
                          ev.index);
            }
        };
        try {
            session.run(cb);
        } catch (const std::exception &e) {
            ++tally.failed;
            tally.mismatch(fig + " session threw: " + e.what());
        }
        p.figWall.push_back(now() - s0);
        p.figFirstDone.push_back(firstDone);
        p.results.insert(p.results.end(), results.begin(), results.end());
    }
    p.wall = now() - t0;
    p.cellsRun = runCellCalls() - calls0;
    return p;
}

void
warmInProcess(const Pass &ref, double seconds, std::uint64_t seed,
              WarmStats &w, Tally &tally, Spans &spans)
{
    const std::vector<SweepSpec> specs = figureSpecs();
    if (w.latency.empty()) {
        MemoryResultCache &mem = processMemoryResultCache();
        std::size_t k = 0;
        for (const SweepSpec &s : specs)
            for (const SweepCell &c : s.cells())
                mem.put(cellKey(c), ref.results.at(k++));
    }

    WarmOrder order(seed ^ 0x77a9 ^ w.latency.size());
    std::vector<std::string> got;
    const double burst = now();
    const double base = w.wall;
    while (now() < burst + seconds) {
        const std::size_t f = order.next();
        w.order += figureNames[f].back();
        const FigureDef *def = findFigure(figureNames[f]);
        SweepOptions opts;
        opts.memCache = true;
        got.clear();
        std::size_t hits = 0;
        ++tally.attempted;
        const std::uint64_t id = spans.open("harness.warm_session", 0,
                                            w.latency.size());
        const double t0 = now();
        {
            SweepSession session(def->build(def->paperSuite(), figureInsts),
                                 opts);
            session.run([&](const CellEvent &ev) {
                hits += ev.kind == CellEventKind::CachedHit;
                got.push_back(ev.resultLine);
            });
        }
        w.done(now() - t0, base + (now() - burst));
        spans.close(id);
        const SweepSpec &spec = specs[f];
        bool same = hits == spec.size() && got.size() == spec.size();
        for (std::size_t i = 0; same && i < spec.size(); ++i)
            same = got[i] == ref.lines.at(figureNames[f] + "/" +
                                          spec.cell(i).name());
        if (!same) {
            ++tally.failed;
            tally.mismatch("warm in-process " + figureNames[f] +
                           " differs from the cold pass");
        }
    }
    w.wall = base + (now() - burst);
}

LayerProbe
probeLayers(const std::vector<SweepSpec> &specs, Tally &tally,
            Spans &spans)
{
    LayerProbe lp;
    ProgramCache programs;
    MemoryResultCache &mem = processMemoryResultCache();
    std::uint64_t next = 0;
    for (const SweepSpec &spec : specs) {
        for (const SweepCell &c : spec.cells()) {
            const std::uint64_t cell = next++;
            ScopedSpan cs(spans, "harness.probe_cell", 0, cell);
            double t = now();
            const std::uint64_t builds0 = programs.builds();
            const Program &prog = programs.get(c.workload, c.targetInsts);
            double dt = now() - t;
            spans.add("prog.get", t, t + dt, cs.id(), cell);
            if (programs.builds() != builds0)
                lp.buildMs += dt * 1e3;

            RunRequest req;
            req.workload = c.workload;
            req.targetInsts = c.targetInsts;
            req.config = c.config;
            req.goldenCheck = false;
            t = now();
            const RunResult res = runOne(req, prog);
            dt = now() - t;
            spans.add("cpu.run_one", t, t + dt, cs.id(), cell);
            lp.runS += dt;
            lp.simInsts += res.insts;
            lp.simCycles += res.cycles;
            lp.reexecuted += res.loadsReExecuted;
            lp.filtered += res.loadsFilteredBySvw;

            req.profile = true;
            t = now();
            const RunResult pr = runOne(req, prog);
            dt = now() - t;
            spans.add("cpu.run_one_profiled", t, t + dt, cs.id(), cell);
            lp.profiledS += dt;
            for (unsigned s = 0; s < prof::NumStages; ++s)
                lp.stageS[s] += double(pr.profStageNs[s]) * 1e-9;
            if (pr.cycles != res.cycles)
                tally.mismatch("profiled run changed cycles: " + c.name());

            t = now();
            {
                Interp golden(prog);
                golden.run(res.insts);
                lp.goldenInsts += double(golden.counts().insts);
            }
            dt = now() - t;
            spans.add("func.interp_run", t, t + dt, cs.id(), cell);
            lp.goldenS += dt;

            t = now();
            const CellKey key = cellKey(c);
            dt = now() - t;
            spans.add("harness.cell_key", t, t + dt, cs.id(), cell);
            lp.keyS += dt;

            t = now();
            const std::string line = runResultToJson(res);
            dt = now() - t;
            spans.add("harness.serialize", t, t + dt, cs.id(), cell);
            lp.serializeS += dt;
            lp.lineBytes += line.size();

            mem.put(key, res);
            RunResult back;
            t = now();
            const bool hit = mem.get(key, back);
            dt = now() - t;
            spans.add("harness.memcache_get", t, t + dt, cs.id(), cell);
            lp.getS += dt;
            lp.hits += hit;
            ++lp.cells;
            ++tally.attempted;
        }
    }
    lp.builds = programs.builds();
    lp.memBytes = mem.bytes();
    return lp;
}

void
recheckColdRows(const MixedStats &m, unsigned threads, Tally &tally)
{
    const FigureDef *def = findFigure("fig6");
    std::vector<std::string> rows;
    for (const std::string &r : m.coldRows) {
        if (m.coldLines.count("fig6/" + r + "/BASE"))
            rows.push_back(r);
    }
    if (rows.empty())
        return;
    SweepOptions opts;
    opts.threads = threads;
    SweepSession session(def->build(rows, figureInsts), opts);
    LineMap got;
    session.run([&](const CellEvent &ev) {
        if (ev.kind == CellEventKind::Done && ev.outcome &&
            ev.outcome->ok)
            got["fig6/" + ev.cell->name()] = ev.resultLine;
    });
    compareLines(m.coldLines, got, "cold rows vs in-process", tally);
}

} // namespace perfbench
