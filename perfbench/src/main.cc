/**
 * @file
 * svwbench — the end-to-end benchmark of the SVW sweep system.
 *
 *   svwbench --workload=figures_cold|service_mixed
 *            --seed=N --seconds=S --trace=0|1 --sweepd=PATH
 *            [--trace-out=FILE]
 *
 * --trace=0 runs one workload and prints its end-to-end metrics;
 * --trace=1 runs it twice (untraced, then with spans recorded) to
 * report the tracing overhead, then probes every layer and prints the
 * per-layer metrics. Either way the last stdout line is one JSON
 * object: {"correct", "attempted", "failed", "metrics"}. The exit code
 * is 1 when any output check failed, 2 on a usage error.
 *
 * The simulator model is unvalidated: the repository holds no
 * hardware reference, so no accuracy figure is printed.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <numeric>
#include <string>
#include <vector>

#include "base/profile.hh"
#include "bench.hh"
#include "harness/executor.hh"
#include "harness/perf_stats.hh"

namespace perfbench {
namespace {

using svw::harness::median;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string sweepd;
    std::string traceOut;
};

struct Metric
{
    std::string name;
    double value;  ///< as measured
    std::string unit;
    /** How the value scales with host speed: 1 for a time, -1 for a
     * rate the system sets, 0 for memory or a rate the load sets. */
    int speed = 0;
    /** Host-speed factor of the phase that measured it (HostSpeed). */
    double factor = 1.0;

    double atReferenceSpeed() const
    {
        return value * std::pow(factor, speed);
    }
};
using Metrics = std::vector<Metric>;

/**
 * Put the metrics from @p from on the host-speed factor of @p hs,
 * which was sampled through the phase that measured them, and print it
 * unless @p phase is null. Phases differ in load, and the host drifts
 * between them.
 */
void
stamp(Metrics &out, std::size_t from, const HostSpeed &hs,
      const char *phase)
{
    for (std::size_t i = from; i < out.size(); ++i)
        out[i].factor = hs.factor();
    if (!phase)
        return;
    std::printf("# host speed over %s: %zu kernel samples, median %.4g ms,"
                " best %.4g ms; factor %.4f\n",
                phase, hs.samples(), hs.median() * 1e3, hs.best() * 1e3,
                hs.factor());
}

/** Where the benchmark runs: the generator on the last allowed CPU,
 * the daemon on the rest (disjoint sets keep warm p50 steady). */
struct Ctx
{
    Args args;
    std::vector<int> all, daemonCpus, genCpus;
    unsigned threads = 1;
    /** Service set-ups and in-process reference rounds per run; the
     * traced run uses one of each to stay within its time limit. */
    int setups = 3;
    int rounds = 5;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "error: %s\nusage: svwbench --workload=NAME --seed=N"
                 " --seconds=S --trace=0|1 --sweepd=PATH"
                 " [--trace-out=FILE]\n",
                 why.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string s = argv[i];
        std::string val;
        const std::size_t eq = s.find('=');
        if (eq != std::string::npos) {
            val = s.substr(eq + 1);
            s = s.substr(0, eq);
        } else if (i + 1 < argc) {
            val = argv[++i];
        }
        char *end = nullptr;
        if (s == "--workload") {
            a.workload = val;
        } else if (s == "--seed") {
            a.seed = std::strtoull(val.c_str(), &end, 10);
        } else if (s == "--seconds") {
            a.seconds = std::strtod(val.c_str(), &end);
            if (!(a.seconds > 0.0))
                usage("--seconds must be positive");
        } else if (s == "--trace") {
            if (val != "0" && val != "1")
                usage("--trace takes 0 or 1");
            a.trace = val == "1";
        } else if (s == "--sweepd") {
            a.sweepd = val;
        } else if (s == "--trace-out") {
            a.traceOut = val;
        } else {
            usage("unknown argument " + s);
        }
        if (end && *end)
            usage("bad number for " + s + ": " + val);
    }
    if (a.sweepd.empty())
        usage("--sweepd is required");
    return a;
}

double
ms(double s)
{
    return s * 1e3;
}

double
selfPeakRssMb()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;
}

/**
 * p50 / p99 / rate of warm requests, failures ranked above all. A run
 * is cut into equal time windows of at least 1000 requests each, so
 * every window's p99 has ten samples beyond it, and each metric is the
 * median of its per-window values: a few windows spoiled by host
 * stalls do not move it, a tail that recurs through the run does.
 * @p rpsSpeed is the rate's Metric::speed (0 when the load sets it).
 */
void
warmMetrics(Metrics &out, const WarmStats &w, int rpsSpeed)
{
    const std::size_t n = w.latency.size() + w.failedAt.size();
    const std::size_t segs = std::max<std::size_t>(n / 1000, 1);
    std::vector<double> p50, p99, rps;
    for (std::size_t k = 0; k < segs; ++k) {
        const double lo = w.start + w.wall * double(k) / double(segs);
        const double hi = w.start + w.wall * double(k + 1) / double(segs);
        auto in = [&](double t) {
            return (t >= lo && t < hi) || (k + 1 == segs && t >= hi);
        };
        std::vector<double> lat;
        for (std::size_t i = 0; i < w.latency.size(); ++i)
            if (in(w.at[i]))
                lat.push_back(w.latency[i]);
        const auto failed = static_cast<std::size_t>(
            std::count_if(w.failedAt.begin(), w.failedAt.end(), in));
        p50.push_back(percentile(lat, failed, 0.50));
        p99.push_back(percentile(lat, failed, 0.99));
        rps.push_back(double(lat.size()) / (hi - lo));
    }
    out.push_back({"warm_p50_ms", ms(median(p50)), "ms", 1});
    out.push_back({"warm_p99_ms", ms(median(p99)), "ms", 1});
    out.push_back({"warm_rps", median(rps), "req/s", rpsSpeed});
    std::printf("# warm samples: %zu completed, %zu failed; median of %zu"
                " time windows\n",
                w.latency.size(), w.failedAt.size(), segs);
    if (!w.order.empty())
        std::printf("# warm figure order (seeded): %s%s\n",
                    w.order.substr(0, 64).c_str(),
                    w.order.size() > 64 ? "..." : "");
}

void
printDigest(const Pass &p)
{
    std::uint64_t h = fnv1a("");
    std::uint64_t cycles = 0, insts = 0;
    for (const auto &[name, line] : p.lines)
        h = fnv1a(name + "\n" + line + "\n", h);
    for (const auto &r : p.results) {
        cycles += r.cycles;
        insts += r.insts;
    }
    std::printf("# result digest %016llx over %zu cells;"
                " cpu.sim_cycles %llu cpu.sim_insts %llu\n",
                static_cast<unsigned long long>(h), p.lines.size(),
                static_cast<unsigned long long>(cycles),
                static_cast<unsigned long long>(insts));
}

/** Round-robin in-process passes and their bests. */
struct Rounds
{
    /** Per figure: best sequential session wall and first Done. */
    std::vector<double> figWall, figFirst;
    Pass ref;  ///< the first sequential pass
    HostSpeed speed;  ///< sampled before every pass
};

/**
 * Alternate a sequential pass (in the caller, default batch width) and
 * a threaded one (nproc threads) for at least @p rounds rounds and
 * until @p until, calling @p afterRound (if set) with the first
 * sequential pass and the round's seconds after each round. Every pass
 * must equal the first sequential pass line for line.
 *
 * Adds sweep_s and sweep_par_s, each the sum over the four figure
 * sessions of each session's best wall: session set-up, planning,
 * units and merge all count, while a host stall spoils one session of
 * one round rather than the whole pass.
 */
Rounds
runRounds(const Ctx &ctx, int rounds, double until, Metrics &out,
          Tally &tally, Spans &spans,
          const std::function<void(const Pass &, double)> &afterRound = {})
{
    pinTo(ctx.all);
    const auto specs = figureSpecs();
    svw::harness::SweepOptions seqOpts, parOpts;
    parOpts.threads = ctx.threads;
    Rounds r;
    std::vector<std::vector<double>> seq, par, first;
    for (int i = 0; i < rounds || now() < until; ++i) {
        const double t0 = now();
        r.speed.sample(4);
        Pass s = runPass(specs, seqOpts, tally, spans);
        r.speed.sample(4);
        Pass p = runPass(specs, parOpts, tally, spans);
        if (i == 0)
            r.ref = s;
        compareLines(r.ref.lines, s.lines, "sequential pass", tally);
        compareLines(r.ref.lines, p.lines, "threaded vs sequential pass",
                     tally);
        seq.push_back(s.figWall);
        par.push_back(p.figWall);
        first.push_back(s.figFirstDone);
        if (afterRound)
            afterRound(r.ref, now() - t0);
    }
    r.figWall = partBests(seq);
    r.figFirst = partBests(first);
    std::printf("# estimator: %zu round-robin rounds; sweep_s and"
                " sweep_par_s sum the best wall of each of %zu figure"
                " sessions\n",
                seq.size(), specs.size());
    printDigest(r.ref);
    const std::size_t from = out.size();
    out.push_back({"sweep_s", sumOfBests(seq), "s", 1});
    out.push_back({"sweep_par_s", sumOfBests(par), "s", 1});
    stamp(out, from, r.speed, "the passes");
    return r;
}

/** Set up the daemon ctx.setups times (median set-up time) and keep
 * the last. */
Service
setUpService(const Ctx &ctx, Metrics &out, Tally &tally, Spans &spans)
{
    pinTo(ctx.genCpus);
    std::vector<double> setups;
    Service svc;
    HostSpeed speed;
    for (int i = 0; i < ctx.setups; ++i) {
        if (svc.daemon && !svc.daemon->stop())
            tally.mismatch("sweepd did not drain to exit 0");
        svc = startService(ctx.args.sweepd, ctx.daemonCpus, tally, spans,
                           speed);
        setups.push_back(svc.setupSeconds);
    }
    const std::size_t from = out.size();
    out.push_back({"setup_s", median(setups), "s", 1});
    stamp(out, from, speed, "the set-ups");
    return svc;
}

void
stopService(Service &svc, Metrics &out, Tally &tally)
{
    out.push_back({"peak_rss_mb", svc.daemon->peakRssMb(), "MB"});
    if (!svc.daemon->stop())
        tally.mismatch("sweepd did not drain to exit 0");
}

Metrics
figuresCold(const Ctx &ctx, double seconds, Tally &tally, Spans &spans)
{
    Metrics out;
    pinTo(ctx.all);
    const auto specs = figureSpecs();
    std::vector<double> setups;
    HostSpeed setupSpeed;
    for (int i = 0; i < 25; ++i) {
        setupSpeed.sample();
        setups.push_back(buildPrograms(specs));
    }
    for (const auto &spec : specs)
        for (const auto &c : spec.cells())
            svw::harness::processProgramCache().get(c.workload,
                                                    c.targetInsts);
    out.push_back({"setup_s", median(setups), "s", 1});
    stamp(out, 0, setupSpeed, "the set-ups");

    // A warm burst follows every round (a quarter of the round's time,
    // a fifth of the run), so warm samples span the run like the passes.
    WarmStats warm;
    HostSpeed warmSpeed;
    const Rounds r = runRounds(
        ctx, 1, now() + seconds, out, tally, spans,
        [&](const Pass &ref, double roundSeconds) {
            warmSpeed.sample(4);
            warmInProcess(ref, roundSeconds / 4, ctx.args.seed, warm, tally,
                          spans);
        });
    std::size_t from = out.size();
    warmMetrics(out, warm, -1);
    stamp(out, from, warmSpeed, "the warm bursts");
    from = out.size();
    out.push_back({"cold_ttfc_ms", ms(median(r.figFirst)), "ms", 1});
    out.push_back({"cold_sweep_s", median(r.figWall), "s", 1});
    stamp(out, from, r.speed, nullptr);  // printed by runRounds
    out.push_back({"peak_rss_mb", selfPeakRssMb(), "MB"});
    return out;
}

Metrics
serviceMixed(const Ctx &ctx, double seconds, Tally &tally, Spans &spans)
{
    Metrics out;
    Service svc = setUpService(ctx, out, tally, spans);
    HostSpeed speed;
    const MixedStats m =
        mixedOpenLoop(svc, seconds, ctx.args.seed, tally, spans, speed);
    const std::size_t from = out.size();
    warmMetrics(out, m.warm, 0);
    out.push_back({"cold_ttfc_ms", ms(median(m.coldFirstDone)), "ms", 1});
    out.push_back({"cold_sweep_s", median(m.coldSweep), "s", 1});
    stamp(out, from, speed, "the open loop");
    std::printf("# open loop: %.0f warm req/s on up to %u connections,"
                " %zu cold sweeps, %llu due times skipped between sweeps\n",
                mixedWarmRate, mixedWarmConns, m.coldSweep.size(),
                static_cast<unsigned long long>(m.skipped));
    std::string rows;
    for (std::size_t i = 0; i < m.coldRows.size() && i < 12; ++i)
        rows += " " + m.coldRows[i];
    std::printf("# cold rows (seeded, first 12 of %zu):%s\n",
                m.coldRows.size(), rows.c_str());
    stopService(svc, out, tally);
    recheckColdRows(m, ctx.threads, tally);
    const Rounds r = runRounds(ctx, ctx.rounds, 0.0, out, tally, spans);
    compareLines(svc.lines, r.ref.lines, "sweepd vs in-process", tally);
    return out;
}

using WorkloadFn = Metrics (*)(const Ctx &, double, Tally &, Spans &);

/** A per-layer metric and the end-to-end metric it should move. */
struct LayerMetric
{
    const char *name;
    const char *unit;
    const char *moves;
};

const LayerMetric layerMetrics[] = {
    {"prog.build_ms", "ms", "setup_s@figures_cold, cold_ttfc_ms@service_mixed"},
    {"prog.builds", "count", "setup_s@figures_cold"},
    {"func.golden_s", "s", "sweep_s@figures_cold (about 2%)"},
    {"func.golden_minsts_s", "Minst/s", "sweep_s@figures_cold"},
    {"cpu.run_s", "s", "sweep_s, sweep_par_s@figures_cold; cold_sweep_s, setup_s@service_mixed"},
    {"cpu.sim_minsts_s", "Minst/s", "sweep_s@figures_cold"},
    {"cpu.fetch_s", "s", "sweep_s@figures_cold"},
    {"cpu.dispatch_s", "s", "sweep_s@figures_cold"},
    {"cpu.issue_s", "s", "sweep_s@figures_cold"},
    {"cpu.complete_s", "s", "sweep_s@figures_cold"},
    {"cpu.wheel_advance_s", "s", "sweep_s@figures_cold"},
    {"cpu.commit_s", "s", "sweep_s@figures_cold"},
    {"lsu.search_s", "s", "sweep_s@figures_cold"},
    {"rex.stage_s", "s", "sweep_s@figures_cold"},
    {"cpu.profile_overhead", "ratio", "none (profiled / plain run_s - 1)"},
    {"cpu.sim_insts", "count", "none: identical under a perf-only change"},
    {"cpu.sim_cycles", "count", "none: identical under a perf-only change"},
    {"rex.loads_reexecuted", "count", "none: identical under a perf-only change"},
    {"svw.loads_filtered", "count", "none: identical under a perf-only change"},
    {"harness.cell_s", "s", "sweep_s@figures_cold"},
    {"harness.cell_overhead_s", "s", "sweep_s@figures_cold"},
    {"harness.units", "count", "sweep_par_s@figures_cold, cold_ttfc_ms@service_mixed"},
    {"harness.cells_run", "count", "sweep_par_s@figures_cold"},
    {"harness.lanes_per_unit", "count", "sweep_par_s@figures_cold, cold_ttfc_ms@service_mixed"},
    {"harness.pool_busy_ratio", "ratio", "sweep_par_s@figures_cold"},
    {"harness.pool_tail_s", "s", "sweep_par_s@figures_cold"},
    {"harness.key_us", "us", "warm_p50_ms, warm_rps@figures_cold"},
    {"harness.memcache_get_us", "us", "warm_p50_ms, warm_rps@figures_cold"},
    {"harness.memcache_hit_ratio", "ratio", "warm_p50_ms@figures_cold"},
    {"harness.memcache_bytes", "bytes", "peak_rss_mb@service_mixed"},
    {"harness.serialize_us", "us", "warm_p50_ms, warm_rps@figures_cold"},
    {"harness.line_bytes", "bytes", "warm_p50_ms@figures_cold"},
    {"harness.warm_session_ms", "ms", "warm_p50_ms, warm_rps@figures_cold"},
    {"service.ttfb_ms", "ms", "warm_p50_ms@service_mixed, a small share beside head-of-line waiting"},
    {"service.stream_ms", "ms", "warm_p50_ms@service_mixed, a small share beside head-of-line waiting"},
    {"service.resp_bytes", "bytes", "warm_p50_ms@service_mixed, a small share beside head-of-line waiting"},
    {"service.status_ms", "ms", "none: GET /status is outside the workloads"},
    {"service.http_ms", "ms", "warm_p50_ms@service_mixed, a small share beside head-of-line waiting"},
    {"service.hol_wait_p50_ms", "ms", "warm_p50_ms@service_mixed"},
    {"service.hol_wait_p99_ms", "ms", "warm_p99_ms@service_mixed"},
    {"service.unit_gap_ms", "ms", "warm_p99_ms, cold_ttfc_ms@service_mixed"},
    {"service.daemon_util", "ratio", "warm_p99_ms@service_mixed (exceeds 1 once cells leave the poll thread)"},
    {"service.gen_late_ms", "ms", "none: generator health, must stay near 0"},
};

/** Every per-layer metric, from the probes of a traced run. */
std::map<std::string, double>
probeAllLayers(const Ctx &ctx, Tally &tally, Spans &spans)
{
    std::map<std::string, double> v;
    pinTo(ctx.all);
    const auto specs = figureSpecs();
    const LayerProbe lp = probeLayers(specs, tally, spans);
    v["prog.build_ms"] = lp.buildMs;
    v["prog.builds"] = double(lp.builds);
    v["func.golden_s"] = lp.goldenS;
    v["func.golden_minsts_s"] = lp.goldenInsts / lp.goldenS / 1e6;
    v["cpu.run_s"] = lp.runS;
    v["cpu.sim_minsts_s"] = double(lp.simInsts) / lp.runS / 1e6;
    v["cpu.fetch_s"] = lp.stageS[svw::prof::Fetch];
    v["cpu.dispatch_s"] = lp.stageS[svw::prof::Dispatch];
    v["cpu.issue_s"] = lp.stageS[svw::prof::Issue];
    v["cpu.complete_s"] = lp.stageS[svw::prof::Complete];
    v["cpu.wheel_advance_s"] = lp.stageS[svw::prof::WheelAdvance];
    v["cpu.commit_s"] = lp.stageS[svw::prof::Commit];
    v["lsu.search_s"] = lp.stageS[svw::prof::LsuSearch];
    v["rex.stage_s"] = lp.stageS[svw::prof::Rex];
    v["cpu.profile_overhead"] = lp.profiledS / lp.runS - 1.0;
    v["cpu.sim_insts"] = double(lp.simInsts);
    v["cpu.sim_cycles"] = double(lp.simCycles);
    v["rex.loads_reexecuted"] = double(lp.reexecuted);
    v["svw.loads_filtered"] = double(lp.filtered);
    const double cells = double(lp.cells);
    v["harness.key_us"] = lp.keyS / cells * 1e6;
    v["harness.memcache_get_us"] = lp.getS / cells * 1e6;
    v["harness.memcache_hit_ratio"] = double(lp.hits) / cells;
    v["harness.memcache_bytes"] = double(lp.memBytes);
    v["harness.serialize_us"] = lp.serializeS / cells * 1e6;
    v["harness.line_bytes"] = double(lp.lineBytes) / cells;

    svw::harness::SweepOptions seqOpts, parOpts, soloOpts;
    parOpts.threads = ctx.threads;
    soloOpts.batch = 1;
    const Pass s = runPass(specs, seqOpts, tally, spans);
    const Pass p = runPass(specs, parOpts, tally, spans);
    compareLines(s.lines, p.lines, "threaded vs sequential pass", tally);
    // Unbatched, each unit is one cell running its own golden pass, as
    // in the probe, so the probe's times can be subtracted from it.
    const Pass solo = runPass(specs, soloOpts, tally, spans);
    compareLines(s.lines, solo.lines, "unbatched vs sequential pass", tally);
    const double cellS =
        std::accumulate(solo.unitTimes.begin(), solo.unitTimes.end(), 0.0);
    v["harness.cell_s"] = cellS;
    v["harness.cell_overhead_s"] = cellS - lp.runS - lp.goldenS;
    const double units = double(s.unitTimes.size());
    v["harness.units"] = units;
    v["harness.cells_run"] = double(s.cellsRun);
    v["harness.lanes_per_unit"] = double(s.cellsRun) / units;
    v["harness.pool_busy_ratio"] = p.busy / (ctx.threads * p.wall);
    v["harness.pool_tail_s"] = p.wall - p.busy / ctx.threads;
    WarmStats warmIn;
    warmInProcess(s, 1.5, ctx.args.seed, warmIn, tally, spans);
    v["harness.warm_session_ms"] = ms(median(warmIn.latency));

    pinTo(ctx.genCpus);
    HostSpeed notReported;  // per-layer metrics are as measured
    Service svc = startService(ctx.args.sweepd, ctx.daemonCpus, tally, spans,
                               notReported);
    const WarmStats w = warmClosedLoop(svc, 1.5, ctx.args.seed, tally, spans);
    const MixedStats m =
        mixedOpenLoop(svc, 5.0, ctx.args.seed, tally, spans, notReported);
    if (!svc.daemon->stop())
        tally.mismatch("sweepd did not drain to exit 0");
    const double idle = percentile(w.latency, w.failedAt.size(), 0.5);
    v["service.ttfb_ms"] = ms(median(w.ttfb));
    v["service.stream_ms"] = ms(median(w.stream));
    v["service.resp_bytes"] = w.respBytes;
    v["service.status_ms"] = ms(median(w.status));
    v["service.http_ms"] = ms(idle) - v["harness.warm_session_ms"];
    v["service.hol_wait_p50_ms"] =
        ms(percentile(m.warm.latency, m.warm.failedAt.size(), 0.5) - idle);
    v["service.hol_wait_p99_ms"] =
        ms(percentile(m.warm.latency, m.warm.failedAt.size(), 0.99) -
           idle);
    v["service.unit_gap_ms"] = ms(median(m.unitGaps));
    v["service.daemon_util"] = m.daemonUtil;
    v["service.gen_late_ms"] = ms(percentile(m.genLate, 0, 0.99));
    pinTo(ctx.all);
    return v;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return v > 0 ? "1e300" : "-1";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

void
printResult(const Tally &tally, const Metrics &metrics)
{
    for (const std::string &p : tally.problems)
        std::printf("# CHECK FAILED: %s\n", p.c_str());
    std::string j = std::string("{\"correct\": ") +
        (tally.correct ? "true" : "false") +
        ", \"attempted\": " + std::to_string(tally.attempted) +
        ", \"failed\": " + std::to_string(tally.failed) + ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        j += std::string(i ? ", " : "") + "\"" + metrics[i].name +
            "\": {\"value\": " + jsonNumber(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
    j += "}}";
    std::printf("%s\n", j.c_str());
    std::fflush(stdout);
}

/**
 * Run one workload and print its metrics as measured, with their
 * host-speed factors, and at the reference host speed. @return them at
 * the reference host speed (factor 1).
 */
Metrics
runWorkload(WorkloadFn fn, const Ctx &ctx, double seconds, Tally &tally,
            Spans &spans, const std::string &title)
{
    const HostCpu cpu0 = hostCpu();
    Metrics m = fn(ctx, seconds, tally, spans);
    const HostCpu cpu1 = hostCpu();
    std::printf("# %s, as measured | factor | at the reference host speed"
                " (kernel %.4g ms); %.2f%% of host CPU time stolen\n",
                title.c_str(), HostSpeed::referenceSeconds * 1e3,
                100.0 * (cpu1.steal - cpu0.steal) /
                    std::max(1.0, cpu1.total - cpu0.total));
    for (Metric &x : m) {
        std::printf("#   %-14s %14.6g | %.4f | %14.6g %s\n", x.name.c_str(),
                    x.value, x.factor, x.atReferenceSpeed(), x.unit.c_str());
        x.value = x.atReferenceSpeed();
        x.factor = 1.0;
    }
    return m;
}

int
run(int argc, char **argv)
{
    Ctx ctx;
    ctx.args = parseArgs(argc, argv);
    const std::map<std::string, WorkloadFn> workloads = {
        {"figures_cold", figuresCold},
        {"service_mixed", serviceMixed},
    };
    auto it = workloads.find(ctx.args.workload);
    if (it == workloads.end())
        usage("unknown workload '" + ctx.args.workload + "'");

    ctx.all = allowedCpus();
    ctx.threads = static_cast<unsigned>(std::max<std::size_t>(1,
                                                              ctx.all.size()));
    ctx.daemonCpus = ctx.genCpus = ctx.all;
    if (ctx.all.size() >= 2) {
        ctx.genCpus = {ctx.all.back()};
        ctx.daemonCpus.pop_back();
    }
    std::printf("# svwbench workload=%s seed=%llu seconds=%g trace=%d\n",
                ctx.args.workload.c_str(),
                static_cast<unsigned long long>(ctx.args.seed),
                ctx.args.seconds, ctx.args.trace ? 1 : 0);
    std::printf("# nproc=%u cpus=%s daemon_cpus=%s generator_cpus=%s\n",
                ctx.threads, cpuList(ctx.all).c_str(),
                cpuList(ctx.daemonCpus).c_str(),
                cpuList(ctx.genCpus).c_str());
    std::printf("# model unvalidated: no hardware reference in the"
                " repository, so no accuracy figure\n");

    Tally tally;
    if (!ctx.args.trace) {
        Spans off;
        const Metrics m = runWorkload(it->second, ctx, ctx.args.seconds,
                                      tally, off, "end-to-end");
        printResult(tally, m);
        return tally.correct ? 0 : 1;
    }

    // Traced run: the workload untraced and traced on equal halves,
    // then the layer probes with spans on.
    ctx.setups = ctx.rounds = 1;
    Spans off;
    Spans spans(true);
    const double half = ctx.args.seconds / 2;
    const Metrics plain = runWorkload(it->second, ctx, half, tally, off,
                                      "end-to-end, untraced half");
    const Metrics traced = runWorkload(it->second, ctx, half, tally, spans,
                                       "end-to-end, traced half");
    std::printf("# tracing overhead (traced - untraced):\n");
    for (std::size_t i = 0; i < plain.size() && i < traced.size(); ++i)
        std::printf("#   %-14s %+12.6g %s (%+.1f%%)\n",
                    plain[i].name.c_str(), traced[i].value - plain[i].value,
                    plain[i].unit.c_str(),
                    100.0 * (traced[i].value / plain[i].value - 1.0));

    const std::map<std::string, double> v = probeAllLayers(ctx, tally, spans);
    std::map<std::string, double> self;
    for (const auto &[name, secs] : spans.selfSeconds())
        self[name.substr(0, name.find('.'))] += secs;
    std::printf("# span self time by layer:");
    for (const auto &[layer, secs] : self)
        std::printf(" %s=%.4gs", layer.c_str(), secs);
    std::printf("\n# per-layer metrics (value unit | should move):\n");
    Metrics out;
    for (const LayerMetric &lm : layerMetrics) {
        const double x = v.at(lm.name);
        std::printf("#   %-27s %14.6g %-7s | %s\n", lm.name, x, lm.unit,
                    lm.moves);
        out.push_back({lm.name, x, lm.unit});
    }
    std::printf("# cpu.profile_overhead: profiled cells ran %.1f%% slower"
                " than cpu.run_s\n",
                100.0 * v.at("cpu.profile_overhead"));
    if (!ctx.args.traceOut.empty()) {
        std::ofstream f(ctx.args.traceOut);
        f << spans.chromeTrace();
        std::printf("# %zu spans written to %s\n", spans.spans().size(),
                    ctx.args.traceOut.c_str());
    }
    printResult(tally, out);
    return tally.correct ? 0 : 1;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    try {
        return perfbench::run(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "svwbench: %s\n", e.what());
        return 1;
    }
}
