/**
 * @file
 * Host-side simulator throughput tracker and perf-regression gate.
 *
 * Unlike the figure benches (which reproduce the paper's *simulated*
 * results), this binary measures how fast the simulator itself runs:
 * simulated instructions retired per host second (Minsts/s), the budget
 * that bounds every sweep in bench/. It times the out-of-order core on a
 * representative config matrix — the conventional baseline, NLQ and SSQ
 * with SVW (the hot rex/SVW paths), and RLE on the 4-wide machine — over
 * a small workload subset, and emits BENCH_hotloop.json so the perf
 * trajectory is machine-readable across PRs.
 *
 * The matrix runs as a sweep (harness/sweep.hh) with the golden check
 * off and the workload program shared across the workload's configs
 * via the executor's program cache. One untimed warm-up pass is
 * followed by `reps` timed passes over the whole matrix; each cell
 * reports its best pass (`seconds`) and its total across passes. The
 * timed region per cell is the whole cell (runOne: params/Core
 * construction + run + stat extraction). `--threads=N` times the
 * cells on N worker threads — per-cell `seconds` then includes host
 * contention, while the `total_wall_seconds` field records the
 * wall-clock win of parallel sweeping; simulated `cycles` are
 * identical for any thread count.
 *
 * Flags (in addition to the bench_common set):
 *   --out=FILE     JSON output path (default BENCH_hotloop.json)
 *   --reps=N       timed whole-matrix passes; best-of-N is reported
 *   --history=F    per-commit sample history (BENCH_history.jsonl),
 *                  with exactly one of:
 *     --append     record each cell's per-pass times as one JSON line
 *                  per cell, stamped with --commit=SHA
 *     --check      test each cell's per-pass times against its most
 *                  recent prior line (two-sided Mann-Whitney U) and
 *                  exit 3 when any cell regressed significantly
 *                  (p < 0.05 AND median slower) — a statistical gate
 *                  instead of a mean diff against a lone snapshot
 */

#include <algorithm>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include "bench_common.hh"
#include "harness/perf_stats.hh"

using namespace svw;
using namespace svw::bench;
using namespace svw::harness;

namespace {

std::string
jsonSampleLine(const std::string &commit, const std::string &cell,
               std::uint64_t insts, const std::vector<double> &secs)
{
    std::ostringstream os;
    os << "{\"commit\":\"" << commit << "\",\"cell\":\"" << cell
       << "\",\"insts\":" << insts << ",\"unix_time\":"
       << static_cast<long long>(std::time(nullptr))
       << ",\"seconds\":[";
    for (std::size_t i = 0; i < secs.size(); ++i) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.6f", secs[i]);
        os << (i ? "," : "") << buf;
    }
    os << "]}";
    return os.str();
}

/**
 * Minimal extraction of `"cell":"NAME"` and `"seconds":[...]` from one
 * history line (we wrote the format; unknown keys are ignored).
 * @return false on a malformed line (skipped, like a corrupt cache
 * entry).
 */
bool
parseHistoryLine(const std::string &line, std::string &cell,
                 std::vector<double> &secs)
{
    const std::size_t ck = line.find("\"cell\":\"");
    if (ck == std::string::npos)
        return false;
    const std::size_t cs = ck + 8;
    const std::size_t ce = line.find('"', cs);
    if (ce == std::string::npos)
        return false;
    cell = line.substr(cs, ce - cs);

    const std::size_t sk = line.find("\"seconds\":[");
    if (sk == std::string::npos)
        return false;
    std::size_t p = sk + 11;
    secs.clear();
    while (p < line.size() && line[p] != ']') {
        char *end = nullptr;
        const double v = std::strtod(line.c_str() + p, &end);
        if (end == line.c_str() + p)
            return false;
        secs.push_back(v);
        p = static_cast<std::size_t>(end - line.c_str());
        if (p < line.size() && line[p] == ',')
            ++p;
    }
    return !secs.empty();
}

/** --check: @return true when any cell in @p fresh is significantly
 * slower than its most recent sample in @p path. */
bool
historyRegressed(const std::string &path,
                 const std::vector<std::pair<std::string,
                                             std::vector<double>>> &fresh)
{
    std::map<std::string, std::vector<double>> prior;
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr,
                     "perf_hotloop: no history at %s; nothing to check"
                     " against\n",
                     path.c_str());
        return false;
    }
    std::string line;
    while (std::getline(in, line)) {
        std::string cell;
        std::vector<double> secs;
        if (parseHistoryLine(line, cell, secs))
            prior[cell] = std::move(secs);  // last entry wins
    }

    bool regressed = false;
    std::printf("%-24s %10s %10s %8s %8s  %s\n", "cell", "now (s)",
                "prior (s)", "shift%", "p", "verdict");
    for (const auto &[cell, now] : fresh) {
        const auto it = prior.find(cell);
        if (it == prior.end()) {
            std::printf("%-24s  (no prior sample)\n", cell.c_str());
            continue;
        }
        const MannWhitneyResult mw = mannWhitneyU(now, it->second);
        const double medNow = median(now), medPrior = median(it->second);
        const bool slower = mw.p < 0.05 && mw.medianShift > 0;
        if (slower)
            regressed = true;
        std::printf("%-24s %10.4f %10.4f %+7.1f%% %8.4f  %s\n",
                    cell.c_str(), medNow, medPrior,
                    medPrior > 0
                        ? 100.0 * (medNow - medPrior) / medPrior : 0.0,
                    mw.p,
                    slower ? "REGRESSION (significant)"
                           : mw.p < 0.05 ? "faster (significant)"
                                         : "no significant change");
    }
    return regressed;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string outPath = "BENCH_hotloop.json";
    unsigned reps = 3;
    std::string historyPath;
    bool historyAppend = false, historyCheck = false;
    std::string commit = "unknown";

    // Pre-filter our private flags; bench_common rejects unknown ones.
    std::vector<char *> passDown;
    passDown.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a.rfind("--out=", 0) == 0)
            outPath = a.substr(6);
        else if (a.rfind("--reps=", 0) == 0)
            reps = std::max(1u, parseFlagUnsigned(a.substr(7), "--reps"));
        else if (a.rfind("--history=", 0) == 0)
            historyPath = a.substr(10);
        else if (a == "--append")
            historyAppend = true;
        else if (a == "--check")
            historyCheck = true;
        else if (a.rfind("--commit=", 0) == 0)
            commit = a.substr(9);
        else
            passDown.push_back(argv[i]);
    }
    const BenchArgs args =
        parseArgs(static_cast<int>(passDown.size()), passDown.data());
    if ((historyAppend && historyCheck) ||
        (historyAppend || historyCheck) == historyPath.empty()) {
        std::fprintf(stderr, "error: --history=F takes exactly one of"
                             " --append or --check\n");
        return 2;
    }

    // Workload subset: dense forwarding (gzip), pointer-chasing misses
    // (mcf), control + silent stores (crafty), RLE redundancy (perl.d).
    const std::vector<std::string> suite =
        selectSuite(args, {"gzip", "mcf", "crafty", "perl.d"});

    // Config matrix: the structures this bench guards (ROB, LQ/SQ
    // searches, completion queue, committed-memory reads) are hot in all
    // of these; SSQ/NLQ add the rex + SVW paths, RLE the 4-wide machine.
    std::vector<ExperimentConfig> configs(4);
    configs[0].opt = OptMode::Baseline;
    configs[1].opt = OptMode::Nlq;
    configs[1].svw = SvwMode::Upd;
    configs[2].opt = OptMode::Ssq;
    configs[2].svw = SvwMode::Upd;
    configs[3].machine = Machine::FourWide;
    configs[3].opt = OptMode::Rle;
    configs[3].svw = SvwMode::Upd;

    SweepSpec spec("perf_hotloop");
    for (const auto &w : suite) {
        for (const auto &cfg : configs) {
            SweepCell c;
            c.group = w;
            c.label = configLabel(cfg);
            c.workload = w;
            c.targetInsts = args.insts;
            c.config = cfg;
            c.goldenCheck = false;  // timing loop only
            spec.add(c);
        }
    }

    // Synth family: seeded generator workloads with behaviors the
    // curated subset undersamples — hashjoin's store-heavy bucket
    // writes and chase's serial long-latency misses stress the
    // completion wheel and SQ/SSQ search differently from gzip/mcf.
    // Two configs keep the addition cheap: the conventional baseline
    // and SSQ+SVW (the hot rex path). Skipped when --bench/--workload
    // restricts the suite (the restriction already names the cells)
    // and when --families already pulls in the synth rows (duplicate
    // cell names would collide).
    if (args.only.empty() && args.families == Families::Paper) {
        const std::vector<std::string> synthSuite = {
            "synth:mix:1", "synth:hashjoin:3", "synth:chase:7"};
        for (const auto &w : synthSuite) {
            for (const ExperimentConfig *cfg : {&configs[0], &configs[2]}) {
                SweepCell c;
                c.group = w;
                c.label = configLabel(*cfg);
                c.workload = w;
                c.targetInsts = args.insts;
                c.config = *cfg;
                c.goldenCheck = false;
                spec.add(c);
            }
        }
    }

    SweepOptions opts = sweepOptions(args);
    // The timed matrix is never profiled — clock reads at every stage
    // boundary would tax the very seconds this bench publishes.
    // --profile instead runs a separate attribution pass after the
    // timing sweeps (see below), so the trajectory stays comparable
    // whether or not attribution was requested.
    opts.profile = false;
    // Wall time is this bench's product: a cached cell would report
    // zero seconds and poison the trajectory. The memory front is off
    // (memCache is never set), and --cache-dir is dropped out loud
    // rather than silently idling an advertised flag.
    if (!opts.cacheDir.empty()) {
        std::fprintf(stderr,
                     "warning: perf_hotloop ignores --cache-dir:"
                     " throughput cells are always simulated fresh\n");
        opts.cacheDir.clear();
    }

    // One untimed warm-up pass builds every workload program and
    // settles page-cache and allocator state; its results are the
    // metrics reported below. Each timed pass then runs the whole
    // matrix, so host drift hits every cell alike. Per cell: every
    // pass's time (the --history sample), the best and the total.
    const SweepResults res = runSweep(spec, opts);
    const bool sweepFailed = reportFailures(res) != 0;
    std::vector<std::vector<double>> samples(spec.size());
    double totalWall = 0.0;
    for (unsigned r = 0; r < reps; ++r) {
        const double t0 = hostSeconds();
        const SweepResults pass = runSweep(spec, opts);
        const double wall = hostSeconds() - t0;
        totalWall += wall;
        for (std::size_t i = 0; i < spec.size(); ++i) {
            const CellOutcome &o = pass.outcome(i);
            if (!o.ok || !res.outcome(i).ok)
                continue;
            if (o.result.cycles != res.outcome(i).result.cycles)
                svw_fatal("cycle mismatch across passes in ",
                          spec.cell(i).name(), ": ",
                          res.outcome(i).result.cycles, " vs ",
                          o.result.cycles);
            samples[i].push_back(o.seconds);
        }
        // A multi-minute full run must not look hung.
        std::printf("pass %u/%u: %.3fs\n", r + 1, reps, wall);
        std::fflush(stdout);
    }
    std::vector<double> best(spec.size(), 0.0), total(spec.size(), 0.0);
    for (std::size_t i = 0; i < spec.size(); ++i) {
        if (samples[i].empty())
            continue;
        best[i] = *std::min_element(samples[i].begin(), samples[i].end());
        for (const double t : samples[i])
            total[i] += t;
        const RunResult &r = res.outcome(i).result;
        std::printf("%-8s %-24s %8.3f Minsts/s (%.3fs, %llu insts)\n",
                    r.workload.c_str(), r.config.c_str(),
                    best[i] > 0.0 ? double(r.insts) / best[i] / 1e6 : 0.0,
                    best[i], static_cast<unsigned long long>(r.insts));
    }

    // Thread scaling: the same matrix in its figure-sweep shape —
    // golden check on — timed at --threads=1/2/4, interleaved per rep
    // so host drift hits every width equally; best-of-reps per width. Simulated results are byte-identical at
    // every width (CI gates the figures on that) — this records the
    // honest host wall-clock curve, which needs a multi-core host.
    SweepSpec scaling("hotloop_thread_scaling");
    for (const auto &w : suite) {
        for (const auto &cfg : configs) {
            SweepCell c;
            c.group = w;
            c.label = configLabel(cfg);
            c.workload = w;
            c.targetInsts = args.insts;
            c.config = cfg;
            c.goldenCheck = true;
            scaling.add(c);
        }
    }
    const std::vector<unsigned> threadWidths = {1, 2, 4};
    std::vector<double> threadWall(threadWidths.size(), 0.0);
    {
        SweepOptions tOpts = opts;
        for (unsigned r = 0; r < reps; ++r) {
            for (std::size_t k = 0; k < threadWidths.size(); ++k) {
                tOpts.threads = threadWidths[k];
                const double t = hostSeconds();
                (void)runSweep(scaling, tOpts);
                const double w = hostSeconds() - t;
                if (r == 0 || w < threadWall[k])
                    threadWall[k] = w;
            }
        }
    }
    std::printf("thread scaling (best of %u):", reps);
    for (std::size_t k = 0; k < threadWidths.size(); ++k)
        std::printf(" threads=%u %.3fs%s", threadWidths[k], threadWall[k],
                    k + 1 < threadWidths.size() ? "," : "");
    std::printf(" (speedup vs threads=1: ");
    for (std::size_t k = 0; k < threadWidths.size(); ++k)
        std::printf("%.2fx%s",
                    threadWall[k] > 0.0 ? threadWall[0] / threadWall[k]
                                        : 0.0,
                    k + 1 < threadWidths.size() ? ", " : ")\n");

    double totalInsts = 0.0, totalSecs = 0.0;
    std::size_t nCells = 0;
    for (std::size_t i = 0; i < spec.size(); ++i) {
        if (samples[i].empty())
            continue;
        totalInsts += double(res.outcome(i).result.insts);
        totalSecs += best[i];
        ++nCells;
    }
    const double aggregate =
        totalSecs > 0.0 ? totalInsts / totalSecs / 1e6 : 0.0;
    std::printf("aggregate: %.3f Minsts/s over %zu cells "
                "(%.3fs wall at --threads=%u)\n",
                aggregate, nCells, totalWall, args.threads);

    // Attribution pass (--profile): one *profiled* pass over the
    // matrix, after all the timing above. Per-stage host-ns
    // attribution lands here as a JSON stanza (wheel_advance nests in
    // complete, lsu_search in issue — the folded-stack file written by
    // bench_common's --profile=F keeps the same shape); "harness" is
    // the cell wall outside the tick loop (program build, core
    // construction, stat extraction).
    std::string profStanza;
    if (args.profile) {
        SweepOptions pOpts = opts;
        pOpts.profile = true;
        const SweepResults pres = runSweep(spec, pOpts);
        std::ostringstream os;
        std::uint64_t agg[prof::NumStages] = {};
        std::uint64_t aggCell = 0;
        os << ",\n  \"profile\": {\n    \"unit\": \"host_ns\",\n"
           << "    \"note\": \"separate profiled pass; the timed"
              " cells above never carry the profiler's clock-read"
              " overhead\",\n"
           << "    \"cells\": [\n";
        bool pFirst = true;
        for (std::size_t i = 0; i < spec.size(); ++i) {
            const CellOutcome &o = pres.outcome(i);
            if (!o.ran || !o.ok || !o.result.profTicks)
                continue;
            std::uint64_t top = 0;
            for (unsigned s = 0; s < prof::NumStages; ++s) {
                agg[s] += o.result.profStageNs[s];
                if (prof::stageParent(static_cast<prof::Stage>(s)) ==
                    prof::NumStages)
                    top += o.result.profStageNs[s];
            }
            aggCell += o.result.profCellNs;
            if (!pFirst)
                os << ",\n";
            pFirst = false;
            os << "      {\"cell\": \"" << spec.cell(i).name() << "\"";
            for (unsigned s = 0; s < prof::NumStages; ++s)
                os << ", \""
                   << prof::stageName(static_cast<prof::Stage>(s))
                   << "\": " << o.result.profStageNs[s];
            os << ", \"harness\": "
               << (o.result.profCellNs > top ? o.result.profCellNs - top
                                             : 0)
               << ", \"ticks\": " << o.result.profTicks << "}";
        }
        os << "\n    ],\n    \"aggregate\": {";
        std::uint64_t aggTop = 0;
        for (unsigned s = 0; s < prof::NumStages; ++s) {
            os << "\"" << prof::stageName(static_cast<prof::Stage>(s))
               << "\": " << agg[s] << ", ";
            if (prof::stageParent(static_cast<prof::Stage>(s)) ==
                prof::NumStages)
                aggTop += agg[s];
        }
        os << "\"harness\": "
           << (aggCell > aggTop ? aggCell - aggTop : 0)
           << ", \"cell_total\": " << aggCell << "}\n  }";
        profStanza = os.str();
    }

    std::ofstream js(outPath);
    js << "{\n  \"bench\": \"hotloop\",\n"
       << "  \"unit\": \"Minsts_per_host_second\",\n"
       << "  \"insts_per_run\": " << args.insts << ",\n"
       << "  \"reps\": " << reps << ",\n"
       << "  \"threads\": " << args.threads << ",\n"
       << "  \"total_wall_seconds\": " << totalWall << ",\n"
       << "  \"dyninst_hot_bytes\": " << sizeof(DynInst) << ",\n"
       << "  \"dyninst_cold_bytes\": " << sizeof(DynInstCold) << ",\n"
       << "  \"aggregate_minsts_per_sec\": " << aggregate << ",\n"
       << "  \"cells\": [\n";
    bool first = true;
    for (std::size_t i = 0; i < spec.size(); ++i) {
        if (samples[i].empty())
            continue;
        const RunResult &r = res.outcome(i).result;
        const double minsts =
            best[i] > 0.0 ? double(r.insts) / best[i] / 1e6 : 0.0;
        const double mcycles =
            best[i] > 0.0 ? double(r.cycles) / best[i] / 1e6 : 0.0;
        if (!first)
            js << ",\n";
        first = false;
        js << "    {\"workload\": \"" << r.workload << "\", "
           << "\"config\": \"" << r.config << "\", "
           << "\"insts\": " << r.insts << ", "
           << "\"cycles\": " << r.cycles << ", "
           << "\"seconds\": " << best[i] << ", "
           << "\"host_wall_seconds\": " << total[i] << ", "
           << "\"minsts_per_sec\": " << minsts << ", "
           << "\"mcycles_per_sec\": " << mcycles << "}";
    }
    js << "\n  ],\n";
    js << "  \"thread_scaling\": {\n"
       << "    \"note\": \"wall seconds for the hotloop matrix (golden"
          " check on) on --threads=N worker threads, best of "
       << reps << " interleaved reps; byte-identical simulated results"
          " at every width. Single-CPU hosts show ~1.0x — wall wins"
          " require a multi-core host.\",\n"
       << "    \"host_cpus\": "
       << std::thread::hardware_concurrency() << ",\n";
    for (std::size_t k = 0; k < threadWidths.size(); ++k)
        js << "    \"threads" << threadWidths[k]
           << "_wall_seconds\": " << threadWall[k] << ",\n";
    js << "    \"speedup_threads4_over_threads1\": "
       << (threadWall.back() > 0.0 ? threadWall[0] / threadWall.back()
                                   : 0.0)
       << "\n  }"
       << profStanza << "\n}\n";
    std::printf("wrote %s\n", outPath.c_str());
    if (sweepFailed)
        return 1;

    std::vector<std::pair<std::string, std::vector<double>>> fresh;
    for (std::size_t i = 0; i < spec.size(); ++i)
        if (!samples[i].empty())
            fresh.emplace_back(spec.cell(i).name(), samples[i]);
    if (historyAppend) {
        std::ofstream out(historyPath, std::ios::app);
        if (!out) {
            std::fprintf(stderr, "error: cannot open %s\n",
                         historyPath.c_str());
            return 2;
        }
        for (const auto &[cell, secs] : fresh)
            out << jsonSampleLine(commit, cell, args.insts, secs) << "\n";
        std::printf("appended %zu cell samples to %s (commit %s)\n",
                    fresh.size(), historyPath.c_str(), commit.c_str());
    } else if (historyCheck && historyRegressed(historyPath, fresh)) {
        return 3;
    }
    return 0;
}
