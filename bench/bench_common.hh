/**
 * @file
 * Shared scaffolding for the per-figure bench binaries: command-line
 * sizing and sweep-engine plumbing. The binaries only *declare* their
 * sweeps (harness/sweep.hh, builders in harness/figures.hh) and format
 * tables; execution — the in-caller run, the --threads workers, and
 * --shard splits — lives in the sweep engine (harness/session.hh),
 * which every binary drives through runBenchSweep below. The sweepd
 * service daemon is a sibling client of the same session API.
 *
 * Every binary accepts:
 *   --insts=N    dynamic-instruction target per run (default 100000)
 *   --quick      reduce to 20000 instructions per run
 *   --bench=X    restrict to one workload
 *   --families=paper|synth|all
 *                which workload rows to sweep: the figure's paper
 *                suite (default; output byte-identical to before the
 *                flag existed), the synthetic generator suite
 *                ("synth:<kind>:1" per kind), or both
 *   --workload=X restrict to one workload, accepting the full registry
 *                grammar — curated names, "synth:<kind>:<seed>[:k=v]"
 *                generator recipes, and "trace:<file>" replays — and
 *                validating it at parse time (unknown kind, malformed
 *                seed/params, or a missing/corrupt trace file exit 2
 *                instead of failing mid-sweep)
 *   --record-trace=F  record the selected workload's committed stream
 *                (via the golden interpreter, at the --insts sizing) to
 *                trace file F and exit; requires --workload/--bench
 *   --threads=N  run cells on N worker threads in this process,
 *                sharing one program cache and the in-memory result
 *                cache (default 0 = every cell in the calling thread;
 *                output is byte-identical for any N). A cell that
 *                throws fails only itself either way; to survive a
 *                cell that kills the process, run the sweep through
 *                sweep_driver, one process per shard
 *   --shard=i/n  run only shard i of n (partitioned by figure row;
 *                the union over all shards is the full sweep)
 *   --cache-dir=D  persistent result cache: cells whose key
 *                (workload, insts, full machine config, code-version
 *                stamp) is already stored are served from D without
 *                simulating; new results are stored atomically.
 *                Output stays byte-identical to an uncached run.
 *   --no-cache   ignore --cache-dir (debugging escape hatch; useful
 *                when a sweep_driver-style wrapper always passes
 *                --cache-dir)
 *   --cache-max-mb=N  after the sweep, LRU-trim the cache directory
 *                to at most N MB (oldest access stamp first; 0 =
 *                unbounded, the default)
 *   --mem-cache-max-mb=N  cap the process-wide in-memory result cache
 *                at N MB, evicting least-recently-used entries
 *                (default 512; 0 = unbounded). Matters for long-lived
 *                processes (sweepd); a figure binary rarely hits it
 *   --emit-cells=F  after the sweep, write one lossless RunResult JSON
 *                line (serialize.hh) per successful cell, in spec
 *                order, to file F ("-" = stdout) — the same wire
 *                format sweepd streams, so CI can diff daemon against
 *                CLI byte for byte
 *   --progress   stream one "progress: ..." line per completed cell
 *                to stderr (sweep_driver passes this to its shards and
 *                forwards the lines live)
 *   --profile=F  attach the per-stage self-profiler (base/profile.hh)
 *                to every cell and write a flamegraph.pl-compatible
 *                folded-stack file to F at exit. Simulated cycles and
 *                the printed tables are byte-identical with or without
 *                it; host wall times become meaningless, so profiled
 *                sweeps bypass the result cache. An empty or
 *                uncreatable path exits 2.
 *
 * Unrecognized arguments (flags or positionals) are rejected with
 * exit 2 so typos fail fast.
 */

#ifndef SVW_BENCH_BENCH_COMMON_HH
#define SVW_BENCH_BENCH_COMMON_HH

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "base/profile.hh"
#include "harness/config.hh"
#include "harness/executor.hh"
#include "harness/figures.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "harness/serialize.hh"
#include "harness/session.hh"
#include "harness/sweep.hh"
#include "prog/trace.hh"
#include "prog/workloads/workloads.hh"

namespace svw::bench {

struct BenchArgs
{
    std::uint64_t insts = 100'000;
    std::string only;
    harness::Families families = harness::Families::Paper;
    unsigned threads = 0;   ///< worker threads; 0 = in the caller
    unsigned shardIndex = 0;
    unsigned shardCount = 1;
    std::string cacheDir;   ///< empty = result caching off
    bool noCache = false;   ///< --no-cache: override --cache-dir
    std::uint64_t cacheMaxMb = 0;  ///< LRU cache bound; 0 = unbounded
    /** In-memory result cache cap in MB; 0 = unbounded. */
    std::uint64_t memCacheMaxMb = 512;
    std::string emitCells;  ///< --emit-cells target path, if any
    bool progress = false;  ///< stream per-cell completion to stderr
    std::string recordTrace;  ///< --record-trace target path, if any
    bool profile = false;   ///< --profile=: stage profiler armed
};

/** Parse a decimal flag value; a malformed number is a usage error
 * (exit 2), like any other rejected argument. */
inline std::uint64_t
parseFlagNumber(const std::string &text, const char *flag)
{
    // Digits only: stoull would silently sign-wrap "-1" to 2^64-1.
    const bool allDigits = !text.empty() &&
        text.find_first_not_of("0123456789") == std::string::npos;
    if (allDigits) {
        try {
            return std::stoull(text);
        } catch (const std::exception &) {  // out of range
        }
    }
    std::fprintf(stderr, "error: bad number '%s' for %s\n", text.c_str(),
                 flag);
    std::exit(2);
}

/** parseFlagNumber for flags that must fit an unsigned (no silent
 * truncation wrap). */
inline unsigned
parseFlagUnsigned(const std::string &text, const char *flag)
{
    const std::uint64_t v = parseFlagNumber(text, flag);
    if (v > 0xffffffffull) {
        std::fprintf(stderr, "error: %s value '%s' out of range\n", flag,
                     text.c_str());
        std::exit(2);
    }
    return static_cast<unsigned>(v);
}

inline BenchArgs
parseArgs(int argc, char **argv)
{
    BenchArgs args;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a.rfind("--insts=", 0) == 0)
            args.insts = parseFlagNumber(a.substr(8), "--insts");
        else if (a == "--quick")
            args.insts = 20'000;
        else if (a.rfind("--bench=", 0) == 0)
            args.only = a.substr(8);
        else if (a.rfind("--workload=", 0) == 0) {
            args.only = a.substr(11);
            std::string err;
            if (!workloads::validate(args.only, err)) {
                std::fprintf(stderr, "error: --workload: %s\n",
                             err.c_str());
                std::exit(2);
            }
        } else if (a.rfind("--record-trace=", 0) == 0) {
            args.recordTrace = a.substr(15);
            if (args.recordTrace.empty()) {
                std::fprintf(stderr,
                             "error: --record-trace needs a file path\n");
                std::exit(2);
            }
        } else if (a.rfind("--families=", 0) == 0) {
            const std::string fam = a.substr(11);
            if (!harness::parseFamilies(fam, args.families)) {
                std::fprintf(stderr,
                             "error: bad value '%s' for --families"
                             " (want paper|synth|all)\n",
                             fam.c_str());
                std::exit(2);
            }
        } else if (a.rfind("--threads=", 0) == 0)
            args.threads = parseFlagUnsigned(a.substr(10), "--threads");
        else if (a.rfind("--shard=", 0) == 0) {
            const std::string spec = a.substr(8);
            const std::size_t slash = spec.find('/');
            if (slash != std::string::npos) {
                args.shardIndex = parseFlagUnsigned(
                    spec.substr(0, slash), "--shard");
                args.shardCount = parseFlagUnsigned(
                    spec.substr(slash + 1), "--shard");
            } else {
                args.shardCount = 0;  // force the validity error below
            }
        } else if (a.rfind("--cache-dir=", 0) == 0) {
            args.cacheDir = a.substr(12);
        } else if (a == "--no-cache") {
            args.noCache = true;
        } else if (a.rfind("--cache-max-mb=", 0) == 0) {
            args.cacheMaxMb =
                parseFlagNumber(a.substr(15), "--cache-max-mb");
        } else if (a.rfind("--mem-cache-max-mb=", 0) == 0) {
            args.memCacheMaxMb =
                parseFlagNumber(a.substr(19), "--mem-cache-max-mb");
        } else if (a.rfind("--emit-cells=", 0) == 0) {
            args.emitCells = a.substr(13);
            if (args.emitCells.empty()) {
                std::fprintf(stderr,
                             "error: --emit-cells needs a file path\n");
                std::exit(2);
            }
        } else if (a == "--progress") {
            args.progress = true;
        } else if (a.rfind("--profile=", 0) == 0) {
            const std::string path = a.substr(10);
            if (path.empty()) {
                std::fprintf(stderr,
                             "error: --profile needs a file path\n");
                std::exit(2);
            }
            // Truncate-create now: an unwritable path must fail before
            // a long sweep runs, not after it.
            if (!prof::enableFoldedOutput(path)) {
                std::fprintf(stderr,
                             "error: --profile: cannot create '%s'\n",
                             path.c_str());
                std::exit(2);
            }
            args.profile = true;
        } else {
            std::fprintf(stderr,
                         "error: unknown arg %s\n"
                         "usage: %s [--insts=N] [--quick] [--bench=X]"
                         " [--workload=X] [--families=paper|synth|all]"
                         " [--record-trace=F]"
                         " [--threads=N]"
                         " [--shard=i/n]"
                         " [--cache-dir=D] [--no-cache]"
                         " [--cache-max-mb=N] [--mem-cache-max-mb=N]"
                         " [--emit-cells=F] [--progress]"
                         " [--profile=F]\n",
                         a.c_str(), argv[0]);
            std::exit(2);
        }
    }
    if (args.shardCount < 1 || args.shardIndex >= args.shardCount) {
        std::fprintf(stderr, "error: need --shard=i/n with i<n\n");
        std::exit(2);
    }
    if (!args.recordTrace.empty()) {
        // Record mode: capture the committed stream once and exit
        // before the binary's sweep ever builds. Handled here so every
        // bench binary gets record support without per-binary code.
        if (args.only.empty()) {
            std::fprintf(stderr, "error: --record-trace requires a single"
                                 " workload (--workload=X)\n");
            std::exit(2);
        }
        Program prog = workloads::make(args.only, args.insts);
        // Generous halt budget: workloads sized to --insts halt well
        // within a few multiples; a runaway recording is fatal.
        trace::TraceData t =
            trace::record(prog, args.only, args.insts * 16 + 1'000'000);
        trace::writeFile(args.recordTrace, t);
        std::fprintf(stderr,
                     "recorded %llu committed insts of %s to %s\n",
                     static_cast<unsigned long long>(t.insts),
                     args.only.c_str(), args.recordTrace.c_str());
        std::exit(0);
    }
    return args;
}

inline harness::SweepOptions
sweepOptions(const BenchArgs &args)
{
    harness::SweepOptions opts;
    opts.threads = args.threads;
    opts.shardIndex = args.shardIndex;
    opts.shardCount = args.shardCount;
    opts.profile = args.profile;
    if (!args.noCache) {
        opts.cacheDir = args.cacheDir;
        opts.cacheMaxMb = args.cacheMaxMb;
    }
    return opts;
}

/**
 * The --progress event consumer: one stderr line per completed or
 * cache-served cell, streamed as session events arrive. sweep_driver
 * tees shard output live and forwards lines with this prefix, so a
 * multi-shard sweep shows per-cell progress instead of going dark
 * until merge time.
 */
inline harness::SessionCallback
progressCallback()
{
    return [](const harness::CellEvent &ev) {
        if (ev.kind == harness::CellEventKind::Started)
            return;
        const harness::CellOutcome &o = *ev.outcome;
        const char *how = !o.ok ? "FAIL"
                          : o.cached ? "cached"
                                     : "ok";
        // A failed cell has an empty result; the index still
        // identifies it (reportFailures prints the name).
        std::fprintf(stderr,
                     "progress: cell %zu %s/%s %s (%.3fs)\n",
                     ev.index, o.result.workload.c_str(),
                     o.result.config.c_str(), how, o.seconds);
        std::fflush(stderr);
    };
}

/** Write one lossless RunResult JSON line per successful cell, in
 * spec order ("-" = stdout) — the --emit-cells post-pass. */
inline void
emitCellLines(const std::string &path, const harness::SweepResults &res)
{
    std::FILE *f =
        path == "-" ? stdout : std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr,
                     "error: --emit-cells: cannot create '%s'\n",
                     path.c_str());
        std::exit(2);
    }
    for (std::size_t i = 0; i < res.spec().size(); ++i) {
        const harness::CellOutcome &o = res.outcome(i);
        if (o.ok)
            std::fprintf(f, "%s\n",
                         harness::runResultToJson(o.result).c_str());
    }
    if (f != stdout)
        std::fclose(f);
    else
        std::fflush(f);
}

/**
 * Run a bench sweep through the session API: cap the process-wide
 * in-memory result cache, open a SweepSession, stream --progress
 * lines from its event callback, and honor --emit-cells. This is the
 * whole execution path of every figure binary; sweepd drives the same
 * session API incrementally.
 */
inline harness::SweepResults
runBenchSweep(const harness::SweepSpec &spec, const BenchArgs &args)
{
    harness::processMemoryResultCache().setMaxBytes(
        args.memCacheMaxMb * 1024ull * 1024ull);
    harness::SweepSession session(spec, sweepOptions(args));
    harness::SessionCallback cb;
    if (args.progress)
        cb = progressCallback();
    harness::SweepResults res = session.run(cb);
    if (!args.emitCells.empty())
        emitCellLines(args.emitCells, res);
    return res;
}

inline std::vector<std::string>
selectSuite(const BenchArgs &args, const std::vector<std::string> &base)
{
    if (!args.only.empty())
        return {args.only};
    return harness::familySuite(args.families, base);
}

/**
 * Print every failed cell to stderr (a golden mismatch or any other
 * throw inside the cell). Figure rows whose group lost a cell are
 * skipped by the caller via groupOk().
 * @return the number of failures.
 */
inline std::size_t
reportFailures(const harness::SweepResults &res)
{
    std::size_t n = 0;
    for (std::size_t i = 0; i < res.spec().size(); ++i) {
        const harness::CellOutcome &o = res.outcome(i);
        if (o.ran && !o.ok) {
            ++n;
            std::fprintf(stderr, "error: sweep cell %s failed: %s\n",
                         res.spec().cell(i).name().c_str(),
                         o.error.c_str());
        }
    }
    return n;
}

} // namespace svw::bench

#endif // SVW_BENCH_BENCH_COMMON_HH
