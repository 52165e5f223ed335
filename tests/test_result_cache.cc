/**
 * @file
 * Persistent result-cache tests: key derivation and sensitivity, the
 * cold-populate / warm-serve cycle (warm must be byte-identical with
 * zero simulations), invalidation on any configuration or budget
 * change, atomic concurrent writers, corruption tolerance, and the
 * cache-off path.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "harness/executor.hh"
#include "harness/serialize.hh"
#include "harness/sweep.hh"
#include "prog/trace.hh"
#include "prog/workloads/workloads.hh"

using namespace svw;
using namespace svw::harness;

namespace {

SweepCell
makeCell(const std::string &group, const std::string &label,
         const std::string &workload, std::uint64_t insts,
         bool baseline = false)
{
    SweepCell c;
    c.group = group;
    c.label = label;
    c.workload = workload;
    c.targetInsts = insts;
    c.baseline = baseline;
    return c;
}

/** Two-group, four-cell spec, small enough for unit-test budgets. */
SweepSpec
smallSpec(std::uint64_t insts = 3'000)
{
    SweepSpec spec("cache-test");
    for (const std::string w : {"gzip", "crafty"}) {
        SweepCell base = makeCell(w, "BASE", w, insts, true);
        SweepCell nlq = makeCell(w, "NLQ", w, insts);
        nlq.config.opt = OptMode::Nlq;
        nlq.config.svw = SvwMode::Upd;
        spec.add(base);
        spec.add(nlq);
    }
    return spec;
}

/** Fresh private temp directory. */
std::string
makeTempDir()
{
    char tmpl[] = "/tmp/svw-result-cache-test-XXXXXX";
    const char *dir = ::mkdtemp(tmpl);
    EXPECT_NE(dir, nullptr);
    return dir ? dir : "";
}

struct TempDir
{
    std::string path = makeTempDir();
    ~TempDir() { std::filesystem::remove_all(path); }
};

std::vector<std::string>
resultsJson(const SweepResults &res)
{
    std::vector<std::string> out;
    for (std::size_t i = 0; i < res.spec().size(); ++i)
        out.push_back(runResultToJson(res.outcome(i).result));
    return out;
}

} // namespace

TEST(CellKey, StableAndNameIndependent)
{
    SweepCell a = makeCell("g", "l", "gzip", 5'000);
    const CellKey k = cellKey(a);
    EXPECT_EQ(cellKey(a).hash, k.hash);
    EXPECT_EQ(cellKey(a).material, k.material);
    EXPECT_EQ(k.fileName().size(), 16u + 5u);

    // Naming and presentation fields are not identity: the same
    // (workload, insts, config) in another figure shares the entry.
    SweepCell renamed = a;
    renamed.group = "other";
    renamed.label = "column";
    renamed.baseline = true;
    EXPECT_EQ(cellKey(renamed).hash, k.hash);
    EXPECT_EQ(cellKey(renamed).material, k.material);

    // The material embeds the code-version stamp and every knob.
    EXPECT_NE(k.material.find(resultCacheCodeVersion), std::string::npos);
    EXPECT_NE(k.material.find("workload=gzip"), std::string::npos);
    EXPECT_NE(k.material.find("rle.maxPinnedRegs="), std::string::npos);
}

TEST(CellKey, EverySimulationInputChangesTheKey)
{
    SweepCell base = makeCell("g", "l", "gzip", 5'000);
    base.config.opt = OptMode::Nlq;
    base.config.svw = SvwMode::Upd;
    const CellKey k0 = cellKey(base);

    auto differs = [&k0](SweepCell c, const char *what) {
        const CellKey k = cellKey(c);
        EXPECT_NE(k.material, k0.material) << what;
        EXPECT_NE(k.hash, k0.hash) << what;
    };

    {
        SweepCell c = base;
        c.workload = "mcf";
        differs(c, "workload");
    }
    {
        SweepCell c = base;
        c.targetInsts = 5'001;
        differs(c, "insts");
    }
    {
        SweepCell c = base;
        c.goldenCheck = false;
        differs(c, "goldenCheck");
    }
    {
        SweepCell c = base;
        c.config.machine = Machine::FourWide;
        differs(c, "machine");
    }
    {
        SweepCell c = base;
        c.config.opt = OptMode::Ssq;
        differs(c, "opt");
    }
    {
        SweepCell c = base;
        c.config.svw = SvwMode::NoUpd;
        differs(c, "svw mode");
    }
    {
        SweepCell c = base;
        c.config.ssnBits = 12;
        differs(c, "ssnBits");
    }
    {
        SweepCell c = base;
        c.config.ssbf.entries = 128;
        differs(c, "ssbf.entries");
    }
    {
        SweepCell c = base;
        c.config.ssbf.dualHash = true;
        differs(c, "ssbf.dualHash");
    }
    {
        SweepCell c = base;
        c.config.dcachePorts = 2;
        differs(c, "dcachePorts");
    }
    {
        SweepCell c = base;
        c.config.rleSquashReuse = false;
        differs(c, "rleSquashReuse");
    }
    {
        SweepCell c = base;
        c.config.nlqsm = true;
        differs(c, "nlqsm");
    }
    {
        SweepCell c = base;
        c.config.svwReplace = true;
        differs(c, "svwReplace");
    }
    {
        SweepCell c = base;
        c.config.lqValueCheck = true;
        differs(c, "lqValueCheck");
    }
    {
        SweepCell c = base;
        c.config.speculativeSsbfUpdate = false;
        differs(c, "speculativeSsbfUpdate");
    }
}

TEST(CellKey, SynthRecipeIsIdentity)
{
    // Synthetic workloads are addressed by their full recipe: kind,
    // seed, and every parameter override must distinguish cache
    // entries, while spelling variants of the same recipe must not.
    SweepCell base = makeCell("g", "l", "synth:hashjoin:7", 5'000);
    const CellKey k0 = cellKey(base);

    auto keyFor = [&base](const std::string &workload) {
        SweepCell c = base;
        c.workload = workload;
        return cellKey(c);
    };
    EXPECT_NE(keyFor("synth:hashjoin:8").hash, k0.hash) << "seed";
    EXPECT_NE(keyFor("synth:chase:7").hash, k0.hash) << "kind";
    EXPECT_NE(keyFor("synth:hashjoin:7:buckets=128").hash, k0.hash)
        << "param override";
    EXPECT_NE(keyFor("synth:hashjoin:7:buckets=128").hash,
              keyFor("synth:hashjoin:7:buckets=64").hash)
        << "param value";

    // Cells carry the workload name verbatim, so the canonical recipe
    // spelled by the spec builders maps to the same entry.
    EXPECT_EQ(keyFor("synth:hashjoin:7").material, k0.material);
    // Synth names are self-describing: no content augment is added.
    EXPECT_EQ(workloads::cacheKeyAugment("synth:hashjoin:7"), "");
}

TEST(CellKey, TraceWorkloadKeyTracksFileContent)
{
    // A trace workload's name is just a path — the same path can hold
    // different recordings over time, so the key embeds the file's
    // payload checksum. Rewriting the file must miss; an untouched
    // file must keep hitting.
    TempDir dir;
    const std::string path = dir.path + "/key.svwtrace";
    auto writeTrace = [&path](const std::string &kernel,
                              std::uint64_t insts) {
        Program prog = workloads::make(kernel, insts);
        trace::writeFile(path, trace::record(prog, kernel, 100'000'000));
    };

    writeTrace("gzip", 2'000);
    SweepCell cell = makeCell("g", "l", "trace:" + path, 2'000);
    const CellKey k0 = cellKey(cell);
    EXPECT_EQ(cellKey(cell).hash, k0.hash) << "stable while untouched";
    EXPECT_NE(k0.material.find("trace.payload="), std::string::npos)
        << k0.material;

    writeTrace("gzip", 4'000);  // same path, different recording
    const CellKey k1 = cellKey(cell);
    EXPECT_NE(k1.hash, k0.hash);
    EXPECT_NE(k1.material, k0.material);

    writeTrace("mcf", 2'000);  // different source kernel entirely
    const CellKey k2 = cellKey(cell);
    EXPECT_NE(k2.hash, k0.hash);
    EXPECT_NE(k2.hash, k1.hash);
}

TEST(CellKey, Cacheability)
{
    SweepCell plain = makeCell("g", "l", "gzip", 2'000);
    EXPECT_TRUE(cellCacheable(plain));

    SweepCell hooked = plain;
    hooked.hook = [](Core &) {};
    EXPECT_FALSE(cellCacheable(hooked));
}

TEST(ResultCache, ColdPopulatesWarmServesByteIdenticalWithZeroRuns)
{
    // The process-wide memory front (harness/executor.hh
    // MemoryResultCache) is keyed by material, not directory, so a
    // cell simulated by an earlier test would hit it and never reach
    // the fresh disk store this test is exercising. Drop it first.
    processMemoryResultCache().clear();
    TempDir dir;
    const SweepSpec spec = smallSpec();

    SweepOptions opts;
    opts.cacheDir = dir.path;

    const std::uint64_t calls0 = runCellCalls();
    const SweepResults cold = runSweep(spec, opts);
    EXPECT_EQ(runCellCalls() - calls0, spec.size());
    for (std::size_t i = 0; i < spec.size(); ++i) {
        EXPECT_TRUE(cold.outcome(i).ok);
        EXPECT_FALSE(cold.outcome(i).cached);
    }
    // One entry file per cell, named by the key hash.
    for (std::size_t i = 0; i < spec.size(); ++i) {
        EXPECT_TRUE(std::filesystem::exists(
            dir.path + "/" + cellKey(spec.cell(i)).fileName()));
    }

    const std::uint64_t calls1 = runCellCalls();
    const SweepResults warm = runSweep(spec, opts);
    EXPECT_EQ(runCellCalls() - calls1, 0u) << "warm run simulated";
    for (std::size_t i = 0; i < spec.size(); ++i) {
        EXPECT_TRUE(warm.outcome(i).ok);
        EXPECT_TRUE(warm.outcome(i).cached);
    }
    EXPECT_EQ(resultsJson(cold), resultsJson(warm));

    // Worker threads serve hits identically (nothing left to run).
    SweepOptions par = opts;
    par.threads = 4;
    const std::uint64_t calls2 = runCellCalls();
    const SweepResults warmPar = runSweep(spec, par);
    EXPECT_EQ(runCellCalls() - calls2, 0u);
    EXPECT_EQ(resultsJson(cold), resultsJson(warmPar));
}

TEST(ResultCache, AnyInputChangeMissesOnlyThatCell)
{
    processMemoryResultCache().clear();  // test the disk store
    TempDir dir;
    SweepOptions opts;
    opts.cacheDir = dir.path;
    runSweep(smallSpec(), opts);  // populate

    // Same spec, one cell's config nudged: only that cell re-runs.
    SweepSpec changed("cache-test");
    for (const std::string w : {"gzip", "crafty"}) {
        SweepCell base = makeCell(w, "BASE", w, 3'000, true);
        SweepCell nlq = makeCell(w, "NLQ", w, 3'000);
        nlq.config.opt = OptMode::Nlq;
        nlq.config.svw = SvwMode::Upd;
        if (w == "crafty")
            nlq.config.ssnBits = 12;
        changed.add(base);
        changed.add(nlq);
    }
    const std::uint64_t calls0 = runCellCalls();
    const SweepResults res = runSweep(changed, opts);
    EXPECT_EQ(runCellCalls() - calls0, 1u);
    EXPECT_FALSE(res.outcome(changed.index("crafty", "NLQ")).cached);
    EXPECT_TRUE(res.outcome(changed.index("gzip", "NLQ")).cached);

    // An insts change misses every cell.
    const std::uint64_t calls1 = runCellCalls();
    runSweep(smallSpec(2'000), opts);
    EXPECT_EQ(runCellCalls() - calls1, smallSpec(2'000).size());
}

TEST(ResultCache, DisabledAndNonCacheableCellsAlwaysRun)
{
    TempDir dir;
    SweepOptions cached;
    cached.cacheDir = dir.path;
    runSweep(smallSpec(), cached);  // populate

    // Empty cacheDir (the --no-cache mapping) bypasses a warm store.
    SweepOptions off;
    const std::uint64_t calls0 = runCellCalls();
    const SweepResults res = runSweep(smallSpec(), off);
    EXPECT_EQ(runCellCalls() - calls0, smallSpec().size());
    for (std::size_t i = 0; i < res.spec().size(); ++i)
        EXPECT_FALSE(res.outcome(i).cached);

    // Hooked cells run even with a warm cache directory.
    SweepSpec hooked("hooked");
    SweepCell h = makeCell("g", "h", "gzip", 3'000, true);
    h.hook = [](Core &) {};
    hooked.add(h);
    for (int round = 0; round < 2; ++round) {
        const std::uint64_t c0 = runCellCalls();
        const SweepResults r = runSweep(hooked, cached);
        EXPECT_EQ(runCellCalls() - c0, 1u) << "round " << round;
        EXPECT_FALSE(r.outcome(0).cached);
    }
}

TEST(ResultCache, CorruptOrMismatchedEntriesDegradeToMisses)
{
    processMemoryResultCache().clear();  // test the disk store
    TempDir dir;
    const SweepSpec spec = smallSpec();
    SweepOptions opts;
    opts.cacheDir = dir.path;
    const SweepResults cold = runSweep(spec, opts);

    const CellKey key = cellKey(spec.cell(0));
    const std::string file = dir.path + "/" + key.fileName();

    // Truncated/garbage file: miss, re-run, and the entry heals.
    {
        std::ofstream out(file, std::ios::trunc);
        out << "{\"v\":1,\"material\":\"trunc";
    }
    RunResult ignored;
    EXPECT_FALSE(ResultCache(dir.path).get(key, ignored));
    // The cold run promoted every result into the memory front, which
    // would serve the corrupted cell without ever reading (or healing)
    // the disk entry — drop it so the heal path is what runs.
    processMemoryResultCache().clear();
    const std::uint64_t c0 = runCellCalls();
    const SweepResults healed = runSweep(spec, opts);
    EXPECT_EQ(runCellCalls() - c0, 1u);
    EXPECT_EQ(resultsJson(cold), resultsJson(healed));
    EXPECT_TRUE(ResultCache(dir.path).get(key, ignored));

    // A well-formed entry whose material does not match the key (hash
    // collision stand-in) is rejected, not served.
    {
        std::ofstream out(file, std::ios::trunc);
        out << cacheEntryToLine("not the right material",
                                cold.outcome(0).result);
    }
    EXPECT_FALSE(ResultCache(dir.path).get(key, ignored));
}

TEST(ResultCache, ConcurrentWritersNeverExposeAPartialEntry)
{
    TempDir dir;
    SweepCell cell = makeCell("g", "l", "gzip", 4'000);
    const CellKey key = cellKey(cell);
    const std::string file = dir.path + "/" + key.fileName();

    RunResult payload;
    payload.workload = "gzip";
    payload.config = "BASE";
    payload.ipc = 1.0 / 3.0;
    // Long error-free filler so a torn write would be observable.
    payload.cycles = 0x0123456789abcdefull;

    // Four writer processes hammer the same key...
    constexpr int kWriters = 4, kRounds = 200;
    std::vector<pid_t> pids;
    for (int w = 0; w < kWriters; ++w) {
        const pid_t pid = ::fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            ResultCache cache(dir.path);
            RunResult mine = payload;
            mine.insts = static_cast<std::uint64_t>(w);
            for (int r = 0; r < kRounds; ++r)
                cache.put(key, mine);
            ::_exit(0);
        }
        pids.push_back(pid);
    }

    // ...while the parent reads: every observed file content must be a
    // complete, parseable entry with the right material (rename(2)
    // atomicity), and every successful get() a valid payload.
    ResultCache cache(dir.path);
    int observed = 0;
    for (int r = 0; r < 2'000; ++r) {
        std::ifstream in(file);
        if (!in) {
            ::usleep(50);  // writers may not have renamed yet
            continue;
        }
        std::string line;
        if (!std::getline(in, line) || line.empty())
            continue;
        std::string material;
        RunResult got;
        ASSERT_TRUE(cacheEntryFromLine(line, material, got))
            << "torn cache entry: " << line;
        EXPECT_EQ(material, key.material);
        EXPECT_LT(got.insts, static_cast<std::uint64_t>(kWriters));
        EXPECT_EQ(got.cycles, payload.cycles);
        ++observed;
        RunResult viaGet;
        ASSERT_TRUE(cache.get(key, viaGet));
        EXPECT_EQ(viaGet.cycles, payload.cycles);
    }
    EXPECT_GT(observed, 0);

    for (pid_t pid : pids) {
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    }

    // No temp droppings: every writer renamed its file into place.
    int tmpFiles = 0;
    for (const auto &e : std::filesystem::directory_iterator(dir.path)) {
        if (e.path().filename().string().find(".tmp.") !=
            std::string::npos) {
            ++tmpFiles;
        }
    }
    EXPECT_EQ(tmpFiles, 0);
}

TEST(ResultCache, TrimEvictsOldestEntriesFirstAndSparesTempFiles)
{
    namespace fs = std::filesystem;
    TempDir dir;
    ResultCache cache(dir.path);

    RunResult payload;
    payload.workload = "gzip";
    payload.config = "BASE";
    payload.cycles = 42;

    // Five entries with strictly increasing access stamps (explicit
    // mtimes — filesystem timestamp granularity could otherwise tie).
    std::vector<std::string> files;
    std::uint64_t entryBytes = 0;
    const auto now = fs::file_time_type::clock::now();
    for (int i = 0; i < 5; ++i) {
        SweepCell cell = makeCell("g", "l", "gzip", 1'000 + i);
        const CellKey key = cellKey(cell);
        cache.put(key, payload);
        const std::string file = dir.path + "/" + key.fileName();
        ASSERT_TRUE(fs::exists(file));
        fs::last_write_time(file, now - std::chrono::minutes(50 - i));
        files.push_back(file);
        entryBytes = fs::file_size(file);  // all payloads identical
    }
    // An in-flight writer's temp file and a user dropping, both older
    // than every entry: neither is a trim candidate.
    const std::string tmp = files[0] + ".tmp.otherhost.123";
    const std::string foreign = dir.path + "/README";
    for (const std::string &f : {tmp, foreign}) {
        std::ofstream(f) << "not an entry";
        fs::last_write_time(f, now - std::chrono::hours(10));
    }

    // Room for two entries: the three oldest go, newest two stay.
    cache.trimToBytes(2 * entryBytes);
    EXPECT_FALSE(fs::exists(files[0]));
    EXPECT_FALSE(fs::exists(files[1]));
    EXPECT_FALSE(fs::exists(files[2]));
    EXPECT_TRUE(fs::exists(files[3]));
    EXPECT_TRUE(fs::exists(files[4]));
    EXPECT_TRUE(fs::exists(tmp));
    EXPECT_TRUE(fs::exists(foreign));

    // A bound that already holds is a no-op.
    cache.trimToBytes(2 * entryBytes);
    EXPECT_TRUE(fs::exists(files[3]));
    EXPECT_TRUE(fs::exists(files[4]));

    // Zero evicts every entry but still never touches non-entries.
    cache.trimToBytes(0);
    EXPECT_FALSE(fs::exists(files[3]));
    EXPECT_FALSE(fs::exists(files[4]));
    EXPECT_TRUE(fs::exists(tmp));
    EXPECT_TRUE(fs::exists(foreign));
}

TEST(ResultCache, GetRefreshesRecencySoHitEntriesSurviveTrim)
{
    namespace fs = std::filesystem;
    TempDir dir;
    ResultCache cache(dir.path);

    RunResult payload;
    payload.workload = "gzip";
    payload.config = "BASE";

    const SweepCell oldCell = makeCell("g", "a", "gzip", 1'000);
    const SweepCell newCell = makeCell("g", "b", "gzip", 2'000);
    cache.put(cellKey(oldCell), payload);
    cache.put(cellKey(newCell), payload);
    const std::string oldFile =
        dir.path + "/" + cellKey(oldCell).fileName();
    const std::string newFile =
        dir.path + "/" + cellKey(newCell).fileName();

    // Backdate both, then hit only the older entry: the hit must
    // refresh its stamp past the unread one's.
    const auto now = fs::file_time_type::clock::now();
    fs::last_write_time(oldFile, now - std::chrono::hours(2));
    fs::last_write_time(newFile, now - std::chrono::hours(1));
    RunResult got;
    ASSERT_TRUE(cache.get(cellKey(oldCell), got));

    cache.trimToBytes(fs::file_size(oldFile));
    EXPECT_TRUE(fs::exists(oldFile)) << "served entry was evicted";
    EXPECT_FALSE(fs::exists(newFile));
}

TEST(ResultCache, CacheEntryLineRoundTripsMaterialAndResult)
{
    RunResult r;
    r.workload = "perl.d";
    r.config = "RLE+SVW+UPD";
    r.cycles = 987654321;
    r.ipc = 2.0 / 7.0;
    const std::string material = "version=x|workload=perl.d|quote\"\\|";

    std::string backMaterial;
    RunResult back;
    ASSERT_TRUE(cacheEntryFromLine(cacheEntryToLine(material, r),
                                   backMaterial, back));
    EXPECT_EQ(backMaterial, material);
    EXPECT_EQ(back.cycles, r.cycles);
    EXPECT_EQ(back.ipc, r.ipc);
    EXPECT_EQ(back.workload, r.workload);

    std::string m;
    RunResult rr;
    EXPECT_FALSE(cacheEntryFromLine("", m, rr));
    EXPECT_FALSE(cacheEntryFromLine("{\"v\":2,\"material\":\"a\","
                                    "\"result\":{}}",
                                    m, rr));
    EXPECT_FALSE(cacheEntryFromLine("{\"v\":1}", m, rr));
}
