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
#include <map>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "harness/executor.hh"
#include "harness/figures.hh"
#include "harness/serialize.hh"
#include "harness/session.hh"
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
    EXPECT_EQ(cellKey(a).hash(), k.hash());
    EXPECT_EQ(cellKey(a).material(), k.material());
    EXPECT_EQ(k.fileName().size(), 16u + 5u);

    // Naming and presentation fields are not identity: the same
    // (workload, insts, config) in another figure shares the entry.
    SweepCell renamed = a;
    renamed.group = "other";
    renamed.label = "column";
    renamed.baseline = true;
    EXPECT_EQ(cellKey(renamed).hash(), k.hash());
    EXPECT_EQ(cellKey(renamed).material(), k.material());

    // The material embeds the code-version stamp and every knob.
    EXPECT_NE(k.material().find(resultCacheCodeVersion), std::string::npos);
    EXPECT_NE(k.material().find("workload=gzip"), std::string::npos);
    EXPECT_NE(k.material().find("rle.maxPinnedRegs="), std::string::npos);

    // The exact material and file name of two real figure cells. A
    // --cache-dir filled by any earlier build is found by these bytes,
    // so a drift in the key renderer would silently orphan it.
    const SweepSpec f5 = fig5Spec({"gzip"}, 20'000);
    const CellKey k5 = cellKey(f5.cell(f5.index("gzip", "BASE")));
    EXPECT_EQ(k5.material(),
        "version=svw-sim-2|workload=gzip|insts=20000|golden=1|label=BASE|"
        "fetchWidth=8|dispatchWidth=8|issueWidth=8|commitWidth=8|"
        "intIssue=5|loadIssue=2|branchIssue=1|robEntries=512|"
        "iqEntries=200|numPhysRegs=448|renameCheckpoints=64|"
        "frontendDepth=7|mispredictRedirect=3|rexTransit=0|dcachePorts=1|"
        "bpred.hybridEntries=8192|bpred.btbEntries=2048|bpred.btbAssoc=2|"
        "bpred.rasEntries=32|mem.l1i=32768/2/64/2|mem.l1d=32768/2/64/2|"
        "mem.l2=2097152/8/64/15|mem.memLatency=150|"
        "mem.l2BusCyclesPerLine=4|mem.memBusCyclesPerLine=16|"
        "mem.l1dBanks=2|lsu.lqEntries=128|lsu.sqEntries=64|lsu.nlq=0|"
        "lsu.ssq=0|lsu.fsqEntries=16|lsu.fsqPorts=1|"
        "lsu.fwdBufEntriesPerBank=8|lsu.loadExtraLatency=0|"
        "lsu.lqValueCheck=0|lsu.storeIssueWidth=1|"
        "lsu.steeringEntries=4096|svw.enabled=0|svw.updateOnForward=1|"
        "svw.ssnBits=16|svw.ssbf.entries=512|svw.ssbf.granularityBytes=8|"
        "svw.ssbf.dualHash=0|svw.ssbf.infinite=0|"
        "svw.speculativeSsbfUpdate=1|rex.enabled=0|rex.perfect=0|"
        "rex.width=4|rex.storeBufferEntries=64|rex.cacheLatency=2|"
        "rex.regfileReadLatency=2|rex.svwReplacesReExecution=0|"
        "rle.enabled=0|rle.itEntries=512|rle.itAssoc=2|rle.squashReuse=1|"
        "rle.integrateAlu=1|rle.maxPinnedRegs=96|nlqsm=0");
    EXPECT_EQ(k5.fileName(), "e595f64dac1854c7.json");

    const SweepSpec f8 = fig8Spec({"vortex"}, 20'000);
    const CellKey k8 = cellKey(f8.cell(f8.index("vortex", "Bloom")));
    EXPECT_EQ(k8.material(),
        "version=svw-sim-2|workload=vortex|insts=20000|golden=1|"
        "label=SSQ+SVW+UPD|fetchWidth=8|dispatchWidth=8|issueWidth=8|"
        "commitWidth=8|intIssue=5|loadIssue=2|branchIssue=1|"
        "robEntries=512|iqEntries=200|numPhysRegs=448|"
        "renameCheckpoints=64|frontendDepth=7|mispredictRedirect=3|"
        "rexTransit=1|dcachePorts=1|bpred.hybridEntries=8192|"
        "bpred.btbEntries=2048|bpred.btbAssoc=2|bpred.rasEntries=32|"
        "mem.l1i=32768/2/64/2|mem.l1d=32768/2/64/2|"
        "mem.l2=2097152/8/64/15|mem.memLatency=150|"
        "mem.l2BusCyclesPerLine=4|mem.memBusCyclesPerLine=16|"
        "mem.l1dBanks=2|lsu.lqEntries=128|lsu.sqEntries=64|lsu.nlq=0|"
        "lsu.ssq=1|lsu.fsqEntries=16|lsu.fsqPorts=1|"
        "lsu.fwdBufEntriesPerBank=8|lsu.loadExtraLatency=0|"
        "lsu.lqValueCheck=0|lsu.storeIssueWidth=1|"
        "lsu.steeringEntries=4096|svw.enabled=1|svw.updateOnForward=1|"
        "svw.ssnBits=16|svw.ssbf.entries=512|svw.ssbf.granularityBytes=8|"
        "svw.ssbf.dualHash=1|svw.ssbf.infinite=0|"
        "svw.speculativeSsbfUpdate=1|rex.enabled=1|rex.perfect=0|"
        "rex.width=4|rex.storeBufferEntries=64|rex.cacheLatency=2|"
        "rex.regfileReadLatency=0|rex.svwReplacesReExecution=0|"
        "rle.enabled=0|rle.itEntries=512|rle.itAssoc=2|rle.squashReuse=1|"
        "rle.integrateAlu=1|rle.maxPinnedRegs=96|nlqsm=0");
    EXPECT_EQ(k8.fileName(), "7ef79a960739b491.json");
}

TEST(CellKey, EverySimulationInputChangesTheKey)
{
    SweepCell base = makeCell("g", "l", "gzip", 5'000);
    base.config.opt = OptMode::Nlq;
    base.config.svw = SvwMode::Upd;
    const CellKey k0 = cellKey(base);

    auto differs = [&k0](SweepCell c, const char *what) {
        const CellKey k = cellKey(c);
        EXPECT_NE(k.material(), k0.material()) << what;
        EXPECT_NE(k.hash(), k0.hash()) << what;
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
    EXPECT_NE(keyFor("synth:hashjoin:8").hash(), k0.hash()) << "seed";
    EXPECT_NE(keyFor("synth:chase:7").hash(), k0.hash()) << "kind";
    EXPECT_NE(keyFor("synth:hashjoin:7:buckets=128").hash(), k0.hash())
        << "param override";
    EXPECT_NE(keyFor("synth:hashjoin:7:buckets=128").hash(),
              keyFor("synth:hashjoin:7:buckets=64").hash())
        << "param value";

    // Cells carry the workload name verbatim, so the canonical recipe
    // spelled by the spec builders maps to the same entry.
    EXPECT_EQ(keyFor("synth:hashjoin:7").material(), k0.material());
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
    EXPECT_EQ(cellKey(cell).hash(), k0.hash()) << "stable while untouched";
    EXPECT_NE(k0.material().find("trace.payload="), std::string::npos)
        << k0.material();

    writeTrace("gzip", 4'000);  // same path, different recording
    const CellKey k1 = cellKey(cell);
    EXPECT_NE(k1.hash(), k0.hash());
    EXPECT_NE(k1.material(), k0.material());

    writeTrace("mcf", 2'000);  // different source kernel entirely
    const CellKey k2 = cellKey(cell);
    EXPECT_NE(k2.hash(), k0.hash());
    EXPECT_NE(k2.hash(), k1.hash());
}

TEST(CellKey, MemoryFrontEqualityIsMaterialEquality)
{
    // The memory front compares keys by their parts (the interned
    // config text by address), never by the material. Over every cell
    // the figure builders define, two keys must compare equal exactly
    // when their full materials are equal — and then hash alike.
    std::vector<CellKey> keys;
    for (const std::uint64_t insts : {20'000ull, 100'000ull}) {
        for (const FigureDef &def : figureRegistry()) {
            const SweepSpec spec = def.build(def.paperSuite(), insts);
            for (const SweepCell &c : spec.cells())
                keys.push_back(cellKey(c));
        }
        const SweepSpec synth = fig6Spec(workloads::synthSuiteNames(), insts);
        for (const SweepCell &c : synth.cells())
            keys.push_back(cellKey(c));
    }
    std::vector<std::string> materials;
    for (const CellKey &k : keys)
        materials.push_back(k.material());
    ASSERT_GT(keys.size(), 500u);

    std::size_t equalPairs = 0;
    for (std::size_t i = 0; i < keys.size(); ++i) {
        for (std::size_t j = i + 1; j < keys.size(); ++j) {
            const bool sameKey = keys[i] == keys[j];
            ASSERT_EQ(sameKey, materials[i] == materials[j])
                << materials[i] << "\nvs\n" << materials[j];
            if (sameKey) {
                ++equalPairs;
                ASSERT_EQ(CellKeyHash()(keys[i]), CellKeyHash()(keys[j]));
            }
        }
    }
    EXPECT_GT(equalPairs, 0u) << "figures share no cell: sharing untested";

    // The same through the map itself: every key is served the entry
    // stored under its material's first key.
    MemoryResultCache cache;
    cache.setMaxBytes(0);
    std::map<std::string, std::size_t> first;
    for (std::size_t i = 0; i < keys.size(); ++i) {
        if (first.emplace(materials[i], i).second) {
            RunResult r;
            r.cycles = i;
            cache.put(keys[i], r);
        }
    }
    EXPECT_EQ(cache.entries(), first.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
        RunResult out;
        ASSERT_TRUE(cache.get(keys[i], out));
        EXPECT_EQ(out.cycles, first.at(materials[i]));
    }
}

TEST(MemoryResultCache, HitServesTheStoredLineByteForByte)
{
    // Each entry stores its result line; every way an entry can be
    // written or refreshed must serve exactly runResultToJson(result).
    const SweepSpec spec = smallSpec();
    MemoryResultCache cache;
    auto result = [](const std::string &workload, std::uint64_t cycles) {
        RunResult r;
        r.workload = workload;
        r.config = "NLQ+SVW+UPD \"quoted\"";
        r.cycles = cycles;
        r.insts = 3'000;
        r.ipc = double(r.insts) / double(cycles);
        r.rexRate = 1.0 / 3.0;
        return r;
    };
    auto expectLine = [&cache](const CellKey &k, const RunResult &want) {
        RunResult out;
        std::string line;
        ASSERT_TRUE(cache.get(k, out, line));
        EXPECT_EQ(line, runResultToJson(want));
        EXPECT_EQ(runResultToJson(out), runResultToJson(want));
    };

    // Fresh puts; bytes() grows by at least each entry's result and
    // its line.
    std::size_t bytes = cache.bytes();
    std::vector<RunResult> results;
    for (std::size_t i = 0; i < spec.size(); ++i) {
        results.push_back(result(spec.cell(i).workload, 7'000 + i));
        cache.put(cellKey(spec.cell(i)), results[i]);
        EXPECT_GE(cache.bytes(), bytes + sizeof(RunResult) +
                                     runResultToJson(results[i]).size());
        bytes = cache.bytes();
    }
    for (std::size_t i = 0; i < spec.size(); ++i)
        expectLine(cellKey(spec.cell(i)), results[i]);

    // Overwrite, through both put overloads.
    results[0] = result("gzip", 123'456'789);
    cache.put(cellKey(spec.cell(0)), results[0]);
    expectLine(cellKey(spec.cell(0)), results[0]);
    results[1] = result("gzip", 42);
    cache.put(cellKey(spec.cell(1)), results[1],
              runResultToJson(results[1]));
    expectLine(cellKey(spec.cell(1)), results[1]);

    // LRU refresh: touch cell 0, then cap the cache so the least
    // recently used entries go; the refreshed entry keeps its line.
    expectLine(cellKey(spec.cell(0)), results[0]);
    cache.setMaxBytes(cache.bytes() / spec.size() * 2);
    EXPECT_LT(cache.entries(), spec.size());
    expectLine(cellKey(spec.cell(0)), results[0]);
}

TEST(ResultCache, DiskPromotedAndFreshLinesAreTheStreamedLines)
{
    // A fresh result's Done line is handed to the memory front, and a
    // disk hit's line is rendered once on promotion. Either way the
    // memory entry serves the line the session streamed, and a later
    // memory hit streams it again byte for byte.
    processMemoryResultCache().clear();
    TempDir dir;
    const SweepSpec spec = smallSpec(2'500);
    SweepOptions opts;
    opts.cacheDir = dir.path;

    auto streamed = [&spec, &opts](CellEventKind want) {
        std::vector<std::string> lines(spec.size());
        SweepSession session(spec, opts);
        session.run([&](const CellEvent &ev) {
            if (ev.kind == CellEventKind::Started)
                return;
            EXPECT_EQ(ev.kind, want) << ev.cell->name();
            lines[ev.index] = ev.resultLine;
        });
        return lines;
    };
    auto memoryLines = [&spec] {
        std::vector<std::string> lines;
        for (const SweepCell &c : spec.cells()) {
            RunResult out;
            std::string line;
            EXPECT_TRUE(
                processMemoryResultCache().get(cellKey(c), out, line));
            EXPECT_EQ(line, runResultToJson(out));
            lines.push_back(line);
        }
        return lines;
    };

    const std::vector<std::string> cold = streamed(CellEventKind::Done);
    EXPECT_EQ(memoryLines(), cold);

    processMemoryResultCache().clear();
    const std::uint64_t calls = runCellCalls();
    EXPECT_EQ(streamed(CellEventKind::CachedHit), cold);  // disk hits
    EXPECT_EQ(memoryLines(), cold);
    EXPECT_EQ(streamed(CellEventKind::CachedHit), cold);  // memory hits
    EXPECT_EQ(runCellCalls(), calls);
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

    // The cold run promoted every result into the memory front, so the
    // warm legs above never read the entry files. Drop the front: this
    // leg parses each entry back from disk and re-renders its line.
    processMemoryResultCache().clear();
    const std::uint64_t calls3 = runCellCalls();
    const SweepResults warmDisk = runSweep(spec, opts);
    EXPECT_EQ(runCellCalls() - calls3, 0u) << "disk leg simulated";
    for (std::size_t i = 0; i < spec.size(); ++i)
        EXPECT_TRUE(warmDisk.outcome(i).cached);
    EXPECT_EQ(resultsJson(cold), resultsJson(warmDisk));
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
        EXPECT_EQ(material, key.material());
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

    // The exact entry line: the on-disk format every --cache-dir holds.
    EXPECT_EQ(cacheEntryToLine(material, r),
              "{\"v\":1,\"material\":\"version=x|workload=perl.d|"
              "quote\\\"\\\\|\",\"result\":{\"workload\":\"perl.d\","
              "\"config\":\"RLE+SVW+UPD\",\"halted\":false,"
              "\"golden_ok\":true,\"cycles\":987654321,\"insts\":0,"
              "\"loads\":0,\"stores\":0,\"ipc\":0.2857142857142857,"
              "\"loads_marked\":0,\"loads_reexecuted\":0,"
              "\"loads_filtered_by_svw\":0,\"rex_flushes\":0,"
              "\"rex_rate\":0,\"marked_rate\":0,\"elim_rate\":0,"
              "\"bypass_share\":0,\"fsq_load_share\":0,"
              "\"branch_squashes\":0,\"ordering_squashes\":0,"
              "\"wrap_drains\":0}}\n");

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
