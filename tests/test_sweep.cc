/**
 * @file
 * Sweep-engine tests: spec bookkeeping, result-format exactness, the
 * parallel-execution determinism invariant (--threads=N output ==
 * in-caller output == a plain sequential runOne loop), shard
 * partitioning, per-cell failure reporting, and the workload-program
 * cache.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

#include "harness/executor.hh"
#include "harness/figures.hh"
#include "harness/report.hh"
#include "harness/serialize.hh"
#include "harness/sweep.hh"
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

} // namespace

TEST(SweepSpec, IndexesGroupsAndBaselines)
{
    SweepSpec spec("demo");
    EXPECT_EQ(spec.add(makeCell("g1", "a", "gzip", 1000, true)), 0u);
    EXPECT_EQ(spec.add(makeCell("g1", "b", "gzip", 1000)), 1u);
    EXPECT_EQ(spec.add(makeCell("g2", "a", "mcf", 1000, true)), 2u);
    EXPECT_EQ(spec.size(), 3u);
    EXPECT_EQ(spec.groups(), (std::vector<std::string>{"g1", "g2"}));
    EXPECT_EQ(spec.groupIndex("g2"), 1u);
    EXPECT_EQ(spec.index("g1", "b"), 1u);
    EXPECT_EQ(spec.baselineIndex("g1"), 0u);
    EXPECT_EQ(spec.baselineIndex("g2"), 2u);
    EXPECT_THROW(spec.index("g1", "zzz"), std::logic_error);
    EXPECT_THROW(spec.add(makeCell("g1", "a", "gzip", 1000)),
                 std::logic_error);
    // Second baseline in one group is rejected.
    EXPECT_THROW(spec.add(makeCell("g2", "b2", "mcf", 1000, true)),
                 std::logic_error);
}

TEST(SweepSerialize, RunResultRoundTripsExactly)
{
    RunResult r;
    r.workload = "perl.d";
    r.config = "SSQ+SVW+UPD";
    r.halted = true;
    r.goldenOk = false;
    r.cycles = 0xdeadbeefcafe;
    r.insts = 123456789;
    r.loads = 42;
    r.stores = 7;
    r.ipc = 1.0 / 3.0;
    r.loadsMarked = 11;
    r.loadsReExecuted = 5;
    r.loadsFilteredBySvw = 6;
    r.rexFlushes = 1;
    r.rexRate = 2.0 / 7.0;
    r.markedRate = 1e-17;
    r.elimRate = 99.999999999999986;
    r.bypassShare = 0.1;
    r.fsqLoadShare = 123.4567890123456789;
    r.branchSquashes = 100;
    r.orderingSquashes = 0;
    r.wrapDrains = 3;

    RunResult back;
    ASSERT_TRUE(runResultFromJson(runResultToJson(r), back));
    EXPECT_EQ(back.workload, r.workload);
    EXPECT_EQ(back.config, r.config);
    EXPECT_EQ(back.halted, r.halted);
    EXPECT_EQ(back.goldenOk, r.goldenOk);
    EXPECT_EQ(back.cycles, r.cycles);
    EXPECT_EQ(back.insts, r.insts);
    EXPECT_EQ(back.loads, r.loads);
    EXPECT_EQ(back.stores, r.stores);
    // Exact bit equality, not near: the figure output depends on it.
    EXPECT_EQ(back.ipc, r.ipc);
    EXPECT_EQ(back.rexRate, r.rexRate);
    EXPECT_EQ(back.markedRate, r.markedRate);
    EXPECT_EQ(back.elimRate, r.elimRate);
    EXPECT_EQ(back.bypassShare, r.bypassShare);
    EXPECT_EQ(back.fsqLoadShare, r.fsqLoadShare);
    EXPECT_EQ(back.loadsMarked, r.loadsMarked);
    EXPECT_EQ(back.loadsReExecuted, r.loadsReExecuted);
    EXPECT_EQ(back.loadsFilteredBySvw, r.loadsFilteredBySvw);
    EXPECT_EQ(back.rexFlushes, r.rexFlushes);
    EXPECT_EQ(back.branchSquashes, r.branchSquashes);
    EXPECT_EQ(back.orderingSquashes, r.orderingSquashes);
    EXPECT_EQ(back.wrapDrains, r.wrapDrains);
}

TEST(SweepSerialize, NonFiniteDoublesAreValidJsonAndRoundTrip)
{
    // %.17g would print bare nan/inf tokens — not JSON, so a cached
    // entry would not re-parse in an external reader. They are encoded
    // as distinguished strings instead, and the round trip is exact.
    RunResult r;
    r.ipc = std::numeric_limits<double>::quiet_NaN();
    r.rexRate = std::numeric_limits<double>::infinity();
    r.markedRate = -std::numeric_limits<double>::infinity();

    const std::string json = runResultToJson(r);
    EXPECT_EQ(json.find(":nan"), std::string::npos) << json;
    EXPECT_EQ(json.find(":inf"), std::string::npos) << json;
    EXPECT_EQ(json.find(":-inf"), std::string::npos) << json;
    EXPECT_NE(json.find("\"ipc\":\"NaN\""), std::string::npos) << json;
    EXPECT_NE(json.find("\"rex_rate\":\"Infinity\""), std::string::npos);
    EXPECT_NE(json.find("\"marked_rate\":\"-Infinity\""),
              std::string::npos);

    RunResult back;
    ASSERT_TRUE(runResultFromJson(json, back));
    EXPECT_TRUE(std::isnan(back.ipc));
    EXPECT_EQ(back.rexRate, std::numeric_limits<double>::infinity());
    EXPECT_EQ(back.markedRate, -std::numeric_limits<double>::infinity());

    // Finite values keep the plain %.17g path.
    EXPECT_EQ(jsonDouble(0.5), "0.5");
    EXPECT_EQ(jsonDouble(std::numeric_limits<double>::quiet_NaN()),
              "\"NaN\"");

    RunResult junk;
    EXPECT_FALSE(
        runResultFromJson("{\"ipc\":\"NotANumberSpelledWrong\"}", junk));
}

TEST(SweepProgramCache, BuildsEachProgramOnce)
{
    ProgramCache cache;
    const Program &a = cache.get("gzip", 5000);
    const Program &b = cache.get("gzip", 5000);
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(cache.builds(), 1u);
    const Program &c = cache.get("gzip", 6000);
    EXPECT_NE(&a, &c);
    EXPECT_EQ(cache.builds(), 2u);

    // The by-reference runOne over the cached program is the same code
    // path (and result) as the build-it-yourself overload.
    RunRequest req;
    req.workload = "gzip";
    req.targetInsts = 5000;
    req.config.opt = OptMode::Nlq;
    req.config.svw = SvwMode::Upd;
    const RunResult viaCache = runOne(req, a);
    const RunResult rebuilt = runOne(req);
    EXPECT_EQ(runResultToJson(viaCache), runResultToJson(rebuilt));
}

/**
 * A fig5 --quick sweep produces the same per-cell results at
 * --threads=4 as in the caller, and both equal a plain sequential
 * runOne loop over the same cells. Compared through the lossless
 * result format, so equality is bit-exact — which makes the formatted
 * figure byte-identical too.
 */
TEST(SweepExecutor, Fig5QuickParallelMatchesSequentialAndGolden)
{
    const SweepSpec spec = fig5Spec(workloads::suiteNames(), 20'000);

    SweepOptions seq;
    const SweepResults rSeq = runSweep(spec, seq);

    SweepOptions par;
    par.threads = 4;
    const SweepResults rPar = runSweep(spec, par);

    ASSERT_EQ(rSeq.spec().size(), spec.size());
    for (std::size_t i = 0; i < spec.size(); ++i) {
        // Pre-refactor golden: build the program and run the cell
        // directly, exactly like the old per-binary runConfigs loop.
        RunRequest req;
        req.workload = spec.cell(i).workload;
        req.targetInsts = spec.cell(i).targetInsts;
        req.config = spec.cell(i).config;
        const std::string golden = runResultToJson(runOne(req));

        ASSERT_TRUE(rSeq.outcome(i).ok) << spec.cell(i).name();
        ASSERT_TRUE(rPar.outcome(i).ok) << spec.cell(i).name();
        EXPECT_EQ(runResultToJson(rSeq.outcome(i).result), golden)
            << spec.cell(i).name();
        EXPECT_EQ(runResultToJson(rPar.outcome(i).result), golden)
            << spec.cell(i).name();
    }

    // And the assembled figure (what fig5_nlqls prints) is
    // byte-identical between executors.
    auto renderFig5 = [&](const SweepResults &res) {
        FigureTable rex("Figure 5 (top): NLQ-LS % loads re-executed",
                        {"NLQ", "+SVW-UPD", "+SVW+UPD", "+PERFECT"});
        for (const auto &w : res.shardGroups()) {
            rex.addRow(w, {res.result(w, "NLQ").rexRate,
                           res.result(w, "+SVW-UPD").rexRate,
                           res.result(w, "+SVW+UPD").rexRate,
                           res.result(w, "+PERFECT").rexRate});
        }
        rex.addAverageRow();
        std::ostringstream os;
        rex.print(os);
        return os.str();
    };
    EXPECT_EQ(renderFig5(rSeq), renderFig5(rPar));
}

TEST(SweepExecutor, ShardUnionEqualsUnshardedCellSet)
{
    const std::vector<std::string> suite = {"gzip", "mcf", "crafty"};
    const SweepSpec spec = fig5Spec(suite, 3'000);

    SweepOptions all;
    const SweepResults rAll = runSweep(spec, all);

    SweepOptions s0, s1;
    s0.threads = s1.threads = 2;
    s0.shardCount = s1.shardCount = 2;
    s0.shardIndex = 0;
    s1.shardIndex = 1;
    const SweepResults r0 = runSweep(spec, s0);
    const SweepResults r1 = runSweep(spec, s1);

    std::size_t ran0 = 0, ran1 = 0;
    for (std::size_t i = 0; i < spec.size(); ++i) {
        const bool in0 = r0.outcome(i).ran;
        const bool in1 = r1.outcome(i).ran;
        // Partition: every cell in exactly one shard.
        EXPECT_NE(in0, in1) << spec.cell(i).name();
        ran0 += in0;
        ran1 += in1;
        const CellOutcome &picked = in0 ? r0.outcome(i) : r1.outcome(i);
        ASSERT_TRUE(picked.ok);
        EXPECT_EQ(runResultToJson(picked.result),
                  runResultToJson(rAll.outcome(i).result));
        // Rows stay whole: a cell's shard is its group's shard.
        EXPECT_EQ(in0, spec.groupIndex(spec.cell(i).group) % 2 == 0);
    }
    EXPECT_EQ(ran0 + ran1, spec.size());
    EXPECT_GT(ran0, 0u);
    EXPECT_GT(ran1, 0u);
}

TEST(SweepExecutor, OversplitShardWarnsAndRunsNothing)
{
    const SweepSpec spec = fig5Spec({"gzip"}, 2'000);  // one group
    SweepOptions opts;
    opts.shardIndex = 3;
    opts.shardCount = 5;

    ::testing::internal::CaptureStderr();
    const SweepResults res = runSweep(spec, opts);
    const std::string err = ::testing::internal::GetCapturedStderr();

    EXPECT_NE(err.find("--shard=3/5 selects no groups"),
              std::string::npos)
        << err;
    for (std::size_t i = 0; i < spec.size(); ++i)
        EXPECT_FALSE(res.outcome(i).ran);
    EXPECT_EQ(res.failures(), 0u);
    EXPECT_TRUE(res.shardGroups().empty());
}

TEST(SweepExecutor, MoreJobsThanCellsAndGoldenFailureIsReported)
{
    // threads far beyond the cell count must not hang or leak
    // workers, and a thrown failure inside a cell comes back as a
    // failed cell with the exception text.
    SweepSpec spec("tiny");
    SweepCell good = makeCell("g", "good", "gzip", 2'000, true);
    spec.add(good);
    SweepCell bad = makeCell("g", "bad", "gzip", 2'000);
    bad.hook = [](Core &) {
        throw std::runtime_error("injected cell failure");
    };
    const std::size_t badIdx = spec.add(bad);

    SweepOptions opts;
    opts.threads = 8;
    const SweepResults res = runSweep(spec, opts);
    EXPECT_TRUE(res.outcome(0).ok);
    EXPECT_FALSE(res.outcome(badIdx).ok);
    EXPECT_NE(res.outcome(badIdx).error.find("injected cell failure"),
              std::string::npos)
        << res.outcome(badIdx).error;
    EXPECT_FALSE(res.groupOk("g"));
    EXPECT_EQ(res.failures(), 1u);
}
