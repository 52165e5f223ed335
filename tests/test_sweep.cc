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
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
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

namespace {

/** Field-by-field equality; doubles compared by bit pattern, so a
 * round trip that loses -0.0's sign or a subnormal's last bit fails. */
void
expectSameResult(const RunResult &back, const RunResult &r)
{
    auto bits = [](double d) {
        std::uint64_t u;
        std::memcpy(&u, &d, sizeof(u));
        return u;
    };
    EXPECT_EQ(back.workload, r.workload);
    EXPECT_EQ(back.config, r.config);
    EXPECT_EQ(back.halted, r.halted);
    EXPECT_EQ(back.goldenOk, r.goldenOk);
    EXPECT_EQ(back.cycles, r.cycles);
    EXPECT_EQ(back.insts, r.insts);
    EXPECT_EQ(back.loads, r.loads);
    EXPECT_EQ(back.stores, r.stores);
    // Exact bit equality, not near: the figure output depends on it.
    EXPECT_EQ(bits(back.ipc), bits(r.ipc));
    EXPECT_EQ(bits(back.rexRate), bits(r.rexRate));
    EXPECT_EQ(bits(back.markedRate), bits(r.markedRate));
    EXPECT_EQ(bits(back.elimRate), bits(r.elimRate));
    EXPECT_EQ(bits(back.bypassShare), bits(r.bypassShare));
    EXPECT_EQ(bits(back.fsqLoadShare), bits(r.fsqLoadShare));
    EXPECT_EQ(back.loadsMarked, r.loadsMarked);
    EXPECT_EQ(back.loadsReExecuted, r.loadsReExecuted);
    EXPECT_EQ(back.loadsFilteredBySvw, r.loadsFilteredBySvw);
    EXPECT_EQ(back.rexFlushes, r.rexFlushes);
    EXPECT_EQ(back.branchSquashes, r.branchSquashes);
    EXPECT_EQ(back.orderingSquashes, r.orderingSquashes);
    EXPECT_EQ(back.wrapDrains, r.wrapDrains);
    for (unsigned s = 0; s < prof::NumStages; ++s)
        EXPECT_EQ(back.profStageNs[s], r.profStageNs[s]) << s;
    EXPECT_EQ(back.profTicks, r.profTicks);
    EXPECT_EQ(back.profCellNs, r.profCellNs);
}

} // namespace

TEST(SweepSerialize, RunResultRoundTripsExactly)
{
    RunResult r;
    r.workload = "perl.d";
    r.config = "SSQ+SVW+UPD \"q\" \\b";
    r.halted = true;
    r.goldenOk = false;
    r.cycles = 0xdeadbeefcafe;
    r.insts = 123456789;
    r.loads = 42;
    r.stores = std::numeric_limits<std::uint64_t>::max();
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

    // A profiled result: the prof_* keys, the double edge cases and a
    // synth name longer than the small-string buffer.
    RunResult p;
    p.workload = "synth:hashjoin:400927505";
    p.config = "BASE";
    p.cycles = std::numeric_limits<std::uint64_t>::max();
    p.insts = 20'000;
    p.ipc = -0.0;
    p.rexRate = 5e-324;
    p.markedRate = 1e21;
    p.elimRate = 1e16;
    p.bypassShare = 1e-5;
    p.fsqLoadShare = 9007199254740994.0;  // 2^53 + 2
    for (unsigned s = 0; s < prof::NumStages; ++s)
        p.profStageNs[s] = 1000u * (s + 1);
    p.profTicks = 31337;
    p.profCellNs = 987654321012ull;

    // The exact wire lines. Persisted cache entries and every client
    // of sweepd and --emit-cells read these bytes, so any drift in the
    // writer shows here, not only as a failed round trip.
    EXPECT_EQ(runResultToJson(r),
        "{\"workload\":\"perl.d\",\"config\":\"SSQ+SVW+UPD \\\"q\\\" \\\\b\","
        "\"halted\":true,\"golden_ok\":false,\"cycles\":244837814094590,"
        "\"insts\":123456789,\"loads\":42,\"stores\":18446744073709551615,"
        "\"ipc\":0.33333333333333331,\"loads_marked\":11,"
        "\"loads_reexecuted\":5,\"loads_filtered_by_svw\":6,"
        "\"rex_flushes\":1,\"rex_rate\":0.2857142857142857,"
        "\"marked_rate\":1.0000000000000001e-17,"
        "\"elim_rate\":99.999999999999986,"
        "\"bypass_share\":0.10000000000000001,"
        "\"fsq_load_share\":123.45678901234568,\"branch_squashes\":100,"
        "\"ordering_squashes\":0,\"wrap_drains\":3}");
    EXPECT_EQ(runResultToJson(p),
        "{\"workload\":\"synth:hashjoin:400927505\",\"config\":\"BASE\","
        "\"halted\":false,\"golden_ok\":true,"
        "\"cycles\":18446744073709551615,\"insts\":20000,\"loads\":0,"
        "\"stores\":0,\"ipc\":-0,\"loads_marked\":0,"
        "\"loads_reexecuted\":0,\"loads_filtered_by_svw\":0,"
        "\"rex_flushes\":0,\"rex_rate\":4.9406564584124654e-324,"
        "\"marked_rate\":1e+21,\"elim_rate\":10000000000000000,"
        "\"bypass_share\":1.0000000000000001e-05,"
        "\"fsq_load_share\":9007199254740994,\"branch_squashes\":0,"
        "\"ordering_squashes\":0,\"wrap_drains\":0,"
        "\"prof_commit_ns\":1000,\"prof_rex_ns\":2000,"
        "\"prof_complete_ns\":3000,\"prof_wheel_advance_ns\":4000,"
        "\"prof_issue_ns\":5000,\"prof_lsu_search_ns\":6000,"
        "\"prof_dispatch_ns\":7000,\"prof_fetch_ns\":8000,"
        "\"prof_ticks\":31337,\"prof_cell_ns\":987654321012}");

    for (const RunResult *in : {&r, &p}) {
        RunResult back;
        ASSERT_TRUE(runResultFromJson(runResultToJson(*in), back));
        expectSameResult(back, *in);
    }
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

TEST(SweepSerialize, JsonDoubleMatchesPrintfG17)
{
    // Every finite double prints exactly as printf's %.17g: persisted
    // cache entries and every client's lines were written that way, so
    // printf stays the oracle here whatever jsonDouble uses inside.
    auto g17 = [](double v) {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        return std::string(buf);
    };
    std::size_t checked = 0, bad = 0;
    auto check = [&](double v) {
        ++checked;
        const std::string want = g17(v), got = jsonDouble(v);
        if (got != want && ++bad <= 5)
            ADD_FAILURE() << "jsonDouble gave " << got << ", %.17g " << want;
    };

    using L = std::numeric_limits<double>;
    for (double v : {0.0, -0.0, L::denorm_min(), -L::denorm_min(),
                     std::nextafter(L::min(), 0.0), L::min(), L::max(),
                     -L::max(), 0x1p53 - 1, 0x1p53, 0x1p53 + 1, 0x1p53 + 2,
                     0.1, 1e-5, 1e16, 1e17, 1e21, 1.0 / 3.0, 0.5, 100.0,
                     -1.0}) {
        check(v);
    }
    // Seeded random bit patterns cover every exponent; the non-finite
    // ones are the string encoding's, checked below.
    std::mt19937_64 rng(0x5eed17);
    while (checked < 1'000'100) {
        const std::uint64_t u = rng();
        double v;
        std::memcpy(&v, &u, sizeof(v));
        if (std::isfinite(v))
            check(v);
    }
    // Ratios and percentages, the values RunResult actually holds.
    for (int i = 0; i < 100'000; ++i) {
        const double a = double(rng() % 1'000'000);
        const double b = double(rng() % 1'000'000 + 1);
        check(a / b);
        check(100.0 * a / b);
    }
    EXPECT_EQ(bad, 0u) << "of " << checked;
    EXPECT_GE(checked, 1'000'000u);

    EXPECT_EQ(jsonDouble(L::quiet_NaN()), "\"NaN\"");
    EXPECT_EQ(jsonDouble(-L::quiet_NaN()), "\"NaN\"");
    EXPECT_EQ(jsonDouble(L::infinity()), "\"Infinity\"");
    EXPECT_EQ(jsonDouble(-L::infinity()), "\"-Infinity\"");
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
