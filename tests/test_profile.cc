/**
 * @file
 * Self-profiler (base/profile.hh) tests.
 *
 * The profiler's contract is observational purity: a profiled run
 * retires byte-identical cycles and metrics, attribution accounts for
 * the tick loop within the cell's wall time, and the folded-stack
 * rendering is deterministic.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "base/profile.hh"
#include "harness/config.hh"
#include "harness/runner.hh"

using namespace svw;
using namespace svw::harness;

namespace {

RunRequest
smallRequest(const char *workload)
{
    RunRequest req;
    req.workload = workload;
    req.targetInsts = 5'000;
    return req;
}

/** The result fields the profiler must never change. */
void
expectSameSimulation(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.insts, b.insts);
    EXPECT_EQ(a.loads, b.loads);
    EXPECT_EQ(a.stores, b.stores);
    EXPECT_EQ(a.loadsMarked, b.loadsMarked);
    EXPECT_EQ(a.loadsReExecuted, b.loadsReExecuted);
    EXPECT_EQ(a.rexFlushes, b.rexFlushes);
    EXPECT_EQ(a.branchSquashes, b.branchSquashes);
    EXPECT_EQ(a.orderingSquashes, b.orderingSquashes);
    EXPECT_DOUBLE_EQ(a.elimRate, b.elimRate);
    EXPECT_DOUBLE_EQ(a.ipc, b.ipc);
}

} // namespace

TEST(Profile, AttributionAccountsForTheTickLoop)
{
    RunRequest req = smallRequest("gap");
    req.config.opt = OptMode::Ssq;
    req.config.svw = SvwMode::Upd;
    req.profile = true;
    const RunResult r = runOne(req);
    ASSERT_TRUE(r.halted);

    // Every simulated cycle is one profiled tick.
    EXPECT_EQ(r.profTicks, r.cycles);

    // Top-level stages all ran and their sum fits inside the cell wall
    // (the wall additionally holds construction + golden + extraction).
    std::uint64_t top = 0;
    for (unsigned s = 0; s < prof::NumStages; ++s)
        if (prof::stageParent(prof::Stage(s)) == prof::NumStages) {
            EXPECT_GT(r.profStageNs[s], 0u)
                << prof::stageName(prof::Stage(s));
            top += r.profStageNs[s];
        }
    EXPECT_GT(top, 0u);
    EXPECT_LE(top, r.profCellNs);

    // Nested scopes are measured inside their parents on one monotonic
    // clock, so child <= parent holds exactly.
    EXPECT_LE(r.profStageNs[prof::WheelAdvance],
              r.profStageNs[prof::Complete]);
    EXPECT_LE(r.profStageNs[prof::LsuSearch], r.profStageNs[prof::Issue]);
}

TEST(Profile, DisabledRunLeavesCountersZero)
{
    RunRequest req = smallRequest("gap");
    const RunResult r = runOne(req);
    ASSERT_TRUE(r.halted);
    EXPECT_EQ(r.profTicks, 0u);
    EXPECT_EQ(r.profCellNs, 0u);
    for (unsigned s = 0; s < prof::NumStages; ++s)
        EXPECT_EQ(r.profStageNs[s], 0u);
}

TEST(Profile, ProfiledRunIsSimulationIdentical)
{
    RunRequest req = smallRequest("twolf");
    req.config.opt = OptMode::Nlq;
    req.config.svw = SvwMode::Upd;
    const RunResult off = runOne(req);
    req.profile = true;
    const RunResult on = runOne(req);
    expectSameSimulation(off, on);
}

TEST(Profile, TotalNsSumsTopLevelOnly)
{
    prof::StageTimes t;
    t.ns[prof::Commit] = 10;
    t.ns[prof::Complete] = 30;
    t.ns[prof::WheelAdvance] = 20;  // nested: already inside Complete
    t.ns[prof::Issue] = 5;
    t.ns[prof::LsuSearch] = 5;      // nested: already inside Issue
    EXPECT_EQ(t.totalNs(), 45u);
}

TEST(Profile, FoldedOutputIsDeterministicAndParses)
{
    prof::Collector c;
    prof::StageTimes t;
    t.ns[prof::Commit] = 100;
    t.ns[prof::Complete] = 70;
    t.ns[prof::WheelAdvance] = 30;
    t.ns[prof::Issue] = 50;
    t.ns[prof::LsuSearch] = 50;  // parent self time collapses to zero
    t.ticks = 7;
    c.add("b/cell", t, 300);
    c.add("a/cell", t, 250);
    c.add("a/cell", t, 250);  // accumulates, not duplicates

    // Cells sorted by name, stages in enum order, parents emitting
    // self time (counter minus children), zero-self lines omitted,
    // and the harness residual closing each cell.
    const std::string expect =
        "svw_sim;a/cell;tick;commit 200\n"
        "svw_sim;a/cell;tick;complete 80\n"
        "svw_sim;a/cell;tick;complete;wheel_advance 60\n"
        "svw_sim;a/cell;tick;issue;lsu_search 100\n"
        "svw_sim;a/cell;harness 60\n"
        "svw_sim;b/cell;tick;commit 100\n"
        "svw_sim;b/cell;tick;complete 40\n"
        "svw_sim;b/cell;tick;complete;wheel_advance 30\n"
        "svw_sim;b/cell;tick;issue;lsu_search 50\n"
        "svw_sim;b/cell;harness 80\n";
    EXPECT_EQ(c.folded(), expect);
    EXPECT_EQ(c.folded(), expect);  // rendering is pure

    // Every line is flamegraph.pl grammar: "frame(;frame)* <count>".
    std::istringstream in(c.folded());
    std::string line;
    while (std::getline(in, line)) {
        const std::size_t sp = line.rfind(' ');
        ASSERT_NE(sp, std::string::npos) << line;
        EXPECT_EQ(line.rfind("svw_sim;", 0), 0u) << line;
        const std::string count = line.substr(sp + 1);
        EXPECT_EQ(count.find_first_not_of("0123456789"),
                  std::string::npos)
            << line;
        EXPECT_GT(std::stoull(count), 0u) << line;
    }

    c.clear();
    EXPECT_TRUE(c.empty());
    EXPECT_EQ(c.folded(), "");
}

TEST(Profile, StageTaxonomyIsStable)
{
    // The names are wire format (folded frames, prof_* JSON keys,
    // BENCH_hotloop.json attribution); renaming one breaks downstream
    // diffing, so pin the taxonomy.
    EXPECT_STREQ(prof::stageName(prof::Commit), "commit");
    EXPECT_STREQ(prof::stageName(prof::Rex), "rex");
    EXPECT_STREQ(prof::stageName(prof::Complete), "complete");
    EXPECT_STREQ(prof::stageName(prof::WheelAdvance), "wheel_advance");
    EXPECT_STREQ(prof::stageName(prof::Issue), "issue");
    EXPECT_STREQ(prof::stageName(prof::LsuSearch), "lsu_search");
    EXPECT_STREQ(prof::stageName(prof::Dispatch), "dispatch");
    EXPECT_STREQ(prof::stageName(prof::Fetch), "fetch");
    EXPECT_EQ(prof::stageParent(prof::WheelAdvance), prof::Complete);
    EXPECT_EQ(prof::stageParent(prof::LsuSearch), prof::Issue);
    EXPECT_EQ(prof::stageParent(prof::Commit), prof::NumStages);
}
