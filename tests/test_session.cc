/**
 * @file
 * SweepSession engine-API tests (harness/session.hh): the blocking
 * path must match runSweep byte for byte, both incremental driving
 * styles (in-caller step() and pool wakeFd draining) must converge
 * to the same merged results, sessions sharing one CellPool must each
 * match their blocking run (and survive a neighbour destroyed
 * mid-cell), cache-served cells must surface as CachedHit events
 * without re-simulating, abort() must discard pending work only, and
 * the LRU-bounded MemoryResultCache must evict oldest first while
 * never evicting the newest entry.
 */

#include <gtest/gtest.h>

#include <poll.h>

#include <algorithm>
#include <string>
#include <vector>

#include "harness/executor.hh"
#include "harness/figures.hh"
#include "harness/serialize.hh"
#include "harness/session.hh"
#include "harness/sweep.hh"

using namespace svw;
using namespace svw::harness;

namespace {

/** A small but non-trivial spec: two workloads, five configs each. */
SweepSpec
smallSpec(std::uint64_t insts)
{
    return fig5Spec({"gzip", "mcf"}, insts);
}

/** Serialize every successful outcome, in spec order. */
std::vector<std::string>
resultLines(const SweepResults &res)
{
    std::vector<std::string> lines;
    for (std::size_t i = 0; i < res.spec().size(); ++i) {
        const CellOutcome &o = res.outcome(i);
        if (o.ok)
            lines.push_back(runResultToJson(o.result));
    }
    return lines;
}

/** Event-stream recorder shared by the tests. */
struct Recorder
{
    std::vector<CellEventKind> kinds;
    std::vector<std::size_t> indices;
    std::vector<std::string> lines;  ///< non-empty resultLine payloads

    SessionCallback callback()
    {
        return [this](const CellEvent &ev) {
            kinds.push_back(ev.kind);
            indices.push_back(ev.index);
            if (!ev.resultLine.empty())
                lines.push_back(ev.resultLine);
        };
    }

    std::size_t count(CellEventKind k) const
    {
        return static_cast<std::size_t>(
            std::count(kinds.begin(), kinds.end(), k));
    }

    /** Each cell's Started precedes its Done. */
    void expectStartedBeforeDone() const
    {
        for (std::size_t i = 0; i < kinds.size(); ++i) {
            if (kinds[i] != CellEventKind::Done)
                continue;
            bool startedBefore = false;
            for (std::size_t j = 0; j < i; ++j)
                if (kinds[j] == CellEventKind::Started &&
                    indices[j] == indices[i])
                    startedBefore = true;
            EXPECT_TRUE(startedBefore) << "cell " << indices[i];
        }
    }
};

/** Drive @p sessions (started on pools) until all are finished,
 * sleeping in poll(2) on their wake fds. */
void
driveUntilFinished(const std::vector<SweepSession *> &sessions)
{
    for (;;) {
        std::vector<pollfd> fds;
        for (SweepSession *s : sessions)
            if (!s->finished())
                fds.push_back(pollfd{s->wakeFd(), POLLIN, 0});
        if (fds.empty())
            return;
        ASSERT_GT(::poll(fds.data(), fds.size(), 30'000), 0)
            << "wakeFd timed out";
        for (SweepSession *s : sessions)
            if (!s->finished())
                s->step();
    }
}

} // namespace

TEST(SweepSession, BlockingRunMatchesRunSweepAndStreamsEvents)
{
    const SweepSpec spec = smallSpec(3000);
    const SweepResults direct = runSweep(spec, SweepOptions{});

    for (unsigned threads : {0u, 2u}) {
        SweepOptions opts;
        opts.threads = threads;
        Recorder rec;
        SweepSession session(spec, opts);
        const SweepResults viaSession = session.run(rec.callback());

        EXPECT_EQ(resultLines(direct), resultLines(viaSession))
            << "threads=" << threads;
        EXPECT_EQ(rec.count(CellEventKind::Started), spec.size());
        EXPECT_EQ(rec.count(CellEventKind::Done), spec.size());
        EXPECT_EQ(rec.count(CellEventKind::CachedHit), 0u);
        rec.expectStartedBeforeDone();
        // Every successful Done event carried the lossless result line.
        std::vector<std::string> expect = resultLines(direct);
        std::vector<std::string> got = rec.lines;
        std::sort(expect.begin(), expect.end());
        std::sort(got.begin(), got.end());
        EXPECT_EQ(expect, got) << "threads=" << threads;
    }
}

TEST(SweepSession, IncrementalInCallerMatchesBlocking)
{
    const SweepSpec spec = smallSpec(3200);
    const SweepResults direct = runSweep(spec, SweepOptions{});

    Recorder rec;
    SweepSession session(spec, SweepOptions{});
    session.start(rec.callback());
    EXPECT_TRUE(session.started());
    std::size_t steps = 0;
    while (session.step())
        ++steps;
    EXPECT_TRUE(session.finished());
    const SweepResults res = session.finish();

    EXPECT_GE(steps, 1u);
    EXPECT_EQ(resultLines(direct), resultLines(res));
    EXPECT_EQ(session.cellsDone(), spec.size());
    EXPECT_EQ(rec.count(CellEventKind::Done), spec.size());
    rec.expectStartedBeforeDone();
}

TEST(SweepSession, IncrementalThreadedDrainsViaWakeFd)
{
    const SweepSpec spec = smallSpec(3400);
    const SweepResults direct = runSweep(spec, SweepOptions{});

    SweepOptions opts;
    opts.threads = 2;
    Recorder rec;
    SweepSession session(spec, opts);
    session.start(rec.callback());
    const int wake = session.wakeFd();
    ASSERT_GE(wake, 0);

    while (!session.finished()) {
        pollfd p{wake, POLLIN, 0};
        ASSERT_GE(::poll(&p, 1, 30'000), 0);
        ASSERT_TRUE(p.revents & POLLIN) << "wakeFd timed out";
        session.step();
    }
    const SweepResults res = session.finish();
    EXPECT_EQ(resultLines(direct), resultLines(res));
    EXPECT_EQ(rec.count(CellEventKind::Done), spec.size());
}

TEST(SweepSession, SessionsSharingOnePoolMatchTheirBlockingRuns)
{
    const SweepSpec specA = smallSpec(4200);
    const SweepSpec specB = fig7Spec({"crafty"}, 4300);
    const SweepResults directA = runSweep(specA, SweepOptions{});
    const SweepResults directB = runSweep(specB, SweepOptions{});

    CellPool pool(1);
    Recorder recA, recB;
    SweepSession a(specA, SweepOptions{}, &pool);
    SweepSession b(specB, SweepOptions{}, &pool);
    a.start(recA.callback());
    b.start(recB.callback());
    ASSERT_GE(a.wakeFd(), 0);
    ASSERT_GE(b.wakeFd(), 0);
    driveUntilFinished({&a, &b});

    EXPECT_EQ(resultLines(directA), resultLines(a.finish()));
    EXPECT_EQ(resultLines(directB), resultLines(b.finish()));
    // Width one: each session's cells ran, and streamed, in spec order.
    EXPECT_EQ(resultLines(directA), recA.lines);
    EXPECT_EQ(resultLines(directB), recB.lines);
    recA.expectStartedBeforeDone();
    recB.expectStartedBeforeDone();
    EXPECT_EQ(pool.queuedCells(), 0u);
    EXPECT_EQ(pool.runningCells(), 0u);
}

TEST(SweepSession, DestroyingASessionMidCellLeavesItsPoolNeighbourIntact)
{
    const SweepSpec longSpec = fig6Spec({"gzip"}, 300'000);
    const SweepSpec spec = smallSpec(4400);
    const SweepResults direct = runSweep(spec, SweepOptions{});

    CellPool pool(1);
    Recorder doomedRec, rec;
    auto doomed =
        std::make_unique<SweepSession>(longSpec, SweepOptions{}, &pool);
    SweepSession survivor(spec, SweepOptions{}, &pool);
    doomed->start(doomedRec.callback());
    survivor.start(rec.callback());

    // The doomed session's first Started: its cell is on the worker.
    while (doomedRec.count(CellEventKind::Started) == 0) {
        pollfd p{doomed->wakeFd(), POLLIN, 0};
        ASSERT_GT(::poll(&p, 1, 30'000), 0) << "wakeFd timed out";
        doomed->step();
    }
    const std::uint64_t callsBefore = runCellCalls();
    doomed.reset();  // waits for its running cell, drops the rest

    driveUntilFinished({&survivor});
    EXPECT_EQ(resultLines(direct), resultLines(survivor.finish()));
    EXPECT_EQ(rec.count(CellEventKind::Done), spec.size());
    rec.expectStartedBeforeDone();
    // Only the survivor's cells ran after the destruction.
    EXPECT_LE(runCellCalls() - callsBefore, spec.size());
    EXPECT_EQ(pool.runningCells(), 0u);
}

TEST(SweepSession, WarmMemoryCacheServesCachedHitsWithoutSimulating)
{
    processMemoryResultCache().clear();
    const SweepSpec spec = smallSpec(3600);
    SweepOptions opts;
    opts.memCache = true;

    const SweepResults cold = SweepSession(spec, opts).run();
    const std::uint64_t callsAfterCold = runCellCalls();

    Recorder rec;
    SweepSession warm(spec, opts);
    warm.start(rec.callback());
    EXPECT_TRUE(warm.finished());  // every cell probed out of memory
    const SweepResults res = warm.finish();

    EXPECT_EQ(runCellCalls(), callsAfterCold);
    EXPECT_EQ(rec.count(CellEventKind::CachedHit), spec.size());
    EXPECT_EQ(warm.cacheHits(), spec.size());
    EXPECT_EQ(resultLines(cold), resultLines(res));
    for (std::size_t i = 0; i < spec.size(); ++i)
        EXPECT_TRUE(res.outcome(i).cached);
}

TEST(SweepSession, AbortDiscardsPendingUnitsOnly)
{
    const SweepSpec spec = smallSpec(3800);
    SweepSession session(spec, SweepOptions{});
    session.start();
    EXPECT_TRUE(session.step());  // run exactly one cell
    session.abort();
    EXPECT_TRUE(session.finished());
    const SweepResults res = session.finish();

    std::size_t ran = 0;
    for (std::size_t i = 0; i < spec.size(); ++i)
        if (res.outcome(i).ran)
            ++ran;
    EXPECT_EQ(ran, 1u);
    EXPECT_EQ(session.cellsDone(), 1u);
}

TEST(MemoryResultCacheLru, EvictsOldestFirstAndKeepsNewest)
{
    MemoryResultCache cache;
    RunResult r;
    r.workload = "w";

    // Keys from distinct cells: one row's five configs.
    const SweepSpec spec = fig5Spec({"gzip"}, 4'000);
    ASSERT_EQ(spec.size(), 5u);
    auto key = [&spec](std::size_t i) { return cellKey(spec.cell(i)); };
    const std::size_t a = 0, b = 1, c = 2, d = 3, e = 4;

    cache.put(key(a), r);
    cache.put(key(b), r);
    cache.put(key(c), r);
    EXPECT_EQ(cache.entries(), 3u);
    const std::size_t threeBytes = cache.bytes();

    // Refresh "a", then cap to roughly two entries: "b" (the least
    // recently used) must go; "a" and the newest insert survive.
    RunResult out;
    EXPECT_TRUE(cache.get(key(a), out));
    cache.setMaxBytes(threeBytes - 1);
    EXPECT_LT(cache.entries(), 3u);
    EXPECT_TRUE(cache.get(key(a), out));
    EXPECT_FALSE(cache.get(key(b), out));
    EXPECT_GE(cache.evictions(), 1u);

    // A cap smaller than any single entry degrades to a cache of one:
    // the newest put must always be servable back.
    cache.setMaxBytes(1);
    cache.put(key(d), r);
    EXPECT_EQ(cache.entries(), 1u);
    EXPECT_TRUE(cache.get(key(d), out));

    // A different material is never served, however close: a key
    // differing from the stored one in any single part misses.
    const SweepCell stored = spec.cell(e);
    cache.put(cellKey(stored), r);
    ASSERT_TRUE(cache.get(cellKey(stored), out));
    auto nearMiss = [&](auto mutate) {
        SweepCell cell = stored;
        mutate(cell);
        const CellKey k = cellKey(cell);
        EXPECT_NE(k.material(), cellKey(stored).material());
        EXPECT_FALSE(k == cellKey(stored));
        return k;
    };
    EXPECT_FALSE(cache.get(
        nearMiss([](SweepCell &cl) { cl.targetInsts += 1; }), out));
    EXPECT_FALSE(cache.get(
        nearMiss([](SweepCell &cl) { cl.goldenCheck = false; }), out));
    EXPECT_FALSE(cache.get(
        nearMiss([](SweepCell &cl) { cl.workload += ' '; }), out));
    EXPECT_FALSE(cache.get(
        nearMiss([](SweepCell &cl) { cl.config.ssnBits -= 1; }), out));
    EXPECT_FALSE(cache.get(cellKey(stored, " "), out));
}
