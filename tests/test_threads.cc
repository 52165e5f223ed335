/**
 * @file
 * Executor tests (--threads=N): the byte-identity invariant across the
 * in-caller run and every thread width; the shared-ProgramCache
 * build-once guarantee; the in-memory ResultCache front
 * short-circuiting runCell without touching the disk store; per-cell
 * exception containment on every executor; and callback exceptions
 * propagating to the caller. The ThreadSanitizer CI job runs this
 * binary.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

#include "harness/executor.hh"
#include "harness/figures.hh"
#include "harness/serialize.hh"
#include "harness/session.hh"
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

std::vector<std::string>
resultsJson(const SweepResults &res)
{
    std::vector<std::string> out;
    for (std::size_t i = 0; i < res.spec().size(); ++i)
        out.push_back(runResultToJson(res.outcome(i).result));
    return out;
}

/** Fresh private temp directory, removed on destruction. */
struct TempDir
{
    std::string path = make();
    ~TempDir() { std::filesystem::remove_all(path); }

    static std::string make()
    {
        char tmpl[] = "/tmp/svw-threads-test-XXXXXX";
        const char *dir = ::mkdtemp(tmpl);
        EXPECT_NE(dir, nullptr);
        return dir ? dir : "";
    }
};

} // namespace

/**
 * fig5 --quick merged results are bit-identical (through the lossless
 * result format) across the in-caller run and every thread width —
 * parallelism reorders when cells run, never what they compute.
 */
TEST(ThreadPool, Fig5QuickByteIdenticalAcrossAllModes)
{
    const SweepSpec spec = fig5Spec(workloads::suiteNames(), 20'000);

    const SweepResults rSeq = runSweep(spec, SweepOptions{});
    const std::vector<std::string> golden = resultsJson(rSeq);
    for (std::size_t i = 0; i < spec.size(); ++i)
        ASSERT_TRUE(rSeq.outcome(i).ok) << spec.cell(i).name();

    for (unsigned threads : {1u, 2u, 4u}) {
        SweepOptions opts;
        opts.threads = threads;
        const SweepResults r = runSweep(spec, opts);
        EXPECT_EQ(r.failures(), 0u) << "threads=" << threads;
        EXPECT_EQ(resultsJson(r), golden) << "threads=" << threads;
    }
}

/**
 * All thread workers share one ProgramCache: K cells of one workload
 * across 4 threads decode the program exactly once. The (workload,
 * insts) pair is unique to this test so entries from other tests in
 * this binary cannot mask a second build.
 */
TEST(ThreadPool, SharedProgramCacheBuildsOnceAcrossWorkers)
{
    constexpr std::uint64_t kInsts = 7'777;
    SweepSpec spec("build-once");
    const char *labels[] = {"BASE", "NLQ", "SSQ", "SSQ12", "NLQ12",
                            "BASE12"};
    for (std::size_t i = 0; i < 6; ++i) {
        SweepCell c = makeCell("gzip", labels[i], "gzip", kInsts, i == 0);
        if (i == 1 || i == 4)
            c.config.opt = OptMode::Nlq;
        if (i == 2 || i == 3)
            c.config.opt = OptMode::Ssq;
        if (i == 1 || i == 2 || i == 3 || i == 4)
            c.config.svw = SvwMode::Upd;
        if (i >= 3)
            c.config.ssnBits = 12;
        spec.add(c);
    }

    SweepOptions opts;
    opts.threads = 4;
    const std::uint64_t builds0 = processProgramCache().builds();
    const SweepResults res = runSweep(spec, opts);
    EXPECT_EQ(res.failures(), 0u);
    EXPECT_EQ(processProgramCache().builds() - builds0, 1u)
        << "the shared cache must decode (gzip, " << kInsts
        << ") exactly once for all workers";
}

/**
 * A warm in-memory ResultCache front serves hits without running
 * runCell or touching the filesystem: after the cold run, the disk
 * store is wiped, and the rerun still serves every cell (cached=true,
 * zero simulations, identical payloads) while writing nothing back to
 * the emptied directory.
 */
TEST(ThreadPool, MemoryResultCacheHitShortCircuitsRunCellAndDisk)
{
    namespace fs = std::filesystem;
    processMemoryResultCache().clear();
    TempDir dir;

    SweepSpec spec("mem-front");
    for (const std::string w : {"gzip", "crafty"}) {
        SweepCell base = makeCell(w, "BASE", w, 4'321, true);
        SweepCell nlq = makeCell(w, "NLQ", w, 4'321);
        nlq.config.opt = OptMode::Nlq;
        nlq.config.svw = SvwMode::Upd;
        spec.add(base);
        spec.add(nlq);
    }

    SweepOptions opts;
    opts.cacheDir = dir.path;
    const SweepResults cold = runSweep(spec, opts);
    EXPECT_EQ(cold.failures(), 0u);
    EXPECT_EQ(processMemoryResultCache().entries(), spec.size());

    // Wipe the disk store entirely; the memory front alone must carry
    // the warm rerun.
    fs::remove_all(dir.path);
    fs::create_directories(dir.path);

    const std::uint64_t hits0 = processMemoryResultCache().hits();
    const std::uint64_t calls0 = runCellCalls();
    const SweepResults warm = runSweep(spec, opts);
    EXPECT_EQ(runCellCalls() - calls0, 0u) << "warm run simulated";
    EXPECT_EQ(processMemoryResultCache().hits() - hits0, spec.size());
    for (std::size_t i = 0; i < spec.size(); ++i) {
        EXPECT_TRUE(warm.outcome(i).ok);
        EXPECT_TRUE(warm.outcome(i).cached);
    }
    EXPECT_EQ(resultsJson(cold), resultsJson(warm));

    // Memory hits never re-populate the disk store.
    EXPECT_TRUE(fs::is_empty(dir.path))
        << "a memory hit wrote through to disk";

    // The front is only consulted when a sweep opts into caching: with
    // no cacheDir the same cells simulate from scratch.
    const std::uint64_t calls1 = runCellCalls();
    const SweepResults uncached = runSweep(spec, SweepOptions{});
    EXPECT_EQ(runCellCalls() - calls1, spec.size());
    EXPECT_EQ(resultsJson(uncached), resultsJson(cold));
}

/**
 * Exception containment on every executor: a cell whose hook throws
 * fails only itself — the in-caller run or the worker thread goes on,
 * every other cell completes, and the merged report carries the
 * exception text.
 */
TEST(ThreadPool, WorkerExceptionFailsOnlyItsCell)
{
    SweepSpec spec("thread-boom");
    for (const std::string w : {"gzip", "crafty"}) {
        spec.add(makeCell(w, "ok1", w, 3'000, true));
        spec.add(makeCell(w, "ok2", w, 3'000));
    }
    SweepCell boom = makeCell("boom", "throw", "gzip", 3'000, true);
    boom.hook = [](Core &core) {
        if (core.cycle() == 50)
            throw std::runtime_error("injected thread failure");
    };
    const std::size_t boomIdx = spec.add(boom);

    for (unsigned threads : {0u, 1u, 2u}) {
        SweepOptions opts;
        opts.threads = threads;
        const SweepResults res = runSweep(spec, opts);

        EXPECT_EQ(res.failures(), 1u) << "threads=" << threads;
        const CellOutcome &dead = res.outcome(boomIdx);
        EXPECT_TRUE(dead.ran);
        EXPECT_FALSE(dead.ok);
        EXPECT_NE(dead.error.find("injected thread failure"),
                  std::string::npos)
            << dead.error;
        EXPECT_FALSE(res.groupOk("boom"));

        for (const std::string w : {"gzip", "crafty"}) {
            EXPECT_TRUE(res.groupOk(w));
            for (const char *l : {"ok1", "ok2"}) {
                const CellOutcome &o = res.outcome(w, l);
                ASSERT_TRUE(o.ran && o.ok) << w << "/" << l;
                EXPECT_TRUE(o.result.halted);
                EXPECT_TRUE(o.result.goldenOk);
            }
        }
    }
}

/** An event callback that throws propagates to the caller on every
 * executor; cell containment never swallows it. */
TEST(ThreadPool, CallbackExceptionPropagates)
{
    SweepSpec spec("cb-throw");
    spec.add(makeCell("gzip", "BASE", "gzip", 3'000, true));

    for (unsigned threads : {0u, 2u}) {
        SweepOptions opts;
        opts.threads = threads;
        SweepSession session(spec, opts);
        EXPECT_THROW(session.run([](const CellEvent &ev) {
                         if (ev.kind == CellEventKind::Done)
                             throw std::runtime_error("callback boom");
                     }),
                     std::runtime_error)
            << "threads=" << threads;
    }
}
