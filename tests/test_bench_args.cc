/**
 * @file
 * Bench command-line parsing tests (bench/bench_common.hh). Death
 * tests pin the exit-2 rejection contract: malformed numbers —
 * including trailing garbage like `--threads=4x`, which a raw strtoull
 * would silently truncate to 4 — out-of-range values, and invalid
 * shard splits must all fail fast, never run a wrong sweep.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../bench/bench_common.hh"
#include "service/server.hh"

using namespace svw::bench;

namespace {

/** Run parseArgs over a writable argv copy. */
BenchArgs
parse(std::vector<std::string> args)
{
    std::vector<std::string> storage;
    storage.push_back("bench_test");
    for (auto &a : args)
        storage.push_back(std::move(a));
    std::vector<char *> argv;
    for (auto &s : storage)
        argv.push_back(s.data());
    return parseArgs(static_cast<int>(argv.size()), argv.data());
}

/** Same, for sweepd's flag parser (service/server.hh). */
svw::service::SweepdOptions
parseDaemon(std::vector<std::string> args)
{
    std::vector<std::string> storage;
    storage.push_back("sweepd_test");
    for (auto &a : args)
        storage.push_back(std::move(a));
    std::vector<char *> argv;
    for (auto &s : storage)
        argv.push_back(s.data());
    return svw::service::parseSweepdArgs(static_cast<int>(argv.size()),
                                         argv.data());
}

} // namespace

TEST(BenchArgs, ParsesWellFormedFlags)
{
    const BenchArgs a = parse({"--insts=50000", "--bench=mcf",
                               "--threads=4", "--shard=1/3",
                               "--cache-dir=/tmp/c"});
    EXPECT_EQ(a.insts, 50'000u);
    EXPECT_EQ(a.only, "mcf");
    EXPECT_EQ(a.threads, 4u);
    EXPECT_EQ(a.shardIndex, 1u);
    EXPECT_EQ(a.shardCount, 3u);
    EXPECT_EQ(a.cacheDir, "/tmp/c");
    EXPECT_FALSE(a.noCache);
    EXPECT_EQ(sweepOptions(a).cacheDir, "/tmp/c");

    EXPECT_EQ(parse({"--quick"}).insts, 20'000u);
    EXPECT_EQ(parseFlagNumber("007", "--x"), 7u);
}

TEST(BenchArgs, ThreadsFlagParsesAndPlumbs)
{
    const BenchArgs a = parse({"--threads=4"});
    EXPECT_EQ(a.threads, 4u);
    EXPECT_EQ(sweepOptions(a).threads, 4u);
    EXPECT_EQ(parse({}).threads, 0u);  // default: cells run in the caller
}

TEST(BenchArgs, NoCacheOverridesCacheDir)
{
    const BenchArgs a = parse({"--cache-dir=/tmp/c", "--no-cache"});
    EXPECT_TRUE(a.noCache);
    EXPECT_EQ(sweepOptions(a).cacheDir, "");
}

using BenchArgsDeath = ::testing::Test;

TEST(BenchArgsDeath, TrailingGarbageIsRejectedNotTruncated)
{
    // The regression this file exists for: "--threads=4x" must exit
    // 2, not silently run with threads=4.
    EXPECT_EXIT(parse({"--threads=4x"}), ::testing::ExitedWithCode(2),
                "bad number '4x' for --threads");
    EXPECT_EXIT(parse({"--insts=100k"}), ::testing::ExitedWithCode(2),
                "bad number '100k' for --insts");
    EXPECT_EXIT(parse({"--shard=1x/2"}), ::testing::ExitedWithCode(2),
                "bad number '1x' for --shard");
    EXPECT_EXIT(parse({"--shard=0/2x"}), ::testing::ExitedWithCode(2),
                "bad number '2x' for --shard");
    EXPECT_EXIT(parse({"--threads= 4"}), ::testing::ExitedWithCode(2),
                "bad number");
    EXPECT_EXIT(parse({"--threads=0x10"}), ::testing::ExitedWithCode(2),
                "bad number");
    EXPECT_EXIT(parse({"--insts=1e6"}), ::testing::ExitedWithCode(2),
                "bad number");
}

TEST(BenchArgsDeath, SignsEmptiesAndOverflowAreRejected)
{
    EXPECT_EXIT(parse({"--threads=-1"}), ::testing::ExitedWithCode(2),
                "bad number");
    EXPECT_EXIT(parse({"--threads="}), ::testing::ExitedWithCode(2),
                "bad number");
    // Beyond uint64.
    EXPECT_EXIT(parse({"--insts=18446744073709551616"}),
                ::testing::ExitedWithCode(2), "bad number");
    // Fits uint64 but not unsigned: no silent truncation wrap.
    EXPECT_EXIT(parse({"--threads=4294967296"}),
                ::testing::ExitedWithCode(2), "out of range");
}

TEST(BenchArgsDeath, InvalidCombinationsAndUnknownFlagsExit2)
{
    EXPECT_EXIT(parse({"--shard=2/2"}), ::testing::ExitedWithCode(2),
                "--shard=i/n with i<n");
    EXPECT_EXIT(parse({"--shard=3"}), ::testing::ExitedWithCode(2),
                "--shard=i/n with i<n");
    EXPECT_EXIT(parse({"--frobnicate"}), ::testing::ExitedWithCode(2),
                "unknown arg --frobnicate");
    EXPECT_EXIT(parse({"--benchmark_filter=x"}),
                ::testing::ExitedWithCode(2),
                "unknown arg --benchmark_filter=x");
    // The removed fork-pool and co-simulation flags fail loudly, so an
    // old script cannot silently run a different sweep.
    EXPECT_EXIT(parse({"--jobs=4"}), ::testing::ExitedWithCode(2),
                "unknown arg --jobs=4");
    EXPECT_EXIT(parse({"--batch=1"}), ::testing::ExitedWithCode(2),
                "unknown arg --batch=1");
    EXPECT_EXIT(parse({"positional"}), ::testing::ExitedWithCode(2),
                "unknown arg positional");
}

TEST(BenchArgs, WorkloadFlagAcceptsTheFullRegistryGrammar)
{
    EXPECT_EQ(parse({"--workload=mcf"}).only, "mcf");
    EXPECT_EQ(parse({"--workload=synth:chase:7"}).only, "synth:chase:7");
    EXPECT_EQ(parse({"--workload=synth:hashjoin:3:buckets=128"}).only,
              "synth:hashjoin:3:buckets=128");
}

TEST(BenchArgsDeath, WorkloadFlagValidatesAtParseTime)
{
    // Unknown names and malformed synth recipes must exit 2 at the
    // flag, not svw_fatal mid-sweep.
    EXPECT_EXIT(parse({"--workload=gzip2"}), ::testing::ExitedWithCode(2),
                "unknown workload 'gzip2'");
    EXPECT_EXIT(parse({"--workload=synth:quicksort:1"}),
                ::testing::ExitedWithCode(2), "unknown synth kind");
    EXPECT_EXIT(parse({"--workload=synth:chase"}),
                ::testing::ExitedWithCode(2), "needs a seed");
    EXPECT_EXIT(parse({"--workload=synth:chase:banana"}),
                ::testing::ExitedWithCode(2), "malformed synth seed");
    EXPECT_EXIT(parse({"--workload=synth:chase:1:nodes"}),
                ::testing::ExitedWithCode(2), "want key=value");
    EXPECT_EXIT(parse({"--workload=synth:chase:1:slots=4"}),
                ::testing::ExitedWithCode(2), "unknown synth param");
    // Trace replays need a readable, well-formed file.
    EXPECT_EXIT(parse({"--workload=trace:/nonexistent/x.svwtrace"}),
                ::testing::ExitedWithCode(2), "cannot open trace file");
}

TEST(BenchArgsDeath, RecordTraceNeedsAPathAndAWorkload)
{
    EXPECT_EXIT(parse({"--record-trace="}), ::testing::ExitedWithCode(2),
                "--record-trace needs a file path");
    EXPECT_EXIT(parse({"--record-trace=/tmp/t.svwtrace"}),
                ::testing::ExitedWithCode(2),
                "--record-trace requires a single workload");
}

TEST(BenchArgsDeath, ProfileFlagValidatesItsPath)
{
    EXPECT_EXIT(parse({"--profile="}), ::testing::ExitedWithCode(2),
                "--profile needs a file path");
    // Fail fast on an uncreatable path — before the sweep, not after.
    EXPECT_EXIT(parse({"--profile=/nonexistent-dir/p.folded"}),
                ::testing::ExitedWithCode(2), "cannot create");
}

TEST(BenchArgsDeath, ProfileFlagArmsAndPlumbs)
{
    // Success path runs inside the death fork so the armed atexit
    // writer and process-global output path never leak into the other
    // tests in this binary.
    const std::string path =
        ::testing::TempDir() + "bench_args_profile.folded";
    EXPECT_EXIT(
        {
            const BenchArgs a = parse({"--profile=" + path});
            const bool ok = a.profile && sweepOptions(a).profile &&
                svw::prof::foldedOutputPath() == path;
            std::exit(ok ? 0 : 1);
        },
        ::testing::ExitedWithCode(0), "");
}

TEST(BenchArgs, FamiliesAndMemCacheFlagsParseAndDefault)
{
    using svw::harness::Families;
    EXPECT_EQ(parse({}).families, Families::Paper);
    EXPECT_EQ(parse({"--families=paper"}).families, Families::Paper);
    EXPECT_EQ(parse({"--families=synth"}).families, Families::Synth);
    EXPECT_EQ(parse({"--families=all"}).families, Families::All);

    // Generous default so figure binaries never notice the cap; 0
    // turns the bound off entirely.
    EXPECT_EQ(parse({}).memCacheMaxMb, 512u);
    EXPECT_EQ(parse({"--mem-cache-max-mb=64"}).memCacheMaxMb, 64u);
    EXPECT_EQ(parse({"--mem-cache-max-mb=0"}).memCacheMaxMb, 0u);
    // The largest megabyte count whose byte count fits a uint64.
    EXPECT_EQ(parse({"--cache-max-mb=17592186044415"}).cacheMaxMb,
              17592186044415u);

    EXPECT_EQ(parse({"--emit-cells=/tmp/c.jsonl"}).emitCells,
              "/tmp/c.jsonl");
    EXPECT_EQ(parse({}).emitCells, "");
}

TEST(BenchArgsDeath, FamiliesAndMemCacheFlagsValidate)
{
    EXPECT_EXIT(parse({"--families=banana"}),
                ::testing::ExitedWithCode(2),
                "bad value 'banana' for --families");
    EXPECT_EXIT(parse({"--families="}), ::testing::ExitedWithCode(2),
                "bad value '' for --families");
    EXPECT_EXIT(parse({"--mem-cache-max-mb=64x"}),
                ::testing::ExitedWithCode(2),
                "bad number '64x' for --mem-cache-max-mb");
    // 2^44 MB is 2^64 bytes: it would wrap to a zero-byte bound.
    EXPECT_EXIT(parse({"--cache-max-mb=17592186044416"}),
                ::testing::ExitedWithCode(2),
                "--cache-max-mb value '17592186044416' out of range");
    EXPECT_EXIT(parse({"--mem-cache-max-mb=17592186044417"}),
                ::testing::ExitedWithCode(2),
                "--mem-cache-max-mb value '17592186044417' out of range");
    EXPECT_EXIT(parse({"--emit-cells="}), ::testing::ExitedWithCode(2),
                "--emit-cells needs a file path");
}

TEST(BenchArgs, SweepdFlagsParseAndDefault)
{
    const auto d = parseDaemon({});
    EXPECT_EQ(d.port, 8573u);
    EXPECT_EQ(d.bindAddr, "127.0.0.1");
    EXPECT_EQ(d.memCacheMaxMb, 512u);
    EXPECT_FALSE(d.quiet);

    const auto e = parseDaemon({"--port=0", "--bind=0.0.0.0",
                                "--cache-dir=/tmp/c",
                                "--mem-cache-max-mb=32", "--quiet"});
    EXPECT_EQ(e.port, 0u);
    EXPECT_EQ(e.bindAddr, "0.0.0.0");
    EXPECT_EQ(e.cacheDir, "/tmp/c");
    EXPECT_EQ(e.memCacheMaxMb, 32u);
    EXPECT_TRUE(e.quiet);
}

TEST(BenchArgsDeath, SweepdFlagsValidate)
{
    EXPECT_EXIT(parseDaemon({"--port=http"}),
                ::testing::ExitedWithCode(2),
                "bad number 'http' for --port");
    EXPECT_EXIT(parseDaemon({"--port=70000"}),
                ::testing::ExitedWithCode(2),
                "--port value '70000' out of range");
    EXPECT_EXIT(parseDaemon({"--mem-cache-max-mb=1e3"}),
                ::testing::ExitedWithCode(2),
                "bad number '1e3' for --mem-cache-max-mb");
    EXPECT_EXIT(parseDaemon({"--mem-cache-max-mb=17592186044417"}),
                ::testing::ExitedWithCode(2),
                "--mem-cache-max-mb value '17592186044417' out of range");
    EXPECT_EXIT(parseDaemon({"--bind="}), ::testing::ExitedWithCode(2),
                "--bind needs an address");
    EXPECT_EXIT(parseDaemon({"--frobnicate"}),
                ::testing::ExitedWithCode(2),
                "unknown arg --frobnicate");
}

TEST(BenchArgsDeath, RecordTraceRecordsAndExitsZero)
{
    // Success path: records via the interpreter and exits 0 before any
    // sweep runs. Uses a tiny sizing to stay fast inside the death
    // fork.
    const std::string path =
        ::testing::TempDir() + "bench_args_record.svwtrace";
    EXPECT_EXIT(parse({"--workload=synth:branchstorm:1", "--insts=2000",
                       "--record-trace=" + path}),
                ::testing::ExitedWithCode(0), "recorded");
}
