/**
 * @file
 * Unit tests for the committed-instruction trace format (prog/trace):
 * record/write/read round-trip fidelity, the fail-loudly guarantees
 * for truncated / corrupt / wrong-version / missing files, the
 * compactness of the committed-PC stream encoding, and the
 * content-checksum hook the persistent ResultCache keys off.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <vector>

#include "func/interp.hh"
#include "harness/figures.hh"
#include "harness/runner.hh"
#include "harness/serialize.hh"
#include "harness/session.hh"
#include "prog/trace.hh"
#include "prog/workloads/workloads.hh"

using namespace svw;

namespace {

std::string
tempPath(const std::string &leaf)
{
    return ::testing::TempDir() + leaf;
}

std::vector<char>
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>());
}

void
spit(const std::string &path, const std::vector<char> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

trace::TraceData
recordKernel(const std::string &workload, std::uint64_t insts)
{
    Program prog = workloads::make(workload, insts);
    return trace::record(prog, workload, 100'000'000);
}

} // namespace

TEST(TraceRecord, CapturesCommittedStreamAndFinalState)
{
    Program prog = workloads::make("gzip", 5'000);
    trace::TraceData t = trace::record(prog, "gzip", 100'000'000);

    EXPECT_EQ(t.sourceWorkload, "gzip");
    EXPECT_EQ(t.insts, t.counts.insts);
    ASSERT_EQ(t.committedPcs.size(), t.insts);
    EXPECT_GT(t.insts, 1'000u);

    // The stream must be exactly the interpreter's PC sequence.
    Interp sim(prog);
    for (std::uint64_t pc : t.committedPcs) {
        ASSERT_EQ(sim.pc(), pc);
        ASSERT_TRUE(sim.step() || pc == t.committedPcs.back());
    }
    EXPECT_TRUE(sim.halted());
    for (unsigned r = 0; r < numArchRegs; ++r)
        EXPECT_EQ(sim.reg(r), t.finalRegs[r]) << "r" << r;
}

TEST(TraceRecord, FatalOnNonHaltingBudget)
{
    Program prog = workloads::make("mcf", 50'000);
    // A budget far below the program's length must refuse to record.
    EXPECT_THROW(trace::record(prog, "mcf", 100), std::runtime_error);
}

TEST(TraceFile, RoundTripIsLossless)
{
    const std::string path = tempPath("roundtrip.svwtrace");
    trace::TraceData t = recordKernel("crafty", 4'000);
    trace::writeFile(path, t);

    trace::TraceData r = trace::readFile(path);
    EXPECT_EQ(r.sourceWorkload, t.sourceWorkload);
    EXPECT_EQ(r.insts, t.insts);
    EXPECT_EQ(r.counts.loads, t.counts.loads);
    EXPECT_EQ(r.counts.stores, t.counts.stores);
    EXPECT_EQ(r.counts.branches, t.counts.branches);
    EXPECT_EQ(r.counts.takenBranches, t.counts.takenBranches);
    EXPECT_EQ(r.counts.silentStores, t.counts.silentStores);
    EXPECT_EQ(r.finalRegs, t.finalRegs);
    EXPECT_EQ(r.committedPcs, t.committedPcs);

    // Program reconstruction is bit-exact.
    const Program &a = t.program, &b = r.program;
    ASSERT_EQ(a.textSize(), b.textSize());
    EXPECT_EQ(a.entry(), b.entry());
    EXPECT_EQ(a.stackTop(), b.stackTop());
    for (std::size_t i = 0; i < a.textSize(); ++i) {
        EXPECT_EQ(a.text()[i].op, b.text()[i].op) << i;
        EXPECT_EQ(a.text()[i].rd, b.text()[i].rd) << i;
        EXPECT_EQ(a.text()[i].rs1, b.text()[i].rs1) << i;
        EXPECT_EQ(a.text()[i].rs2, b.text()[i].rs2) << i;
        EXPECT_EQ(a.text()[i].imm, b.text()[i].imm) << i;
    }
    ASSERT_EQ(a.segments().size(), b.segments().size());
    for (std::size_t i = 0; i < a.segments().size(); ++i) {
        EXPECT_EQ(a.segments()[i].base, b.segments()[i].base) << i;
        EXPECT_EQ(a.segments()[i].bytes, b.segments()[i].bytes) << i;
    }
    std::remove(path.c_str());
}

TEST(TraceFile, StreamEncodingIsCompact)
{
    // Loop-dominated code is almost entirely sequential runs plus one
    // back-edge per iteration; the RLE+delta stream must land far
    // under one byte per committed instruction, and the whole file far
    // under a naive 8-bytes-per-PC dump.
    const std::string path = tempPath("compact.svwtrace");
    trace::TraceData t = recordKernel("synth:memcpy:1", 50'000);
    trace::writeFile(path, t);
    const std::vector<char> file = slurp(path);
    EXPECT_LT(file.size(), t.insts);      // < 1 byte/inst overall
    EXPECT_GT(t.insts, 40'000u);          // the bound actually bites
    std::remove(path.c_str());
}

TEST(TraceFile, LoadProgramReplaysIdentically)
{
    const std::string path = tempPath("replay.svwtrace");
    trace::TraceData t = recordKernel("perl.d", 4'000);
    trace::writeFile(path, t);

    Program replay = trace::loadProgram(path);
    EXPECT_EQ(replay.name(), "trace:" + path);
    replay.validate();

    Interp sim(replay);
    ASSERT_TRUE(sim.run(t.insts + 1));
    EXPECT_EQ(sim.counts().insts, t.counts.insts);
    for (unsigned r = 0; r < numArchRegs; ++r)
        EXPECT_EQ(sim.reg(r), t.finalRegs[r]) << "r" << r;
    std::remove(path.c_str());
}

TEST(TraceFile, MissingFileFailsLoudly)
{
    const std::string path = tempPath("never_written.svwtrace");
    std::string err;
    EXPECT_FALSE(trace::probeFile(path, err));
    EXPECT_NE(err.find("cannot open"), std::string::npos) << err;
    EXPECT_THROW(trace::readFile(path), std::runtime_error);
    EXPECT_THROW(trace::loadProgram(path), std::runtime_error);
}

TEST(TraceFile, TruncationFailsLoudly)
{
    const std::string path = tempPath("truncated.svwtrace");
    trace::writeFile(path, recordKernel("gzip", 3'000));
    std::vector<char> file = slurp(path);
    file.resize(file.size() / 2);
    spit(path, file);

    std::string err;
    EXPECT_FALSE(trace::probeFile(path, err));
    EXPECT_NE(err.find("truncated"), std::string::npos) << err;
    EXPECT_THROW(trace::readFile(path), std::runtime_error);
    std::remove(path.c_str());
}

TEST(TraceFile, BitRotFailsChecksum)
{
    const std::string path = tempPath("bitrot.svwtrace");
    trace::writeFile(path, recordKernel("gzip", 3'000));
    std::vector<char> file = slurp(path);
    file[file.size() / 2] ^= 0x40;  // flip one payload bit
    spit(path, file);

    std::string err;
    EXPECT_FALSE(trace::probeFile(path, err));
    EXPECT_NE(err.find("checksum"), std::string::npos) << err;
    EXPECT_THROW(trace::readFile(path), std::runtime_error);
    std::remove(path.c_str());
}

TEST(TraceFile, WrongMagicAndStaleVersionRejected)
{
    const std::string path = tempPath("badmagic.svwtrace");
    trace::writeFile(path, recordKernel("gzip", 3'000));
    std::vector<char> file = slurp(path);

    std::vector<char> wrongMagic = file;
    wrongMagic[0] = 'X';
    spit(path, wrongMagic);
    std::string err;
    EXPECT_FALSE(trace::probeFile(path, err));
    EXPECT_NE(err.find("magic"), std::string::npos) << err;

    // Bump the version field (first payload u32, after magic+len) and
    // re-seal the checksum so only the version check can reject it.
    std::vector<char> stale = file;
    stale[16] = static_cast<char>(trace::traceVersion + 1);
    {
        std::uint64_t h = 14695981039346656037ull;
        for (std::size_t i = 16; i < stale.size() - 8; ++i) {
            h ^= static_cast<unsigned char>(stale[i]);
            h *= 1099511628211ull;
        }
        for (int i = 0; i < 8; ++i)
            stale[stale.size() - 8 + i] = static_cast<char>(h >> (8 * i));
    }
    spit(path, stale);
    EXPECT_FALSE(trace::probeFile(path, err));
    EXPECT_NE(err.find("version"), std::string::npos) << err;
    EXPECT_THROW(trace::readFile(path), std::runtime_error);
    std::remove(path.c_str());
}

TEST(TraceFile, ChecksumTracksContent)
{
    const std::string path = tempPath("content.svwtrace");
    trace::writeFile(path, recordKernel("gzip", 3'000));
    const std::uint64_t sumA = trace::fileChecksum(path);

    // Same workload, different sizing: same name on disk, different
    // content, different checksum.
    trace::writeFile(path, recordKernel("gzip", 6'000));
    const std::uint64_t sumB = trace::fileChecksum(path);
    EXPECT_NE(sumA, sumB);

    // Registry plumbing: trace workloads get a content-bearing cache
    // augment, and rewriting the file changes it.
    const std::string name = "trace:" + path;
    ASSERT_TRUE(workloads::isKnown(name));
    const std::string augB = workloads::cacheKeyAugment(name);
    EXPECT_NE(augB.find("trace.payload="), std::string::npos) << augB;
    trace::writeFile(path, recordKernel("mcf", 3'000));
    EXPECT_NE(workloads::cacheKeyAugment(name), augB);

    // Through a sweep, which reads the augment once per workload: a
    // warm repeat of the trace's row is served whole from the memory
    // front, and after a rewrite every cell of the row has a new key
    // and none is served.
    const harness::SweepSpec row = harness::fig5Spec({name}, 2'000);
    harness::SweepOptions opts;
    opts.memCache = true;
    auto cacheHits = [&row, &opts] {
        harness::SweepSession session(row, opts);
        session.run();
        return session.cacheHits();
    };
    cacheHits();
    EXPECT_EQ(cacheHits(), row.size());
    std::vector<std::string> before;
    for (const harness::SweepCell &c : row.cells())
        before.push_back(harness::cellKey(c).material());
    trace::writeFile(path, recordKernel("gzip", 3'000));
    for (std::size_t i = 0; i < row.size(); ++i)
        EXPECT_NE(harness::cellKey(row.cell(i)).material(), before[i])
            << row.cell(i).name();
    EXPECT_EQ(cacheHits(), 0u);
    std::remove(path.c_str());
}

TEST(TraceFile, RewrittenTraceIsSimulatedFromItsNewContent)
{
    // One process, one path, two recordings: the second sweep must
    // simulate the file's new content. Its lines must equal a fresh
    // process's, i.e. each cell run directly on a freshly loaded
    // program, and they differ from the first recording's.
    const std::string path = tempPath("rewritten.svwtrace");
    const std::string name = "trace:" + path;
    const harness::SweepSpec row = harness::fig7Spec({name}, 3'000);
    harness::SweepOptions opts;
    opts.memCache = true;
    auto sweepLines = [&row, &opts] {
        harness::SweepSession session(row, opts);
        const harness::SweepResults res = session.run();
        std::vector<std::string> lines;
        for (std::size_t i = 0; i < row.size(); ++i) {
            EXPECT_TRUE(res.outcome(i).ok) << res.outcome(i).error;
            lines.push_back(harness::runResultToJson(res.outcome(i).result));
        }
        return lines;
    };
    auto freshLines = [&row, &name] {
        const Program prog = workloads::make(name, 3'000);
        std::vector<std::string> lines;
        for (const harness::SweepCell &c : row.cells()) {
            harness::RunRequest req;
            req.workload = c.workload;
            req.targetInsts = c.targetInsts;
            req.config = c.config;
            req.goldenCheck = c.goldenCheck;
            lines.push_back(
                harness::runResultToJson(harness::runOne(req, prog)));
        }
        return lines;
    };

    trace::writeFile(path, recordKernel("gzip", 3'000));
    const std::vector<std::string> first = sweepLines();
    EXPECT_EQ(first, freshLines());

    trace::writeFile(path, recordKernel("mcf", 3'000));
    const std::vector<std::string> second = sweepLines();
    EXPECT_EQ(second, freshLines());
    EXPECT_NE(second, first);
    std::remove(path.c_str());
}

TEST(TraceRegistry, RegistryBuildsReplayWorkload)
{
    const std::string path = tempPath("registry.svwtrace");
    trace::writeFile(path, recordKernel("synth:chase:2", 3'000));

    const std::string name = "trace:" + path;
    std::string err;
    ASSERT_TRUE(workloads::validate(name, err)) << err;
    Program prog = workloads::make(name, 999'999);  // sizing is ignored
    EXPECT_EQ(prog.name(), name);

    Interp sim(prog);
    ASSERT_TRUE(sim.run(10'000'000));
    std::remove(path.c_str());

    EXPECT_FALSE(workloads::isKnown(name));  // gone with the file
}
