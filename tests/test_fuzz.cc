/**
 * @file
 * Randomized-program fuzzing: generate random (but halting) programs
 * with dense memory conflicts — random-size loads and stores over a
 * tiny address pool, data-dependent store addresses, unpredictable
 * branches, call/return pairs — and require exact golden-model
 * equivalence under the aggressive machine configurations.
 *
 * This is the adversarial counterpart to the curated workload suite:
 * the tiny address pool maximizes partial overlaps, silent stores,
 * forwarding, ordering violations, false eliminations, and SSBF
 * conflicts all at once.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "base/random.hh"
#include "cpu/core.hh"
#include "func/interp.hh"
#include "harness/config.hh"
#include "harness/runner.hh"
#include "harness/serialize.hh"
#include "prog/builder.hh"
#include "prog/synth.hh"
#include "prog/trace.hh"
#include "prog/workloads/workloads.hh"

using namespace svw;
using namespace svw::harness;

namespace {

// The adversarial generator lives in the shared prog/synth module (it
// doubles as the "mix" workload kind); this file only drives it.
using synth::randomProgram;

struct FuzzCase
{
    std::uint64_t seed;
    const char *configName;
    ExperimentConfig config;
};

std::vector<FuzzCase>
fuzzCases()
{
    std::vector<FuzzCase> cases;
    auto cfg = [](Machine m, OptMode o, SvwMode s) {
        ExperimentConfig c;
        c.machine = m;
        c.opt = o;
        c.svw = s;
        return c;
    };
    const std::pair<const char *, ExperimentConfig> configs[] = {
        {"base", cfg(Machine::EightWide, OptMode::Baseline,
                     SvwMode::None)},
        {"nlqSvw", cfg(Machine::EightWide, OptMode::Nlq, SvwMode::Upd)},
        {"ssqSvw", cfg(Machine::EightWide, OptMode::Ssq, SvwMode::Upd)},
        {"rleSvw", cfg(Machine::FourWide, OptMode::Rle, SvwMode::Upd)},
        {"composed", cfg(Machine::EightWide, OptMode::Composed,
                         SvwMode::Upd)},
    };
    for (std::uint64_t seed = 1; seed <= 6; ++seed)
        for (const auto &[name, c] : configs)
            cases.push_back({seed, name, c});
    // A couple of hostile SVW shapes on one seed each.
    ExperimentConfig wrap = cfg(Machine::EightWide, OptMode::Ssq,
                                SvwMode::Upd);
    wrap.ssnBits = 8;
    cases.push_back({7, "ssqWrap8b", wrap});
    ExperimentConfig tiny = wrap;
    tiny.ssnBits = 16;
    tiny.ssbf.entries = 32;
    cases.push_back({8, "ssqTinySsbf", tiny});
    ExperimentConfig repl = cfg(Machine::EightWide, OptMode::Ssq,
                                SvwMode::Upd);
    repl.svwReplace = true;
    cases.push_back({9, "ssqSvwReplace", repl});
    ExperimentConfig replNlq = cfg(Machine::EightWide, OptMode::Nlq,
                                   SvwMode::Upd);
    replNlq.svwReplace = true;
    cases.push_back({10, "nlqSvwReplace", replNlq});
    return cases;
}

} // namespace

class FuzzGolden : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(FuzzGolden, RandomProgramMatchesInterpreter)
{
    const FuzzCase fc = fuzzCases()[GetParam()];
    Program prog = randomProgram(fc.seed, 24, 150);

    stats::StatRegistry reg;
    Core core(buildParams(fc.config), prog, reg);
    RunOutcome out = core.run(~0ull, 3'000'000);
    ASSERT_TRUE(out.halted)
        << "seed " << fc.seed << " config " << fc.configName;

    Interp golden(prog);
    ASSERT_TRUE(golden.run(out.instructions + 1));
    EXPECT_EQ(out.instructions, golden.counts().insts);
    for (RegIndex a = 0; a < numArchRegs; ++a) {
        ASSERT_EQ(core.archReg(a), golden.reg(a))
            << "r" << a << " seed " << fc.seed << " config "
            << fc.configName;
    }
    ASSERT_TRUE(core.memory().identicalTo(golden.memory()))
        << "seed " << fc.seed << " config " << fc.configName;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FuzzGolden,
    ::testing::Range<std::size_t>(0, fuzzCases().size()),
    [](const ::testing::TestParamInfo<std::size_t> &info) {
        const FuzzCase fc = fuzzCases()[info.param];
        return std::string("seed") + std::to_string(fc.seed) + "_" +
            fc.configName;
    });

// ---------------------------------------------------------------------
// Synthetic-generator differential fuzz: every synth kind across a
// seed range, each seed run under one of the aggressive machine
// configurations (rotated so every kind meets every config), with the
// out-of-order core required to match the golden interpreter exactly.
// SVW_FUZZ_SEEDS widens the range (the CI fuzz job sets it; the
// default keeps tier-1 fast while still meeting the >=32-seed bar).
// ---------------------------------------------------------------------

namespace {

unsigned
fuzzSeedCount()
{
    if (const char *env = std::getenv("SVW_FUZZ_SEEDS")) {
        const long v = std::atol(env);
        if (v > 0)
            return static_cast<unsigned>(v);
    }
    return 32;
}

const std::vector<std::pair<const char *, ExperimentConfig>> &
aggressiveConfigs()
{
    static const auto configs = [] {
        auto cfg = [](Machine m, OptMode o, SvwMode s) {
            ExperimentConfig c;
            c.machine = m;
            c.opt = o;
            c.svw = s;
            return c;
        };
        return std::vector<std::pair<const char *, ExperimentConfig>>{
            {"base", cfg(Machine::EightWide, OptMode::Baseline,
                         SvwMode::None)},
            {"nlqSvw", cfg(Machine::EightWide, OptMode::Nlq,
                           SvwMode::Upd)},
            {"ssqSvw", cfg(Machine::EightWide, OptMode::Ssq,
                           SvwMode::Upd)},
            {"rleSvw", cfg(Machine::FourWide, OptMode::Rle,
                           SvwMode::Upd)},
            {"composed", cfg(Machine::EightWide, OptMode::Composed,
                             SvwMode::Upd)},
        };
    }();
    return configs;
}

} // namespace

class SynthDifferential : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(SynthDifferential, CoreMatchesInterpreterAcrossSeeds)
{
    const std::string kind = synth::kindNames()[GetParam()];
    const unsigned seeds = fuzzSeedCount();
    const auto &configs = aggressiveConfigs();

    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
        synth::SynthParams p;
        p.kind = kind;
        p.seed = seed;
        const std::string name = synth::canonicalName(p);
        // Through the registry, so the dispatch path is what's fuzzed.
        Program prog = workloads::make(name, 3'000);

        const auto &[cfgName, cfg] = configs[seed % configs.size()];
        stats::StatRegistry reg;
        Core core(buildParams(cfg), prog, reg);
        RunOutcome out = core.run(~0ull, 3'000'000);
        ASSERT_TRUE(out.halted) << name << " config " << cfgName;

        Interp golden(prog);
        ASSERT_TRUE(golden.run(out.instructions + 1))
            << name << " config " << cfgName;
        ASSERT_EQ(out.instructions, golden.counts().insts)
            << name << " config " << cfgName;
        for (RegIndex r = 0; r < numArchRegs; ++r) {
            ASSERT_EQ(core.archReg(r), golden.reg(r))
                << "r" << static_cast<unsigned>(r) << " " << name
                << " config " << cfgName;
        }
        ASSERT_TRUE(core.memory().identicalTo(golden.memory()))
            << name << " config " << cfgName;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, SynthDifferential,
    ::testing::Range<std::size_t>(0, synth::kindNames().size()),
    [](const ::testing::TestParamInfo<std::size_t> &info) {
        return synth::kindNames()[info.param];
    });

// ---------------------------------------------------------------------
// Dead-cycle skipping differential: Core::run skips runs of cycles in
// which no stage can act unless a per-cycle hook is attached. A core
// with a no-op hook ticks every cycle, so it is the reference: over
// every synth kind and seed (SVW_FUZZ_SEEDS widens the range), under
// the rotated aggressive configs, both must end at the same cycle with
// byte-identical stat registries (every counter and distribution).
// ---------------------------------------------------------------------

class DeadCycleDifferential : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(DeadCycleDifferential, SkippingCoreMatchesTickingCore)
{
    const std::string kind = synth::kindNames()[GetParam()];
    const unsigned seeds = fuzzSeedCount();
    const auto &configs = aggressiveConfigs();
    std::uint64_t bufferStalls = 0;

    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
        synth::SynthParams p;
        p.kind = kind;
        p.seed = seed;
        const std::string name = synth::canonicalName(p);
        Program prog = workloads::make(name, 3'000);
        const auto &[cfgName, cfg] = configs[seed % configs.size()];

        // The figure configs size the rex store buffer by the SQ, so it
        // never fills there. A two-entry buffer makes rex wait on it,
        // which exercises the skip's bulk count of those stall cycles.
        CoreParams smallBuffer = buildParams(cfg);
        smallBuffer.rex.storeBufferEntries = 2;
        for (const CoreParams &params : {buildParams(cfg), smallBuffer}) {
            auto runCore = [&](bool ticking, std::uint64_t &cycles) {
                stats::StatRegistry reg;
                Core core(params, prog, reg);
                if (ticking)
                    core.perCycleHook = [](Core &) {};
                const RunOutcome out = core.run(~0ull, 3'000'000);
                EXPECT_TRUE(out.halted) << name << " config " << cfgName;
                cycles = out.cycles;
                if (ticking) {
                    bufferStalls += dynamic_cast<const stats::Scalar &>(
                        *reg.find("rex.storeBufferStalls")).value();
                }
                std::ostringstream os;
                reg.printAll(os);
                return os.str();
            };
            std::uint64_t skipCycles = 0, tickCycles = 0;
            const std::string skipped = runCore(false, skipCycles);
            const std::string ticked = runCore(true, tickCycles);
            const unsigned entries = params.rex.storeBufferEntries;
            ASSERT_EQ(skipCycles, tickCycles)
                << name << " config " << cfgName << " rex buffer " << entries;
            ASSERT_EQ(skipped, ticked)
                << name << " config " << cfgName << " rex buffer " << entries;
        }
    }
    // memcpy streams stores, so its two-entry runs must have filled the
    // buffer (hashjoin and mix do too); otherwise the bulk count above
    // went untested.
    if (kind == "memcpy")
        EXPECT_GT(bufferStalls, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, DeadCycleDifferential,
    ::testing::Range<std::size_t>(0, synth::kindNames().size()),
    [](const ::testing::TestParamInfo<std::size_t> &info) {
        return synth::kindNames()[info.param];
    });

// ---------------------------------------------------------------------
// Trace record -> replay differential: replaying a recorded trace
// through the full runner must produce a RunResult byte-identical
// (every field of the JSON wire form, cycles included) to the live
// front end's, because the reconstructed program is bit-exact. Also
// cross-checks the recording itself against a fresh interpreter run.
// ---------------------------------------------------------------------

namespace {

struct TraceCase
{
    const char *workload;
    const char *configName;
};

const std::vector<TraceCase> &
traceCases()
{
    static const std::vector<TraceCase> cases = {
        // The 4 paper kernels (acceptance criterion) under two machine
        // shapes each, plus synth recipes under the composed machine.
        {"gzip", "base"},     {"gzip", "ssqSvw"},
        {"mcf", "base"},      {"mcf", "nlqSvw"},
        {"crafty", "base"},   {"crafty", "rleSvw"},
        {"perl.d", "base"},   {"perl.d", "composed"},
        {"synth:chase:3", "composed"},
        {"synth:hashjoin:5:buckets=128", "ssqSvw"},
    };
    return cases;
}

const ExperimentConfig &
configByName(const std::string &name)
{
    for (const auto &[n, c] : aggressiveConfigs())
        if (name == n)
            return c;
    throw std::runtime_error("unknown config " + name);
}

} // namespace

class TraceReplayDifferential
    : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(TraceReplayDifferential, ReplayByteIdenticalToLiveFrontEnd)
{
    const TraceCase tc = traceCases()[GetParam()];
    const std::uint64_t insts = 8'000;
    const std::string path = ::testing::TempDir() + "fuzz_replay_" +
        std::to_string(GetParam()) + ".svwtrace";

    Program live = workloads::make(tc.workload, insts);

    // Record once via the interpreter; sanity-check the recording
    // against an independent interpreter run.
    trace::TraceData t = trace::record(live, tc.workload, 100'000'000);
    {
        Interp check(live);
        ASSERT_TRUE(check.run(t.insts + 1));
        EXPECT_EQ(check.counts().insts, t.counts.insts);
        EXPECT_EQ(check.counts().silentStores, t.counts.silentStores);
        for (unsigned r = 0; r < numArchRegs; ++r)
            ASSERT_EQ(check.reg(r), t.finalRegs[r]) << "r" << r;
    }
    trace::writeFile(path, t);

    const std::string replayName = "trace:" + path;
    Program replay = workloads::make(replayName, insts);

    RunRequest req;
    req.config = configByName(tc.configName);
    req.targetInsts = insts;
    req.goldenCheck = true;

    req.workload = tc.workload;
    RunResult liveRes = runOne(req, live);

    req.workload = replayName;
    RunResult replayRes = runOne(req, replay);

    // Byte-identical modulo the workload name the result is stamped
    // with (the name is the only thing that legitimately differs).
    replayRes.workload = liveRes.workload;
    EXPECT_EQ(runResultToJson(liveRes), runResultToJson(replayRes))
        << tc.workload << " under " << tc.configName;

    std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    RecordReplay, TraceReplayDifferential,
    ::testing::Range<std::size_t>(0, traceCases().size()),
    [](const ::testing::TestParamInfo<std::size_t> &info) {
        const TraceCase tc = traceCases()[info.param];
        std::string n = std::string(tc.workload) + "_" + tc.configName;
        for (char &c : n)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return n;
    });

// ---------------------------------------------------------------------
// Checkpoint-recovery equivalence: restore must be indistinguishable
// from the youngest-first walk, at both the unit and the whole-core
// level, on randomly chosen squash points.
// ---------------------------------------------------------------------

namespace {

/** Mirror of one speculative definition, for the reference walk. */
struct DefRecord
{
    RegIndex rd;
    PhysRegIndex prd;
    PhysRegIndex prevPrd;
    bool shared;
};

/** Drain both free lists in allocation order and compare; leaves both
 * states equally exhausted, which is itself part of the comparison. */
void
expectIdenticalRenameState(RenameState &a, RenameState &b,
                           unsigned numPhysRegs, std::uint64_t seed)
{
    for (RegIndex r = 0; r < numArchRegs; ++r)
        ASSERT_EQ(a.map(r), b.map(r)) << "map r" << r << " seed " << seed;
    for (unsigned p = 0; p < numPhysRegs; ++p) {
        ASSERT_EQ(a.regs().refCount(p), b.regs().refCount(p))
            << "refs p" << p << " seed " << seed;
        ASSERT_EQ(a.regs().generation(p), b.regs().generation(p))
            << "gen p" << p << " seed " << seed;
    }
    ASSERT_EQ(a.freeRegs(), b.freeRegs()) << "seed " << seed;
    while (a.hasFreeReg()) {
        ASSERT_EQ(a.alloc(), b.alloc())
            << "free-list order diverged, seed " << seed;
    }
}

} // namespace

TEST(FuzzCheckpointRecovery, RestoreEquivalentToWalkOnRandomSquashes)
{
    constexpr unsigned numPhysRegs = 96;
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        Random rng(seed * 0x9e3779b9ull + 7);
        RenameState ckpt(numPhysRegs, 8);   // recovers via checkpoint
        RenameState walk(numPhysRegs, 8);   // recovers via the walk
        std::vector<DefRecord> defs;        // since run start
        std::size_t ckptAt = 0;             // defs.size() at checkpoint

        // Random prologue of definitions, some register-sharing
        // (integration-style), some commit-time releases of displaced
        // registers — then a checkpoint, more definitions, a squash.
        const unsigned pre = 1 + rng.nextBounded(20);
        const unsigned post = 1 + rng.nextBounded(30);
        auto makeDef = [&]() {
            DefRecord rec;
            rec.rd = static_cast<RegIndex>(1 + rng.nextBounded(10));
            // One in four definitions shares an earlier definition's
            // register (every recorded prd is still referenced during
            // the definition phase — nothing frees until later).
            rec.shared = !defs.empty() && rng.nextBounded(4) == 0;
            rec.prevPrd = ckpt.map(rec.rd);
            if (rec.shared) {
                rec.prd = defs[rng.nextBounded(static_cast<std::uint32_t>(
                                   defs.size()))].prd;
                ckpt.addRef(rec.prd);
                walk.addRef(rec.prd);
            } else {
                rec.prd = ckpt.alloc();
                const PhysRegIndex w = walk.alloc();
                ASSERT_EQ(w, rec.prd) << "states diverged pre-squash";
            }
            ckpt.speculativeDef(rec.rd, rec.prd);
            walk.speculativeDef(rec.rd, rec.prd);
            defs.push_back(rec);
        };

        for (unsigned i = 0; i < pre; ++i)
            makeDef();
        ckptAt = defs.size();
        ckpt.takeCheckpoint(1000, BPredCheckpoint{});
        for (unsigned i = 0; i < post; ++i)
            makeDef();

        // Commit-style releases of displaced registers are legal only
        // for definitions older than the checkpointed branch (in-order
        // commit cannot pass an unresolved branch).
        for (std::size_t i = 0; i < ckptAt; ++i) {
            if (rng.nextBounded(3) == 0) {
                ckpt.deref(defs[i].prevPrd);
                walk.deref(defs[i].prevPrd);
            }
        }

        // Recover: checkpoint restore on one state, reference
        // youngest-first walk on the other.
        ckpt.discardCheckpointsAfter(1000);
        const RenameCheckpoint *ck = ckpt.findCheckpoint(1000);
        ASSERT_NE(ck, nullptr) << "seed " << seed;
        ckpt.restoreCheckpoint(*ck);
        for (std::size_t i = defs.size(); i-- > ckptAt;)
            walk.undoLastDef();

        expectIdenticalRenameState(ckpt, walk, numPhysRegs, seed);
    }
}

namespace {

/**
 * Assert two same-shaped stat registries print identically except for
 * the recovery-mechanism counters themselves (core.ckptRestores /
 * core.ckptWalks legitimately differ between the two recovery modes).
 * Everything else — squash counts, RLE eliminations and squash-reuse
 * splits, rename/IT-sensitive rex outcomes — must be bit-identical.
 */
void
expectIdenticalStatsModuloRecovery(const stats::StatRegistry &a,
                                   const stats::StatRegistry &b,
                                   const char *name, std::uint64_t seed)
{
    ASSERT_EQ(a.all().size(), b.all().size());
    for (std::size_t i = 0; i < a.all().size(); ++i) {
        const stats::StatBase *sa = a.all()[i];
        const stats::StatBase *sb = b.all()[i];
        ASSERT_EQ(sa->name(), sb->name());
        if (sa->name() == "core.ckptRestores" ||
            sa->name() == "core.ckptWalks") {
            continue;
        }
        std::ostringstream osa, osb;
        sa->print(osa);
        sb->print(osb);
        ASSERT_EQ(osa.str(), osb.str())
            << sa->name() << " diverged: " << name << " seed " << seed;
    }
}

} // namespace

TEST(FuzzCheckpointRecovery, CoreTimingIdenticalWithAndWithoutCheckpoints)
{
    // Same random programs, same config, checkpoints on vs off: cycle
    // counts, architectural state, memory, and every stat except the
    // recovery counters must match exactly. This is the
    // bit-identical-timing invariant the recovery path must preserve
    // (docs/ARCHITECTURE.md "Squash recovery"). The RLE config
    // exercises the journaled IT squash-hygiene markers: checkpoint
    // replay must kill exactly the same IntegrationTable entries the
    // walk would, or eliminations (and thus rex flushes and squash
    // reuse) diverge downstream.
    const std::pair<const char *, ExperimentConfig> configs[] = {
        {"base", {}},
        {"ssqSvw",
         [] {
             ExperimentConfig c;
             c.opt = OptMode::Ssq;
             c.svw = SvwMode::Upd;
             return c;
         }()},
        {"rleSvw",
         [] {
             ExperimentConfig c;
             c.machine = Machine::FourWide;
             c.opt = OptMode::Rle;
             c.svw = SvwMode::Upd;
             return c;
         }()},
        {"composed",
         [] {
             ExperimentConfig c;
             c.opt = OptMode::Composed;
             c.svw = SvwMode::Upd;
             return c;
         }()},
    };
    for (std::uint64_t seed = 11; seed <= 14; ++seed) {
        Program prog = randomProgram(seed, 24, 120);
        for (const auto &[name, cfg] : configs) {
            CoreParams on = buildParams(cfg);
            CoreParams off = buildParams(cfg);
            off.renameCheckpoints = 0;

            stats::StatRegistry regOn, regOff;
            Core coreOn(on, prog, regOn);
            Core coreOff(off, prog, regOff);
            RunOutcome a = coreOn.run(~0ull, 3'000'000);
            RunOutcome b = coreOff.run(~0ull, 3'000'000);

            ASSERT_TRUE(a.halted) << name << " seed " << seed;
            ASSERT_TRUE(b.halted) << name << " seed " << seed;
            EXPECT_GT(coreOn.ckptRestores.value(), 0u)
                << name << " seed " << seed
                << " (no squash ever hit a checkpoint; the equivalence "
                   "check exercised nothing)";
            EXPECT_EQ(coreOff.ckptRestores.value(), 0u);
            ASSERT_EQ(a.cycles, b.cycles) << name << " seed " << seed;
            ASSERT_EQ(a.instructions, b.instructions)
                << name << " seed " << seed;
            for (RegIndex r = 0; r < numArchRegs; ++r) {
                ASSERT_EQ(coreOn.archReg(r), coreOff.archReg(r))
                    << "r" << r << " " << name << " seed " << seed;
            }
            ASSERT_TRUE(coreOn.memory().identicalTo(coreOff.memory()))
                << name << " seed " << seed;
            expectIdenticalStatsModuloRecovery(regOn, regOff, name, seed);
        }
    }
}
