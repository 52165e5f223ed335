/**
 * @file
 * Whole-registry pin: every registered figure's configurations (per-cycle
 * hooks included) on six workloads at 10,000 instructions, each cell's
 * complete StatRegistry::printAll text digested with 64-bit FNV-1a and
 * compared against literals recorded before the tick-loop work that
 * must leave simulated behaviour untouched.
 *
 * The result-line pins (test_sweep.cc, test_result_cache.cc) cover the
 * ~20 stats a RunResult carries; this pin covers every counter and
 * distribution any unit registers, so a host-side optimisation that
 * shifts a single stall count in a single cell fails here, naming the
 * cell. A deliberate simulated-behaviour change re-records the table
 * (print the digests from the failure messages) and bumps
 * resultCacheCodeVersion.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "cpu/core.hh"
#include "harness/config.hh"
#include "harness/figures.hh"
#include "prog/workloads/workloads.hh"

using namespace svw;
using namespace svw::harness;

namespace {

constexpr std::uint64_t pinInsts = 10'000;

const std::vector<std::string> &
pinWorkloads()
{
    static const std::vector<std::string> w = {
        "gzip", "mcf", "eon.c", "vortex",
        "synth:prodcons:1", "synth:branchstorm:1",
    };
    return w;
}

std::uint64_t
fnv1a64(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Digest of one cell's full stat block, run exactly as runOne runs it
 * (same cycle cap, the cell's own hook copy). */
std::uint64_t
registryDigest(const SweepCell &cell, const Program &prog)
{
    stats::StatRegistry reg;
    Core core(buildParams(cell.config), prog, reg);
    if (cell.hook)
        core.perCycleHook = cell.hook;
    core.run(~std::uint64_t(0), 100 * cell.targetInsts + 1'000'000);
    std::ostringstream os;
    reg.printAll(os);
    return fnv1a64(os.str());
}

/** Recorded digests, keyed "<figure>/<workload>/<label>". */
const std::map<std::string, std::uint64_t> &
recordedDigests()
{
    static const std::map<std::string, std::uint64_t> table = {
        {"fig5/gzip/BASE", 0x5af8d606ade0e1b1ull},
        {"fig5/gzip/NLQ", 0xa1ad59bbdbb458ffull},
        {"fig5/gzip/+SVW-UPD", 0xd83d6393f512cc4dull},
        {"fig5/gzip/+SVW+UPD", 0xd83d6393f512cc4dull},
        {"fig5/gzip/+PERFECT", 0xa1ad59bbdbb458ffull},
        {"fig5/mcf/BASE", 0x475430eb842670f5ull},
        {"fig5/mcf/NLQ", 0xa745f193e6a69a0aull},
        {"fig5/mcf/+SVW-UPD", 0x8ec48f6e82e921c3ull},
        {"fig5/mcf/+SVW+UPD", 0x8ec48f6e82e921c3ull},
        {"fig5/mcf/+PERFECT", 0x3a6a9bf604247347ull},
        {"fig5/eon.c/BASE", 0x230a7d5b0f8ab05aull},
        {"fig5/eon.c/NLQ", 0x3a45945174ffd00eull},
        {"fig5/eon.c/+SVW-UPD", 0x176d8f608d64e763ull},
        {"fig5/eon.c/+SVW+UPD", 0x74c92a0161f0ae96ull},
        {"fig5/eon.c/+PERFECT", 0xeecf105dc6682cdcull},
        {"fig5/vortex/BASE", 0x75c1b6e6cef66c6cull},
        {"fig5/vortex/NLQ", 0x3dc158adc6c9feeaull},
        {"fig5/vortex/+SVW-UPD", 0xe83f0541bfaa8f7full},
        {"fig5/vortex/+SVW+UPD", 0x98b3fe04c4fab101ull},
        {"fig5/vortex/+PERFECT", 0x2473d7c27338abb5ull},
        {"fig5/synth:prodcons:1/BASE", 0x3d4dc0a19ceb571bull},
        {"fig5/synth:prodcons:1/NLQ", 0x5fe14f47642b1304ull},
        {"fig5/synth:prodcons:1/+SVW-UPD", 0xc3b4b19e3938febbull},
        {"fig5/synth:prodcons:1/+SVW+UPD", 0xc3b4b19e3938febbull},
        {"fig5/synth:prodcons:1/+PERFECT", 0x5fe14f47642b1304ull},
        {"fig5/synth:branchstorm:1/BASE", 0x7c79250110b9a6f6ull},
        {"fig5/synth:branchstorm:1/NLQ", 0x0e91e588962b5e0aull},
        {"fig5/synth:branchstorm:1/+SVW-UPD", 0x238fe4414b411a6dull},
        {"fig5/synth:branchstorm:1/+SVW+UPD", 0x238fe4414b411a6dull},
        {"fig5/synth:branchstorm:1/+PERFECT", 0x0e91e588962b5e0aull},
        {"fig6/gzip/BASE", 0xdfcc4f0cd4d54ec0ull},
        {"fig6/gzip/SSQ", 0x99b4b3c55e8a75fcull},
        {"fig6/gzip/+SVW-UPD", 0x6821e23836f2dc1eull},
        {"fig6/gzip/+SVW+UPD", 0xfef2a47c4bafb34cull},
        {"fig6/gzip/+PERFECT", 0x2d1a8d8d2ef4c59full},
        {"fig6/mcf/BASE", 0x5e01eecab490ab4full},
        {"fig6/mcf/SSQ", 0x52f08bf364d8a309ull},
        {"fig6/mcf/+SVW-UPD", 0xf4caf125d4c1bd17ull},
        {"fig6/mcf/+SVW+UPD", 0xf4caf125d4c1bd17ull},
        {"fig6/mcf/+PERFECT", 0x50163e9f32566feeull},
        {"fig6/eon.c/BASE", 0x1277dbca54249bb8ull},
        {"fig6/eon.c/SSQ", 0x444075bc3f683f4full},
        {"fig6/eon.c/+SVW-UPD", 0x8fe6c79fa12fb61dull},
        {"fig6/eon.c/+SVW+UPD", 0x41b3c76df27bf24full},
        {"fig6/eon.c/+PERFECT", 0x2cd118d8a20fc5f9ull},
        {"fig6/vortex/BASE", 0x0f33d28422fd8394ull},
        {"fig6/vortex/SSQ", 0xf83adf8fb75510d3ull},
        {"fig6/vortex/+SVW-UPD", 0xf9694755dc8e5187ull},
        {"fig6/vortex/+SVW+UPD", 0x635838b8039d0643ull},
        {"fig6/vortex/+PERFECT", 0xf57d2246e1e616c5ull},
        {"fig6/synth:prodcons:1/BASE", 0x44dfbce3af69e0ebull},
        {"fig6/synth:prodcons:1/SSQ", 0xf806feb669670b56ull},
        {"fig6/synth:prodcons:1/+SVW-UPD", 0x433618aa2cc900e9ull},
        {"fig6/synth:prodcons:1/+SVW+UPD", 0xbe5dbf527684dedfull},
        {"fig6/synth:prodcons:1/+PERFECT", 0x050619e0288b8013ull},
        {"fig6/synth:branchstorm:1/BASE", 0xbcee6e7358b9d8a3ull},
        {"fig6/synth:branchstorm:1/SSQ", 0xe08e6bd62b621cabull},
        {"fig6/synth:branchstorm:1/+SVW-UPD", 0x6e691bffa287f9d5ull},
        {"fig6/synth:branchstorm:1/+SVW+UPD", 0x386423d5c2159680ull},
        {"fig6/synth:branchstorm:1/+PERFECT", 0x9684eee0770b49eeull},
        {"fig7/gzip/BASE", 0xdfa16ef63d564fbdull},
        {"fig7/gzip/RLE", 0xc965818868f7ca4bull},
        {"fig7/gzip/+SVW", 0x69fe9294b8e475cfull},
        {"fig7/gzip/+SVW-SQU", 0xfaad5c4ec032a632ull},
        {"fig7/gzip/+PERFECT", 0x30fd45dff98c7f81ull},
        {"fig7/mcf/BASE", 0x9cdf7facd62baac0ull},
        {"fig7/mcf/RLE", 0xce8116efb1bfaa0full},
        {"fig7/mcf/+SVW", 0xe0bced4e0fa1bb54ull},
        {"fig7/mcf/+SVW-SQU", 0x2245ed5dabea1a1cull},
        {"fig7/mcf/+PERFECT", 0x711145a32ec6b6a3ull},
        {"fig7/eon.c/BASE", 0x87b944cb0a1335c1ull},
        {"fig7/eon.c/RLE", 0xea0142e2881a55cdull},
        {"fig7/eon.c/+SVW", 0x7625b20573ab035dull},
        {"fig7/eon.c/+SVW-SQU", 0x7625b20573ab035dull},
        {"fig7/eon.c/+PERFECT", 0xf30730adf75990d0ull},
        {"fig7/vortex/BASE", 0x570aaa30d90be890ull},
        {"fig7/vortex/RLE", 0x5e539cf19cfd5b51ull},
        {"fig7/vortex/+SVW", 0x90a16e4806c6485bull},
        {"fig7/vortex/+SVW-SQU", 0x90a16e4806c6485bull},
        {"fig7/vortex/+PERFECT", 0x4be594ec008c0be4ull},
        {"fig7/synth:prodcons:1/BASE", 0x6c5f681374ddc06eull},
        {"fig7/synth:prodcons:1/RLE", 0xe13212500bb4e06aull},
        {"fig7/synth:prodcons:1/+SVW", 0xbe8949db9c8cc833ull},
        {"fig7/synth:prodcons:1/+SVW-SQU", 0xbe8949db9c8cc833ull},
        {"fig7/synth:prodcons:1/+PERFECT", 0xc2a1d44d8c35dbb1ull},
        {"fig7/synth:branchstorm:1/BASE", 0xdbc150621ad2d693ull},
        {"fig7/synth:branchstorm:1/RLE", 0x3a16212df86fe214ull},
        {"fig7/synth:branchstorm:1/+SVW", 0x7b22932293c68e3full},
        {"fig7/synth:branchstorm:1/+SVW-SQU", 0x481c029dd73866d1ull},
        {"fig7/synth:branchstorm:1/+PERFECT", 0x167495d10f7d896bull},
        {"fig8/gzip/128", 0xfef2a47c4bafb34cull},
        {"fig8/gzip/512", 0xfef2a47c4bafb34cull},
        {"fig8/gzip/2048", 0xfef2a47c4bafb34cull},
        {"fig8/gzip/Bloom", 0xfef2a47c4bafb34cull},
        {"fig8/gzip/4-byte", 0x6609ed05a3ce402cull},
        {"fig8/gzip/Infinite", 0x6609ed05a3ce402cull},
        {"fig8/mcf/128", 0xd8ab475fa2b1bcd1ull},
        {"fig8/mcf/512", 0xf4caf125d4c1bd17ull},
        {"fig8/mcf/2048", 0x7cbcae60ed097883ull},
        {"fig8/mcf/Bloom", 0xe32ad29fdb0312b3ull},
        {"fig8/mcf/4-byte", 0x0eb185471b7a5978ull},
        {"fig8/mcf/Infinite", 0x5c881876f35c6aa2ull},
        {"fig8/eon.c/128", 0x5fde162be500d013ull},
        {"fig8/eon.c/512", 0x41b3c76df27bf24full},
        {"fig8/eon.c/2048", 0x1eb51273b04ddba6ull},
        {"fig8/eon.c/Bloom", 0x41b3c76df27bf24full},
        {"fig8/eon.c/4-byte", 0x6687f42e410a2543ull},
        {"fig8/eon.c/Infinite", 0x1820abaec8a8010full},
        {"fig8/vortex/128", 0x9369db155c43eedaull},
        {"fig8/vortex/512", 0x635838b8039d0643ull},
        {"fig8/vortex/2048", 0xc49af3374adf32daull},
        {"fig8/vortex/Bloom", 0x566086c2040f696aull},
        {"fig8/vortex/4-byte", 0xf283fe61af78f731ull},
        {"fig8/vortex/Infinite", 0xf3f1424a8988e774ull},
        {"fig8/synth:prodcons:1/128", 0xbe5dbf527684dedfull},
        {"fig8/synth:prodcons:1/512", 0xbe5dbf527684dedfull},
        {"fig8/synth:prodcons:1/2048", 0xbe5dbf527684dedfull},
        {"fig8/synth:prodcons:1/Bloom", 0xbe5dbf527684dedfull},
        {"fig8/synth:prodcons:1/4-byte", 0x9102277babb17f9cull},
        {"fig8/synth:prodcons:1/Infinite", 0x9102277babb17f9cull},
        {"fig8/synth:branchstorm:1/128", 0x386423d5c2159680ull},
        {"fig8/synth:branchstorm:1/512", 0x386423d5c2159680ull},
        {"fig8/synth:branchstorm:1/2048", 0x386423d5c2159680ull},
        {"fig8/synth:branchstorm:1/Bloom", 0x386423d5c2159680ull},
        {"fig8/synth:branchstorm:1/4-byte", 0x8a0f84739106321eull},
        {"fig8/synth:branchstorm:1/Infinite", 0x8a0f84739106321eull},
        {"abl_lq_values/gzip/blind", 0x5af8d606ade0e1b1ull},
        {"abl_lq_values/gzip/value-aware", 0x5af8d606ade0e1b1ull},
        {"abl_lq_values/mcf/blind", 0x475430eb842670f5ull},
        {"abl_lq_values/mcf/value-aware", 0x475430eb842670f5ull},
        {"abl_lq_values/eon.c/blind", 0x230a7d5b0f8ab05aull},
        {"abl_lq_values/eon.c/value-aware", 0x230a7d5b0f8ab05aull},
        {"abl_lq_values/vortex/blind", 0x75c1b6e6cef66c6cull},
        {"abl_lq_values/vortex/value-aware", 0x75c1b6e6cef66c6cull},
        {"abl_lq_values/synth:prodcons:1/blind", 0x3d4dc0a19ceb571bull},
        {"abl_lq_values/synth:prodcons:1/value-aware", 0x3d4dc0a19ceb571bull},
        {"abl_lq_values/synth:branchstorm:1/blind", 0x7c79250110b9a6f6ull},
        {"abl_lq_values/synth:branchstorm:1/value-aware", 0x7c79250110b9a6f6ull},
        {"abl_spec_ssbf/gzip/speculative", 0xfef2a47c4bafb34cull},
        {"abl_spec_ssbf/gzip/atomic", 0x16e12620e018ecf7ull},
        {"abl_spec_ssbf/mcf/speculative", 0xf4caf125d4c1bd17ull},
        {"abl_spec_ssbf/mcf/atomic", 0xf4caf125d4c1bd17ull},
        {"abl_spec_ssbf/eon.c/speculative", 0x41b3c76df27bf24full},
        {"abl_spec_ssbf/eon.c/atomic", 0x559b7ee37ea50c15ull},
        {"abl_spec_ssbf/vortex/speculative", 0x635838b8039d0643ull},
        {"abl_spec_ssbf/vortex/atomic", 0x129c3434cd1ccd33ull},
        {"abl_spec_ssbf/synth:prodcons:1/speculative", 0xbe5dbf527684dedfull},
        {"abl_spec_ssbf/synth:prodcons:1/atomic", 0x1b71abae87ce644dull},
        {"abl_spec_ssbf/synth:branchstorm:1/speculative", 0x386423d5c2159680ull},
        {"abl_spec_ssbf/synth:branchstorm:1/atomic", 0xfff31d54cfd741fdull},
        {"abl_ssn_width/gzip/8b", 0x3289f318ef93262bull},
        {"abl_ssn_width/gzip/10b", 0x71b40b3d289b8d46ull},
        {"abl_ssn_width/gzip/12b", 0xfef2a47c4bafb34cull},
        {"abl_ssn_width/gzip/16b", 0xfef2a47c4bafb34cull},
        {"abl_ssn_width/gzip/64b", 0xfef2a47c4bafb34cull},
        {"abl_ssn_width/mcf/8b", 0xf4caf125d4c1bd17ull},
        {"abl_ssn_width/mcf/10b", 0xf4caf125d4c1bd17ull},
        {"abl_ssn_width/mcf/12b", 0xf4caf125d4c1bd17ull},
        {"abl_ssn_width/mcf/16b", 0xf4caf125d4c1bd17ull},
        {"abl_ssn_width/mcf/64b", 0xf4caf125d4c1bd17ull},
        {"abl_ssn_width/eon.c/8b", 0xb7fd26bacbeb7d98ull},
        {"abl_ssn_width/eon.c/10b", 0x41b3c76df27bf24full},
        {"abl_ssn_width/eon.c/12b", 0x41b3c76df27bf24full},
        {"abl_ssn_width/eon.c/16b", 0x41b3c76df27bf24full},
        {"abl_ssn_width/eon.c/64b", 0x41b3c76df27bf24full},
        {"abl_ssn_width/vortex/8b", 0xa35e008757c74db4ull},
        {"abl_ssn_width/vortex/10b", 0x829da1327b40ddb6ull},
        {"abl_ssn_width/vortex/12b", 0x635838b8039d0643ull},
        {"abl_ssn_width/vortex/16b", 0x635838b8039d0643ull},
        {"abl_ssn_width/vortex/64b", 0x635838b8039d0643ull},
        {"abl_ssn_width/synth:prodcons:1/8b", 0x43755a2493388646ull},
        {"abl_ssn_width/synth:prodcons:1/10b", 0x378c803dc4f0e37eull},
        {"abl_ssn_width/synth:prodcons:1/12b", 0xbe5dbf527684dedfull},
        {"abl_ssn_width/synth:prodcons:1/16b", 0xbe5dbf527684dedfull},
        {"abl_ssn_width/synth:prodcons:1/64b", 0xbe5dbf527684dedfull},
        {"abl_ssn_width/synth:branchstorm:1/8b", 0x9651e8793ee33cddull},
        {"abl_ssn_width/synth:branchstorm:1/10b", 0x386423d5c2159680ull},
        {"abl_ssn_width/synth:branchstorm:1/12b", 0x386423d5c2159680ull},
        {"abl_ssn_width/synth:branchstorm:1/16b", 0x386423d5c2159680ull},
        {"abl_ssn_width/synth:branchstorm:1/64b", 0x386423d5c2159680ull},
        {"abl_store_ports/gzip/base-1p", 0x5af8d606ade0e1b1ull},
        {"abl_store_ports/gzip/base-2p", 0x5af8d606ade0e1b1ull},
        {"abl_store_ports/gzip/ssq-1p", 0xfef2a47c4bafb34cull},
        {"abl_store_ports/gzip/ssq-2p", 0x09115bd55f1667edull},
        {"abl_store_ports/mcf/base-1p", 0x475430eb842670f5ull},
        {"abl_store_ports/mcf/base-2p", 0x475430eb842670f5ull},
        {"abl_store_ports/mcf/ssq-1p", 0xf4caf125d4c1bd17ull},
        {"abl_store_ports/mcf/ssq-2p", 0xf4caf125d4c1bd17ull},
        {"abl_store_ports/eon.c/base-1p", 0x230a7d5b0f8ab05aull},
        {"abl_store_ports/eon.c/base-2p", 0x34cc773d82a1803cull},
        {"abl_store_ports/eon.c/ssq-1p", 0x41b3c76df27bf24full},
        {"abl_store_ports/eon.c/ssq-2p", 0xe3b9bd597c44156bull},
        {"abl_store_ports/vortex/base-1p", 0x75c1b6e6cef66c6cull},
        {"abl_store_ports/vortex/base-2p", 0x4afb3e82e32d2615ull},
        {"abl_store_ports/vortex/ssq-1p", 0x635838b8039d0643ull},
        {"abl_store_ports/vortex/ssq-2p", 0xa4bbf319ff0bf82dull},
        {"abl_store_ports/synth:prodcons:1/base-1p", 0x3d4dc0a19ceb571bull},
        {"abl_store_ports/synth:prodcons:1/base-2p", 0x3d4dc0a19ceb571bull},
        {"abl_store_ports/synth:prodcons:1/ssq-1p", 0xbe5dbf527684dedfull},
        {"abl_store_ports/synth:prodcons:1/ssq-2p", 0x1ba2a783fcf74519ull},
        {"abl_store_ports/synth:branchstorm:1/base-1p", 0x7c79250110b9a6f6ull},
        {"abl_store_ports/synth:branchstorm:1/base-2p", 0x7c79250110b9a6f6ull},
        {"abl_store_ports/synth:branchstorm:1/ssq-1p", 0x386423d5c2159680ull},
        {"abl_store_ports/synth:branchstorm:1/ssq-2p", 0x386423d5c2159680ull},
        {"ext_nlqsm/gzip/inv@200", 0x7a622de84771c272ull},
        {"ext_nlqsm/gzip/inv@1000", 0x4776ece97ea8c970ull},
        {"ext_nlqsm/gzip/inv@5000", 0x4310bb79180b0b06ull},
        {"ext_nlqsm/mcf/inv@200", 0xdcb0e627397948b2ull},
        {"ext_nlqsm/mcf/inv@1000", 0x70fa6769d677337dull},
        {"ext_nlqsm/mcf/inv@5000", 0x1ddeb5712bf54437ull},
        {"ext_nlqsm/eon.c/inv@200", 0xe8dedb0aa5974228ull},
        {"ext_nlqsm/eon.c/inv@1000", 0xa92f6a8e7af34fa7ull},
        {"ext_nlqsm/eon.c/inv@5000", 0x74c92a0161f0ae96ull},
        {"ext_nlqsm/vortex/inv@200", 0xb1fc80a042948791ull},
        {"ext_nlqsm/vortex/inv@1000", 0x29ea961b1d53da20ull},
        {"ext_nlqsm/vortex/inv@5000", 0xbfe055ea147610b2ull},
        {"ext_nlqsm/synth:prodcons:1/inv@200", 0xb353eab4615e6e36ull},
        {"ext_nlqsm/synth:prodcons:1/inv@1000", 0xa02fd0f17c1d99c2ull},
        {"ext_nlqsm/synth:prodcons:1/inv@5000", 0x2cea68eeb76870a5ull},
        {"ext_nlqsm/synth:branchstorm:1/inv@200", 0x162d789713549f7dull},
        {"ext_nlqsm/synth:branchstorm:1/inv@1000", 0x47ca78e65034f258ull},
        {"ext_nlqsm/synth:branchstorm:1/inv@5000", 0xcef17c72f79dbe08ull},
        {"ext_svw_replace/gzip/nlq-rex", 0xd83d6393f512cc4dull},
        {"ext_svw_replace/gzip/nlq-repl", 0xd83d6393f512cc4dull},
        {"ext_svw_replace/gzip/ssq-rex", 0xfef2a47c4bafb34cull},
        {"ext_svw_replace/gzip/ssq-repl", 0xb4abe27808b114ceull},
        {"ext_svw_replace/mcf/nlq-rex", 0x8ec48f6e82e921c3ull},
        {"ext_svw_replace/mcf/nlq-repl", 0x8ec48f6e82e921c3ull},
        {"ext_svw_replace/mcf/ssq-rex", 0xf4caf125d4c1bd17ull},
        {"ext_svw_replace/mcf/ssq-repl", 0x3fc23bc5d52b4cf9ull},
        {"ext_svw_replace/eon.c/nlq-rex", 0x74c92a0161f0ae96ull},
        {"ext_svw_replace/eon.c/nlq-repl", 0x74c92a0161f0ae96ull},
        {"ext_svw_replace/eon.c/ssq-rex", 0x41b3c76df27bf24full},
        {"ext_svw_replace/eon.c/ssq-repl", 0x4fa91f2dab518428ull},
        {"ext_svw_replace/vortex/nlq-rex", 0x98b3fe04c4fab101ull},
        {"ext_svw_replace/vortex/nlq-repl", 0x51c8a07f5130c541ull},
        {"ext_svw_replace/vortex/ssq-rex", 0x635838b8039d0643ull},
        {"ext_svw_replace/vortex/ssq-repl", 0xfb54105bfb6b04a6ull},
        {"ext_svw_replace/synth:prodcons:1/nlq-rex", 0xc3b4b19e3938febbull},
        {"ext_svw_replace/synth:prodcons:1/nlq-repl", 0xc3b4b19e3938febbull},
        {"ext_svw_replace/synth:prodcons:1/ssq-rex", 0xbe5dbf527684dedfull},
        {"ext_svw_replace/synth:prodcons:1/ssq-repl", 0x8282f8936b1ea4ffull},
        {"ext_svw_replace/synth:branchstorm:1/nlq-rex", 0x238fe4414b411a6dull},
        {"ext_svw_replace/synth:branchstorm:1/nlq-repl", 0x238fe4414b411a6dull},
        {"ext_svw_replace/synth:branchstorm:1/ssq-rex", 0x386423d5c2159680ull},
        {"ext_svw_replace/synth:branchstorm:1/ssq-repl", 0x79c3eea1a00a0d7aull},
    };
    return table;
}

} // namespace

TEST(StatRegistryPin, EveryFigureConfigMatchesRecordedDigests)
{
    const auto &expected = recordedDigests();
    std::map<std::string, Program> programs;
    for (const std::string &w : pinWorkloads())
        programs.emplace(w, workloads::make(w, pinInsts));

    std::size_t checked = 0;
    for (const FigureDef &def : figureRegistry()) {
        const SweepSpec spec = def.build(pinWorkloads(), pinInsts);
        for (const SweepCell &cell : spec.cells()) {
            const std::string name = std::string(def.name) + "/" +
                cell.workload + "/" + cell.label;
            const std::uint64_t got =
                registryDigest(cell, programs.at(cell.workload));
            char lit[32];
            std::snprintf(lit, sizeof lit, "0x%016llxull",
                          static_cast<unsigned long long>(got));
            const auto it = expected.find(name);
            if (it == expected.end()) {
                ADD_FAILURE() << "no recorded digest for cell " << name
                              << ": {\"" << name << "\", " << lit << "},";
                continue;
            }
            EXPECT_EQ(it->second, got)
                << "stat registry changed in cell " << name
                << ": {\"" << name << "\", " << lit << "},";
            ++checked;
        }
    }
    // Every recorded cell is still produced (no silent shrink).
    EXPECT_EQ(checked, expected.size());
}
