/**
 * @file
 * Synthetic SPEC2000int stand-in workloads.
 *
 * The paper evaluates on the SPEC2000 integer suite compiled for Alpha.
 * We cannot run those binaries, so each benchmark on the paper's x-axis
 * is mapped to a mini-RISC kernel whose memory behaviour exercises the
 * phenomena the paper's results depend on:
 *
 *  - store-to-load forwarding density and distance (FSQ pressure, the
 *    "update SVW on store-forward" optimization),
 *  - loads issuing past stores with unresolved addresses (NLQ-LS marked
 *    loads, memory-ordering violations, store-sets training),
 *  - load redundancy visible to register integration (RLE rate),
 *  - silent stores (re-executions that SVW cannot filter),
 *  - baseline IPC and store density (sensitivity to the shared data-cache
 *    commit/re-execute port), and
 *  - cache footprint (miss-rate spread across the suite).
 *
 * See DESIGN.md section 3 for the benchmark-to-kernel mapping rationale.
 */

#ifndef SVW_PROG_WORKLOADS_WORKLOADS_HH
#define SVW_PROG_WORKLOADS_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "prog/program.hh"

namespace svw::workloads {

/**
 * Names in the paper's figure order: bzip2 crafty eon.c eon.k eon.r gap
 * gcc gzip mcf parser perl.d perl.s twolf vortex vpr.p vpr.r.
 */
const std::vector<std::string> &suiteNames();

/** A short subset used by Figure 8 (crafty gcc perl.d vortex vpr.r). */
const std::vector<std::string> &fig8Names();

/**
 * One "synth:<kind>:1" name per generator kind (prog/synth) — a ready
 * suite for sweeps that want the full behaviour-space spread.
 */
const std::vector<std::string> &synthSuiteNames();

/**
 * Build the named workload sized to roughly @p targetInsts dynamic
 * instructions. Accepts the curated suite names, "synth:..." generator
 * names (prog/synth), and "trace:<file>" replays (prog/trace). Panics
 * (fatal) on an unknown or malformed name and on a bad trace file.
 */
Program make(const std::string &name, std::uint64_t targetInsts);

/** make() that also sets @p augment to cacheKeyAugment(@p name),
 * computed from the same read of a trace file as the program, so the
 * two always describe the same file content. */
Program make(const std::string &name, std::uint64_t targetInsts,
             std::string &augment);

/**
 * True if @p name resolves to a buildable workload. For "synth:" names
 * this parses the full recipe; for "trace:" names it opens and verifies
 * the file. Never throws.
 */
bool isKnown(const std::string &name);

/**
 * Like isKnown but fills @p err with a one-line reason on failure —
 * the bench flag layer's validation path for --workload=.
 */
bool validate(const std::string &name, std::string &err);

/**
 * Extra material the persistent ResultCache must mix into a cell key
 * for @p name beyond the name itself. Empty for curated and synth
 * workloads (their names are complete recipes); for "trace:<file>" it
 * pins the file's content checksum, so rewriting the trace invalidates
 * cached results even though the name is unchanged. Fatal on an
 * unreadable/corrupt trace file.
 */
std::string cacheKeyAugment(const std::string &name);

// Individual kernel constructors (exposed for unit tests and examples).
// @p iters scales the main loop trip count.
Program makeBzip2(std::uint64_t iters);
Program makeCrafty(std::uint64_t iters);
Program makeEon(std::uint64_t iters, unsigned variant);  // 0=c 1=k 2=r
Program makeGap(std::uint64_t iters);
Program makeGcc(std::uint64_t iters);
Program makeGzip(std::uint64_t iters);
Program makeMcf(std::uint64_t iters);
Program makeParser(std::uint64_t iters);
Program makePerl(std::uint64_t iters, unsigned variant);  // 0=d 1=s
Program makeTwolf(std::uint64_t iters);
Program makeVortex(std::uint64_t iters);
Program makeVpr(std::uint64_t iters, unsigned variant);  // 0=p 1=r

} // namespace svw::workloads

#endif // SVW_PROG_WORKLOADS_WORKLOADS_HH
