/**
 * @file
 * Committed-instruction trace record/replay.
 *
 * A trace file is a self-contained workload: the full static program
 * (text, initial data segments, entry state) plus the committed
 * dynamic stream captured once via the in-order interpreter — the
 * committed-PC sequence (run-length + delta compressed), the dynamic
 * counts, and the final architectural register file. Replaying
 * "trace:<file>" through the workload registry rebuilds the Program
 * from the file alone, with no dependency on the kernel generators
 * (prog/workloads, prog/synth) that produced it — externally captured
 * or archived streams become first-class workloads, and replay is
 * byte-identical to the live front end because the reconstructed text
 * is bit-exact (wrong-path fetch, branch-predictor indexing and cycle
 * counts all match).
 *
 * The embedded stream doubles as a golden reference: replay harnesses
 * can check a simulation's committed stream and final state against
 * the recording without re-running the functional front end.
 *
 * File layout (little-endian):
 *   magic "SVWTRACE" | u64 payloadBytes | payload | u64 fnv1a(payload)
 * with the payload carrying a u32 format version first. A truncated,
 * stale-version, or bit-rotted file fails loudly (svw_fatal) — never
 * a silent wrong replay.
 */

#ifndef SVW_PROG_TRACE_HH
#define SVW_PROG_TRACE_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "func/interp.hh"
#include "prog/program.hh"

namespace svw::trace {

/** Bump on any layout change; readers reject other versions loudly. */
inline constexpr std::uint32_t traceVersion = 1;

/** In-memory form of one trace. */
struct TraceData
{
    std::string sourceWorkload;  ///< registry name the trace came from
    Program program;             ///< bit-exact reconstruction source
    std::uint64_t insts = 0;     ///< committed instructions recorded
    InterpCounts counts;         ///< dynamic mix at record time
    std::array<std::uint64_t, numArchRegs> finalRegs{};
    /** Committed text-index sequence, one entry per instruction. */
    std::vector<std::uint64_t> committedPcs;
};

/**
 * Capture @p prog's committed stream by running the interpreter to
 * Halt. Fatal if the program does not halt within @p maxInsts (a
 * non-terminating recording would be an unbounded file).
 */
TraceData record(const Program &prog, const std::string &sourceWorkload,
                 std::uint64_t maxInsts);

/** Serialize to @p path (atomically enough for tests: full rewrite). */
void writeFile(const std::string &path, const TraceData &t);

/**
 * Parse and fully verify @p path: magic, version, payload length
 * (truncation), checksum, and internal consistency (stream length ==
 * insts, PCs within text). Fatal on any defect.
 */
TraceData readFile(const std::string &path);

/**
 * Non-throwing validity probe (flag validation): @return false and
 * fill @p err if @p path is missing, truncated, checksummed wrong, or
 * a different format version.
 */
bool probeFile(const std::string &path, std::string &err);

/**
 * The workload-registry entry point: reconstruct the Program from
 * @p path, named "trace:<path>". Fatal on a bad file. When
 * @p checksum is given it receives fileChecksum's value taken from the
 * same read, so the program and its content identity always agree.
 */
Program loadProgram(const std::string &path,
                    std::uint64_t *checksum = nullptr);

/**
 * Content identity of the trace for the persistent ResultCache: the
 * stored payload checksum (content-addressed — rewriting the file
 * with different contents changes it). Fatal on a bad file.
 */
std::uint64_t fileChecksum(const std::string &path);

} // namespace svw::trace

#endif // SVW_PROG_TRACE_HH
