/**
 * @file
 * Experiment configurations: the paper's two machines (section 4) and
 * the per-figure optimization/SVW variants.
 */

#ifndef SVW_HARNESS_CONFIG_HH
#define SVW_HARNESS_CONFIG_HH

#include <compare>
#include <string>

#include "cpu/core.hh"

namespace svw::harness {

/** Machine width class (paper section 4). */
enum class Machine
{
    EightWide,  ///< NLQ/SSQ machine: 8-way, 512 ROB, 128 LQ, 64 SQ
    FourWide,   ///< RLE machine: 4-way, 128 ROB, 32 LQ, 16 SQ
};

/** Which load optimization is active. */
enum class OptMode
{
    Baseline,      ///< conventional LSU, no re-execution
    BaselineAssocSq,///< conventional with the 4-cycle assoc-SQ load path
    Nlq,           ///< non-associative LQ (Figure 5)
    Ssq,           ///< speculative SQ (Figure 6)
    Rle,           ///< redundant load elimination (Figure 7)
    Composed,      ///< NLQ + SSQ + RLE together (section 3.5 extension)
};

/** Re-execution filtering variant. */
enum class SvwMode
{
    None,     ///< natural filter only
    NoUpd,    ///< SVW without the store-forward update
    Upd,      ///< SVW with the store-forward update
    Perfect,  ///< ideal re-execution: zero latency, infinite bandwidth
};

/** One experiment cell. */
struct ExperimentConfig
{
    Machine machine = Machine::EightWide;
    OptMode opt = OptMode::Baseline;
    SvwMode svw = SvwMode::Upd;

    // Knobs for the sensitivity/ablation studies.
    unsigned ssnBits = 16;
    SsbfParams ssbf{};
    bool speculativeSsbfUpdate = true;
    unsigned dcachePorts = 1;
    bool rleSquashReuse = true;
    bool nlqsm = false;
    /** Section 6 future work: SSBF hits flush instead of re-executing. */
    bool svwReplace = false;
    /** Ablation: value-aware LQ search ignores silent-store violations
     * (section 2.2's "if the LQ contains values" remark). */
    bool lqValueCheck = false;

    /** Memberwise order: the result cache interns each config's key
     * text in a map keyed by the whole config (harness/sweep.cc), so
     * a field added here joins that key with no hand-written
     * comparison. */
    auto operator<=>(const ExperimentConfig &) const = default;
};

/** Human-readable label ("NLQ+SVW+UPD" etc.). */
std::string configLabel(const ExperimentConfig &cfg);

/** Expand an experiment cell into full core parameters. */
CoreParams buildParams(const ExperimentConfig &cfg);

} // namespace svw::harness

#endif // SVW_HARNESS_CONFIG_HH
