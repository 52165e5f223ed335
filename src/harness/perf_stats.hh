/**
 * @file
 * Statistics for the perf-regression gate (bench/perf_hotloop
 * --history): the Mann-Whitney U test over host-time samples.
 *
 * Container timing noise is heavy-tailed and occasionally bimodal
 * (page-cache state, CPU-frequency excursions, sibling load), so a
 * mean comparison over a handful of reps is nearly meaningless. The
 * Mann-Whitney U test is rank-based: it asks only whether one sample
 * set stochastically dominates the other, is exact under exchange of
 * labels, and is immune to outlier magnitude — the right tool for
 * "did this commit make cell X slower" on shared hardware.
 */

#ifndef SVW_HARNESS_PERF_STATS_HH
#define SVW_HARNESS_PERF_STATS_HH

#include <cstddef>
#include <vector>

namespace svw::harness {

/** Result of a two-sided Mann-Whitney U test. */
struct MannWhitneyResult
{
    double u1 = 0.0;      ///< U statistic of sample A
    double u2 = 0.0;      ///< U statistic of sample B (n1*n2 - u1)
    double z = 0.0;       ///< normal approximation (tie-corrected,
                          ///< continuity-corrected)
    double p = 1.0;       ///< two-sided p-value
    /** A's median minus B's median (sign = direction of any shift;
     * the test itself is rank-based). */
    double medianShift = 0.0;
};

/**
 * Two-sided Mann-Whitney U test of @p a vs @p b via the normal
 * approximation with tie correction and 0.5 continuity correction.
 * Degenerate inputs (either sample empty, or every value tied) return
 * p = 1. The approximation is standard for n >= ~8 per side.
 */
MannWhitneyResult mannWhitneyU(const std::vector<double> &a,
                               const std::vector<double> &b);

/** Sample median (averaged middle pair for even sizes; 0 if empty). */
double median(std::vector<double> v);

} // namespace svw::harness

#endif // SVW_HARNESS_PERF_STATS_HH
