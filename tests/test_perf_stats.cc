/**
 * @file
 * Mann-Whitney U tests (harness/perf_stats.hh), pinned against
 * hand-computed values so the perf-regression verdicts of
 * `perf_hotloop --history` stay trustworthy: a broken rank sum or tie
 * correction would silently turn the gate into noise.
 */

#include <gtest/gtest.h>

#include <vector>

#include "harness/perf_stats.hh"

using namespace svw::harness;

TEST(PerfStats, MedianOddEvenAndEmpty)
{
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
    EXPECT_DOUBLE_EQ(median({7.0}), 7.0);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(PerfStats, FullySeparatedSamples)
{
    // a entirely below b: U1 = 0. Hand computation: r1 = 15,
    // U1 = 15 - 5*6/2 = 0, mu = 12.5, var = 25/12 * 11 = 22.9167,
    // continuity-corrected z = -12/4.7871 = -2.5067, two-sided
    // p = erfc(2.5067/sqrt(2)) = 0.01218.
    const std::vector<double> a = {1, 2, 3, 4, 5};
    const std::vector<double> b = {6, 7, 8, 9, 10};
    const MannWhitneyResult r = mannWhitneyU(a, b);
    EXPECT_DOUBLE_EQ(r.u1, 0.0);
    EXPECT_DOUBLE_EQ(r.u2, 25.0);
    EXPECT_NEAR(r.z, -2.5067, 1e-3);
    EXPECT_NEAR(r.p, 0.01218, 5e-4);
    EXPECT_DOUBLE_EQ(r.medianShift, 3.0 - 8.0);
    EXPECT_LT(r.p, 0.05);  // the history gate's significance threshold

    // Symmetry: swapping the samples swaps U1/U2 and negates z.
    const MannWhitneyResult s = mannWhitneyU(b, a);
    EXPECT_DOUBLE_EQ(s.u1, r.u2);
    EXPECT_DOUBLE_EQ(s.u2, r.u1);
    EXPECT_NEAR(s.z, -r.z, 1e-12);
    EXPECT_NEAR(s.p, r.p, 1e-12);
}

TEST(PerfStats, TieCorrection)
{
    // Pooled {1,1,1,2,2,2}: the 1s share rank 2, the 2s share rank 5.
    // r1 = 2+2+5 = 9, U1 = 9 - 6 = 3, mu = 4.5,
    // tieTerm = 2*(27-3) = 48, var = 9/12 * (7 - 48/30) = 4.05,
    // corrected z = -1.0/2.0125 = -0.4969, p = 0.6193.
    const std::vector<double> a = {1, 1, 2};
    const std::vector<double> b = {1, 2, 2};
    const MannWhitneyResult r = mannWhitneyU(a, b);
    EXPECT_DOUBLE_EQ(r.u1, 3.0);
    EXPECT_DOUBLE_EQ(r.u2, 6.0);
    EXPECT_NEAR(r.z, -0.4969, 1e-3);
    EXPECT_NEAR(r.p, 0.6193, 5e-4);
}

TEST(PerfStats, DegenerateSamplesAreNotSignificant)
{
    // Every observation tied: zero variance, no evidence of a shift.
    const MannWhitneyResult tied =
        mannWhitneyU({5.0, 5.0}, {5.0, 5.0});
    EXPECT_DOUBLE_EQ(tied.z, 0.0);
    EXPECT_DOUBLE_EQ(tied.p, 1.0);

    // Empty samples: the harness treats "no data" as "no verdict".
    EXPECT_DOUBLE_EQ(mannWhitneyU({}, {1.0}).p, 1.0);
    EXPECT_DOUBLE_EQ(mannWhitneyU({1.0}, {}).p, 1.0);
    EXPECT_DOUBLE_EQ(mannWhitneyU({}, {}).p, 1.0);
}

TEST(PerfStats, InterleavedNoiseIsNotSignificant)
{
    // Same distribution, alternating observations — the shape the gate
    // sees when an "optimization" does nothing. U1 + U2 = n1*n2 always.
    const std::vector<double> a = {10.1, 10.3, 10.2, 10.4, 10.25};
    const std::vector<double> b = {10.2, 10.1, 10.35, 10.3, 10.15};
    const MannWhitneyResult r = mannWhitneyU(a, b);
    EXPECT_DOUBLE_EQ(r.u1 + r.u2, 25.0);
    EXPECT_GT(r.p, 0.05);
}

TEST(PerfStats, ConsistentShiftIsSignificant)
{
    // A ~3% consistent improvement over 12 interleaved reps — the
    // effect size the gate is built to resolve.
    std::vector<double> fast, slow;
    for (int i = 0; i < 12; ++i) {
        fast.push_back(1.00 + 0.002 * (i % 5));
        slow.push_back(1.03 + 0.002 * ((i + 3) % 5));
    }
    const MannWhitneyResult r = mannWhitneyU(fast, slow);
    EXPECT_LT(r.p, 0.05);
    EXPECT_LT(r.medianShift, 0.0);  // fast arm is faster
}
