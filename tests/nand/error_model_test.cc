/**
 * @file
 * Behavioural and property tests for the NAND error model beyond the
 * paper's numeric anchors (those live in error_model_anchor_test.cc).
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <tuple>

#include "nand/error_model.hh"

namespace ssdrr::nand {
namespace {

TEST(ErrorModel, ProfilesAreDeterministicPerCoordinates)
{
    const ErrorModel m;
    const OperatingPoint op{1.0, 6.0, 55.0};
    const PageErrorProfile a = m.pageProfile(2, 30, 7, op);
    const PageErrorProfile b = m.pageProfile(2, 30, 7, op);
    EXPECT_EQ(a.retrySteps, b.retrySteps);
    EXPECT_DOUBLE_EQ(a.finalErrors, b.finalErrors);
    EXPECT_DOUBLE_EQ(a.decayRatio, b.decayRatio);
}

TEST(ErrorModel, DifferentPagesDiffer)
{
    const ErrorModel m;
    const OperatingPoint op{1.0, 6.0, 85.0};
    int distinct = 0;
    const PageErrorProfile first = m.pageProfile(0, 0, 0, op);
    for (int p = 1; p < 50; ++p) {
        const PageErrorProfile prof = m.pageProfile(0, 0, p, op);
        if (prof.retrySteps != first.retrySteps ||
            prof.finalErrors != first.finalErrors)
            ++distinct;
    }
    EXPECT_GT(distinct, 40) << "process variation must differentiate pages";
}

TEST(ErrorModel, DifferentSeedsGiveDifferentPopulations)
{
    const ErrorModel m1(Calibration{}, 1);
    const ErrorModel m2(Calibration{}, 2);
    const OperatingPoint op{1.0, 6.0, 85.0};
    int distinct = 0;
    for (int p = 0; p < 50; ++p) {
        if (m1.pageProfile(0, 0, p, op).retrySteps !=
            m2.pageProfile(0, 0, p, op).retrySteps)
            ++distinct;
    }
    EXPECT_GT(distinct, 10);
}

TEST(ErrorModel, RetryStepsClampToTableSize)
{
    const ErrorModel m;
    // An absurdly aged condition cannot exceed the retry table.
    const OperatingPoint op{3.0, 12.0, 85.0};
    for (int p = 0; p < 200; ++p) {
        const PageErrorProfile prof = m.pageProfile(0, 0, p, op);
        EXPECT_LE(prof.retrySteps, m.cal().retryTableSteps);
        EXPECT_GE(prof.retrySteps, 0);
    }
}

TEST(ErrorModel, FinalErrorsBoundedByMax)
{
    const ErrorModel m;
    const OperatingPoint op{2.0, 12.0, 30.0};
    const double cap = m.finalErrorsMax(op);
    for (int p = 0; p < 500; ++p) {
        const PageErrorProfile prof = m.pageProfile(0, p / 64, p % 64, op);
        EXPECT_LE(prof.finalErrors, cap);
        EXPECT_GT(prof.finalErrors, 0.0);
    }
}

TEST(ErrorModel, StepErrorsDecayTowardFinal)
{
    // Errors saturate at a 50% RBER (4096/KiB) far from VOPT, then
    // decay strictly monotonically once below the saturation cap.
    constexpr double kSaturation = 4096.0;
    const ErrorModel m;
    const OperatingPoint op{1.0, 6.0, 85.0};
    const PageErrorProfile prof = m.pageProfile(0, 0, 3, op);
    ASSERT_GT(prof.retrySteps, 1);
    for (int k = 1; k <= prof.retrySteps; ++k) {
        const double prev = m.stepErrors(prof, k - 1);
        const double cur = m.stepErrors(prof, k);
        EXPECT_LE(cur, prev) << "k=" << k;
        if (prev < kSaturation) {
            EXPECT_LT(cur, prev)
                << "strict decay below saturation, k=" << k;
        }
    }
    // The last two steps are always below saturation (the walk is
    // about to succeed), so strict decay is guaranteed there.
    EXPECT_LT(m.stepErrors(prof, prof.retrySteps),
              m.stepErrors(prof, prof.retrySteps - 1));
}

TEST(ErrorModel, OvershootGrowsAgain)
{
    const ErrorModel m;
    const OperatingPoint op{1.0, 6.0, 85.0};
    const PageErrorProfile prof = m.pageProfile(0, 0, 3, op);
    const int n = prof.retrySteps;
    EXPECT_GT(m.stepErrors(prof, n + 1), m.stepErrors(prof, n));
    EXPECT_GT(m.stepErrors(prof, n + 2), m.stepErrors(prof, n + 1));
}

TEST(ErrorModel, ExtraErrorsShiftEveryStep)
{
    constexpr double kSaturation = 4096.0;
    const ErrorModel m;
    const OperatingPoint op{1.0, 6.0, 85.0};
    const PageErrorProfile prof = m.pageProfile(0, 0, 3, op);
    int checked = 0;
    for (int k = 0; k <= prof.retrySteps + 1; ++k) {
        const double base = m.stepErrors(prof, k);
        if (base + 10.0 >= kSaturation)
            continue; // additivity clips at the saturation cap
        EXPECT_NEAR(m.stepErrors(prof, k, 10.0), base + 10.0, 1e-9)
            << "extra errors are additive below the cap, k=" << k;
        ++checked;
    }
    EXPECT_GE(checked, 2) << "at least the final steps are testable";
}

TEST(ErrorModel, SimulateReadMatchesProfileWithoutReduction)
{
    const ErrorModel m;
    const OperatingPoint op{1.0, 3.0, 85.0};
    for (int p = 0; p < 200; ++p) {
        const PageErrorProfile prof = m.pageProfile(0, 1, p, op);
        const ReadOutcome out = m.simulateRead(prof);
        EXPECT_TRUE(out.success);
        EXPECT_EQ(out.retrySteps, prof.retrySteps)
            << "default timing must need exactly the profiled steps";
        EXPECT_LE(out.lastStepErrors, m.cal().eccCapability);
    }
}

TEST(ErrorModel, SmallExtraErrorsKeepStepCount)
{
    // The AR2 premise: if finalErrors + dM <= capability, the same
    // number of steps still succeeds.
    const ErrorModel m;
    const OperatingPoint op{1.0, 6.0, 85.0};
    const PageErrorProfile prof = m.pageProfile(0, 2, 5, op);
    const double slack = m.cal().eccCapability - prof.finalErrors;
    ASSERT_GT(slack, 1.0);
    const ReadOutcome out = m.simulateRead(prof, slack * 0.5);
    EXPECT_TRUE(out.success);
    EXPECT_EQ(out.retrySteps, prof.retrySteps);
}

TEST(ErrorModel, ExcessiveExtraErrorsFailTheWalk)
{
    const ErrorModel m;
    const OperatingPoint op{1.0, 6.0, 85.0};
    const PageErrorProfile prof = m.pageProfile(0, 2, 5, op);
    // More extra errors than the capability minus the floor: no step
    // can ever succeed.
    const ReadOutcome out =
        m.simulateRead(prof, m.cal().eccCapability + 1.0);
    EXPECT_FALSE(out.success);
    EXPECT_EQ(out.retrySteps, m.cal().retryTableSteps);
}

TEST(ErrorModel, CustomCapabilityThreshold)
{
    const ErrorModel m;
    const OperatingPoint op{1.0, 6.0, 85.0};
    const PageErrorProfile prof = m.pageProfile(0, 2, 5, op);
    // With an enormous capability the first read always succeeds.
    const ReadOutcome out = m.simulateRead(prof, 0.0, 1e9);
    EXPECT_TRUE(out.success);
    EXPECT_EQ(out.retrySteps, 0);
}

TEST(ErrorModel, SkippedFailingPrefixMatchesFullWalk)
{
    // simulateRead() starts at step N_RR when step N_RR - 1 fails;
    // its outcome must equal the full walk from step 0 bit for bit,
    // for every extra-error level and capability, including the
    // cases where an earlier step succeeds.
    const ErrorModel m;
    int skipped = 0, early = 0;
    for (const OperatingPoint op : {OperatingPoint{0.0, 0.0, 85.0},
                                    OperatingPoint{1.0, 6.0, 30.0},
                                    OperatingPoint{2.0, 12.0, 55.0}}) {
        for (int p = 0; p < 64; ++p) {
            const PageErrorProfile prof = m.pageProfile(3, 7, p, op);
            for (double extra : {0.0, 0.25, 2.0, 9.0, 30.0, 200.0}) {
                for (double cap : {-1.0, 20.0, 40.0, 72.0, 120.0, 1e9}) {
                    const double c =
                        cap < 0.0 ? m.cal().eccCapability : cap;
                    ReadOutcome ref;
                    ref.success = false;
                    for (int k = 0; k <= m.cal().retryTableSteps; ++k) {
                        ref.retrySteps = k;
                        ref.lastStepErrors = m.stepErrors(prof, k, extra);
                        if (ref.lastStepErrors <= c) {
                            ref.success = true;
                            break;
                        }
                    }
                    const ReadOutcome out = m.simulateRead(prof, extra, cap);
                    ASSERT_EQ(out.retrySteps, ref.retrySteps);
                    ASSERT_EQ(out.success, ref.success);
                    ASSERT_EQ(out.lastStepErrors, ref.lastStepErrors);
                    if (prof.retrySteps >= 1 &&
                        m.stepErrors(prof, prof.retrySteps - 1, extra) > c)
                        ++skipped;
                    else if (ref.success &&
                             ref.retrySteps < prof.retrySteps)
                        ++early;
                }
            }
        }
    }
    EXPECT_GT(skipped, 100) << "the skip must be exercised";
    EXPECT_GT(early, 100) << "walks ending before N_RR must be exercised";
}

TEST(ErrorModel, InvalidOperatingPointPanics)
{
    const ErrorModel m;
    EXPECT_THROW(m.meanRetrySteps({-1.0, 0.0, 85.0}), std::logic_error);
    EXPECT_THROW(m.finalErrorsMax({0.0, -1.0, 85.0}), std::logic_error);
    EXPECT_THROW(m.pageProfile(0, 0, 0, {0.0, 0.0, 300.0}),
                 std::logic_error);
}

TEST(ErrorModel, InvalidReductionPanics)
{
    const ErrorModel m;
    TimingReduction bad;
    bad.pre = 1.5;
    EXPECT_THROW(m.deltaErrors(bad, OperatingPoint{}), std::logic_error);
}

TEST(ErrorModel, StepErrorsRejectsNegativeStep)
{
    const ErrorModel m;
    const PageErrorProfile prof =
        m.pageProfile(0, 0, 0, OperatingPoint{1.0, 6.0, 85.0});
    EXPECT_THROW(m.stepErrors(prof, -1), std::logic_error);
}

/**
 * Property sweep: the three characterization surfaces must be
 * monotone in P/E cycles and retention age, across the paper's whole
 * evaluated grid. (Worse conditions never improve anything.)
 */
class SurfaceMonotonicity
    : public ::testing::TestWithParam<std::tuple<double, double>>
{
  protected:
    ErrorModel model_;
};

TEST_P(SurfaceMonotonicity, WorsePecNeverImproves)
{
    const auto [pe, ret] = GetParam();
    const OperatingPoint op{pe, ret, 85.0};
    const OperatingPoint worse{pe + 0.5, ret, 85.0};
    EXPECT_GE(model_.meanRetrySteps(worse), model_.meanRetrySteps(op));
    EXPECT_GE(model_.finalErrorsMax(worse), model_.finalErrorsMax(op));
    TimingReduction red;
    red.pre = 0.40;
    EXPECT_GE(model_.deltaErrors(red, worse), model_.deltaErrors(red, op));
    EXPECT_LE(model_.maxSafePreReduction(worse),
              model_.maxSafePreReduction(op));
}

TEST_P(SurfaceMonotonicity, LongerRetentionNeverImproves)
{
    const auto [pe, ret] = GetParam();
    const OperatingPoint op{pe, ret, 85.0};
    const OperatingPoint worse{pe, ret + 2.0, 85.0};
    EXPECT_GE(model_.meanRetrySteps(worse), model_.meanRetrySteps(op));
    EXPECT_GE(model_.finalErrorsMax(worse), model_.finalErrorsMax(op));
    TimingReduction red;
    red.pre = 0.40;
    EXPECT_GE(model_.deltaErrors(red, worse), model_.deltaErrors(red, op));
    EXPECT_LE(model_.maxSafePreReduction(worse),
              model_.maxSafePreReduction(op));
}

TEST_P(SurfaceMonotonicity, DeltaErrorsMonotoneInReduction)
{
    const auto [pe, ret] = GetParam();
    const OperatingPoint op{pe, ret, 85.0};
    double prev = 0.0;
    for (double x = 0.05; x < 0.6; x += 0.05) {
        TimingReduction red;
        red.pre = x;
        const double d = model_.deltaErrors(red, op);
        EXPECT_GE(d, prev) << "x=" << x;
        prev = d;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SurfaceMonotonicity,
    ::testing::Combine(::testing::Values(0.0, 0.5, 1.0, 1.5, 2.0),
                       ::testing::Values(0.0, 1.0, 3.0, 6.0, 9.0, 12.0)));

/**
 * Property: for any operating point, the RPT-profiled reduction is
 * actually safe for the page population it covers (the AR2 design
 * invariant: no step-count inflation with the profiled reduction).
 */
class ProfiledReductionSafety
    : public ::testing::TestWithParam<std::tuple<double, double, double>>
{
  protected:
    ErrorModel model_;
};

TEST_P(ProfiledReductionSafety, ReducedWalkKeepsStepCount)
{
    const auto [pe, ret, temp] = GetParam();
    const OperatingPoint op{pe, ret, temp};
    const double x = model_.maxSafePreReduction(op);
    if (x == 0.0)
        GTEST_SKIP() << "no safe reduction at this point";
    TimingReduction red;
    red.pre = x;
    const double extra = model_.deltaErrors(red, op);
    int inflated = 0;
    for (int p = 0; p < 800; ++p) {
        const PageErrorProfile prof =
            model_.pageProfile(0, p / 64, p % 64, op);
        const ReadOutcome out = model_.simulateRead(prof, extra);
        EXPECT_TRUE(out.success);
        if (out.retrySteps != prof.retrySteps)
            ++inflated;
    }
    // The 14-bit safety margin absorbs temperature + outliers: the
    // profiled reduction must essentially never add steps.
    EXPECT_EQ(inflated, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ProfiledReductionSafety,
    ::testing::Combine(::testing::Values(0.0, 1.0, 2.0),
                       ::testing::Values(0.0, 3.0, 12.0),
                       ::testing::Values(30.0, 55.0, 85.0)));

} // namespace
} // namespace ssdrr::nand
