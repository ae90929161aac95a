/**
 * @file
 * Tests for the Section 8 predictive extensions: the error
 * predictor, speculative retry start, and reduced regular reads.
 */

#include <gtest/gtest.h>

#include "core/predictive.hh"

namespace ssdrr::core {
namespace {

class PredictiveTest : public ::testing::Test
{
  protected:
    PredictiveTest() : rpt_(RptBuilder(model_).buildDefault()) {}

    ReadPlan
    planWith(const PredictiveController &pc, std::uint64_t page,
             const nand::OperatingPoint &op)
    {
        ssd::Channel ch;
        ecc::EccEngine ecc(timing_.tECC, 72.0);
        return pc.planRead(0, nand::PageType::LSB, 0, 0, page, op, ch,
                           ecc);
    }

    ReadPlan
    planPnar2(std::uint64_t page, const nand::OperatingPoint &op)
    {
        RetryController rc(Mechanism::PnAR2, timing_, model_, &rpt_);
        ssd::Channel ch;
        ecc::EccEngine ecc(timing_.tECC, 72.0);
        const nand::PageErrorProfile prof =
            model_.pageProfile(0, 0, page, op);
        return rc.planRead(0, nand::PageType::LSB, prof, op, ch, ecc);
    }

    nand::TimingParams timing_;
    nand::ErrorModel model_;
    Rpt rpt_;
};

TEST_F(PredictiveTest, PerfectPredictorMatchesProfile)
{
    const ErrorPredictor pred(model_, 1.0);
    const nand::OperatingPoint op{1.0, 6.0, 30.0};
    for (std::uint64_t p = 0; p < 200; ++p) {
        const nand::PageErrorProfile prof =
            model_.pageProfile(0, 0, p, op);
        const ErrorPrediction e = pred.predict(0, 0, p, op);
        EXPECT_EQ(e.willRetry, prof.retrySteps > 0) << p;
        EXPECT_DOUBLE_EQ(e.predictedErrors, prof.finalErrors) << p;
    }
}

TEST_F(PredictiveTest, PredictionsAreDeterministic)
{
    const ErrorPredictor pred(model_, 0.7);
    const nand::OperatingPoint op{1.0, 6.0, 30.0};
    for (std::uint64_t p = 0; p < 50; ++p) {
        const ErrorPrediction a = pred.predict(0, 3, p, op);
        const ErrorPrediction b = pred.predict(0, 3, p, op);
        EXPECT_EQ(a.willRetry, b.willRetry);
        EXPECT_DOUBLE_EQ(a.predictedErrors, b.predictedErrors);
    }
}

TEST_F(PredictiveTest, AccuracyControlsFlipRate)
{
    const nand::OperatingPoint op{1.0, 6.0, 30.0};
    for (double acc : {1.0, 0.9, 0.6}) {
        const ErrorPredictor pred(model_, acc);
        int flips = 0;
        const int pages = 2000;
        for (std::uint64_t p = 0; p < pages; ++p) {
            const bool truth =
                model_.pageProfile(0, 0, p, op).retrySteps > 0;
            if (pred.predict(0, 0, p, op).willRetry != truth)
                ++flips;
        }
        EXPECT_NEAR(static_cast<double>(flips) / pages, 1.0 - acc, 0.04)
            << "accuracy " << acc;
    }
}

TEST_F(PredictiveTest, InvalidAccuracyPanics)
{
    EXPECT_THROW(ErrorPredictor(model_, 1.5), std::logic_error);
    EXPECT_THROW(ErrorPredictor(model_, -0.1), std::logic_error);
}

TEST_F(PredictiveTest, SpeculativeStartBeatsPnar2OnRetryPages)
{
    // With a perfect predictor, skipping the doomed default read
    // must strictly reduce completion time for every retrying page.
    const ErrorPredictor pred(model_, 1.0);
    PredictiveConfig cfg;
    cfg.reducedRegularReads = false;
    const PredictiveController pc(timing_, model_, rpt_, pred, cfg);
    const nand::OperatingPoint op{1.0, 6.0, 30.0};

    int compared = 0;
    for (std::uint64_t p = 0; p < 200; ++p) {
        if (model_.pageProfile(0, 0, p, op).retrySteps == 0)
            continue;
        const ReadPlan spec = planWith(pc, p, op);
        const ReadPlan base = planPnar2(p, op);
        EXPECT_LT(spec.completion, base.completion) << "page " << p;
        EXPECT_TRUE(spec.success);
        ++compared;
    }
    EXPECT_GT(compared, 100);
    EXPECT_EQ(pc.mispredictions(), 0u);
    EXPECT_EQ(pc.speculativeStarts(), static_cast<std::uint64_t>(compared));
}

TEST_F(PredictiveTest, SpeculativeSavingIsAboutOneDefaultRead)
{
    // The saved work is the initial default-timing read + its
    // transfer/decode serialization, minus the extra reduced sensing
    // that replaces it.
    const ErrorPredictor pred(model_, 1.0);
    PredictiveConfig cfg;
    cfg.reducedRegularReads = false;
    const PredictiveController pc(timing_, model_, rpt_, pred, cfg);
    const nand::OperatingPoint op{2.0, 12.0, 30.0};

    for (std::uint64_t p = 0; p < 20; ++p) {
        if (model_.pageProfile(0, 0, p, op).retrySteps < 2)
            continue;
        const sim::Tick saved = planPnar2(p, op).completion -
                                planWith(pc, p, op).completion;
        // Default read = 78 us; replacement sensing >= 58 us; plus
        // the DMA+ECC of the initial read leave the critical path.
        EXPECT_GT(saved, sim::usec(10)) << "page " << p;
        EXPECT_LT(saved, sim::usec(130)) << "page " << p;
    }
}

TEST_F(PredictiveTest, SpeculativeWalkLatencyEquation)
{
    // Exact timeline on idle resources: skipping the default read
    // gives tREAD = tSET + (N+1) * rho*tR + tDMA + tECC — the (N+1)
    // reduced sensings replace the default read plus N retries.
    const ErrorPredictor pred(model_, 1.0);
    PredictiveConfig cfg;
    cfg.reducedRegularReads = false;
    const PredictiveController pc(timing_, model_, rpt_, pred, cfg);
    const nand::OperatingPoint op{1.0, 6.0, 30.0};
    const nand::TimingReduction red = rpt_.lookup(op);
    const sim::Tick s_red = timing_.tR(nand::PageType::LSB, red);

    int checked = 0;
    for (std::uint64_t p = 0; p < 100 && checked < 20; ++p) {
        const nand::PageErrorProfile prof =
            model_.pageProfile(0, 0, p, op);
        if (prof.retrySteps == 0)
            continue;
        // The reduced walk keeps the profiled step count (safety
        // margin guarantees it at this operating point).
        const double extra = model_.deltaErrors(red, op);
        const nand::ReadOutcome out = model_.simulateRead(prof, extra);
        ASSERT_TRUE(out.success);
        const ReadPlan plan = planWith(pc, p, op);
        const sim::Tick expect =
            timing_.tSET +
            static_cast<sim::Tick>(out.retrySteps + 1) * s_red +
            timing_.tDMA + timing_.tECC;
        EXPECT_EQ(plan.completion, expect) << "page " << p;
        EXPECT_EQ(plan.retrySteps, out.retrySteps) << "page " << p;
        ++checked;
    }
    EXPECT_GE(checked, 10);
}

TEST_F(PredictiveTest, ReducedRegularReadShortensCleanReads)
{
    const ErrorPredictor pred(model_, 1.0);
    PredictiveConfig cfg;
    cfg.speculativeRetryStart = false;
    const PredictiveController pc(timing_, model_, rpt_, pred, cfg);
    // Very mild condition: most pages read clean, margin is large.
    const nand::OperatingPoint op{0.0, 0.1, 30.0};

    int reduced = 0, clean = 0;
    for (std::uint64_t p = 0; p < 200; ++p) {
        const nand::PageErrorProfile prof =
            model_.pageProfile(0, 0, p, op);
        if (prof.retrySteps != 0)
            continue;
        ++clean;
        const ReadPlan plan = planWith(pc, p, op);
        const ReadPlan base = planPnar2(p, op);
        EXPECT_LE(plan.completion, base.completion + timing_.tSET)
            << "page " << p;
        if (plan.completion < base.completion)
            ++reduced;
    }
    EXPECT_GT(clean, 100) << "condition should leave most pages clean";
    EXPECT_EQ(reduced, clean) << "every clean read gets the fast path";
    EXPECT_EQ(pc.mispredictions(), 0u);
    EXPECT_GT(pc.reducedRegularCount(), 0u);
}

TEST_F(PredictiveTest, MispredictedRegularReadStillSucceeds)
{
    // A sloppy predictor marks some retry pages as clean; the
    // controller must detect the failed reduced read and fall back,
    // never losing the read.
    const ErrorPredictor pred(model_, 0.5);
    const PredictiveController pc(timing_, model_, rpt_, pred, {});
    const nand::OperatingPoint op{1.0, 6.0, 30.0};

    for (std::uint64_t p = 0; p < 300; ++p) {
        const ReadPlan plan = planWith(pc, p, op);
        EXPECT_TRUE(plan.success) << "page " << p;
        EXPECT_GT(plan.completion, 0u);
    }
    EXPECT_GT(pc.mispredictions(), 50u)
        << "a 50% predictor must mispredict often";
}

TEST_F(PredictiveTest, MispredictionCostsBoundedVsPnar2)
{
    // Even with a coin-flip predictor, the average completion over a
    // page population must stay within a modest factor of plain
    // PnAR2 (mispredictions waste one read, they do not blow up).
    const ErrorPredictor pred(model_, 0.5);
    const PredictiveController pc(timing_, model_, rpt_, pred, {});
    const nand::OperatingPoint op{1.0, 6.0, 30.0};

    double sum_pred = 0.0, sum_base = 0.0;
    for (std::uint64_t p = 0; p < 300; ++p) {
        sum_pred += sim::toUsec(planWith(pc, p, op).completion);
        sum_base += sim::toUsec(planPnar2(p, op).completion);
    }
    EXPECT_LT(sum_pred, sum_base * 1.25);
}

TEST_F(PredictiveTest, PerfectPredictorBeatsPnar2OnAverage)
{
    const ErrorPredictor pred(model_, 1.0);
    const PredictiveController pc(timing_, model_, rpt_, pred, {});
    const nand::OperatingPoint op{1.0, 6.0, 30.0};

    double sum_pred = 0.0, sum_base = 0.0;
    for (std::uint64_t p = 0; p < 300; ++p) {
        sum_pred += sim::toUsec(planWith(pc, p, op).completion);
        sum_base += sim::toUsec(planPnar2(p, op).completion);
    }
    EXPECT_LT(sum_pred, sum_base);
}

} // namespace
} // namespace ssdrr::core
