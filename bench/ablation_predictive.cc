/**
 * @file
 * Ablation: the Section 8 extensions (speculative retry start and
 * reduced regular reads) as a function of error-predictor accuracy.
 *
 * Shows how much headroom remains beyond PnAR2 (the paper's own
 * "there is still some more room for optimizing read-retry in
 * future work") and how robust the extensions are to model error.
 */

#include <cstdio>

#include "bench/bench_util.hh"
#include "core/predictive.hh"

using namespace ssdrr;

namespace {

double
averageCompletionUs(const nand::ErrorModel &model,
                    const nand::TimingParams &timing,
                    const core::Rpt &rpt, const nand::OperatingPoint &op,
                    double accuracy, const core::PredictiveConfig &cfg,
                    std::uint64_t *mispred = nullptr)
{
    core::ErrorPredictor pred(model, accuracy);
    core::PredictiveController pc(timing, model, rpt, pred, cfg);
    double sum = 0.0;
    const int pages = 3000;
    for (int p = 0; p < pages; ++p) {
        ssd::Channel ch;
        ecc::EccEngine ecc(timing.tECC, 72.0);
        sum += sim::toUsec(pc.planRead(0, nand::pageTypeOf(p % 3),
                                       0, p / 576, p % 576, op, ch, ecc)
                               .completion);
    }
    if (mispred)
        *mispred = pc.mispredictions();
    return sum / pages;
}

} // namespace

int
main()
{
    bench::header("Ablation: Section 8 predictive extensions",
                  "speculative retry start + reduced regular reads",
                  "avg per-read completion vs predictor accuracy at "
                  "(1K P/E, 6 months, 30C), 3000 pages");

    const nand::TimingParams timing;
    const nand::ErrorModel model;
    const core::Rpt rpt = core::RptBuilder(model).buildDefault();
    const nand::OperatingPoint op{1.0, 6.0, 30.0};

    // PnAR2 reference (no prediction at all).
    core::PredictiveConfig off;
    off.reducedRegularReads = false;
    off.speculativeRetryStart = false;
    const double pnar2 =
        averageCompletionUs(model, timing, rpt, op, 1.0, off);
    std::printf("PnAR2 reference: %.1f us/read\n\n", pnar2);

    bench::row({"accuracy", "spec-only", "reduced-only", "both",
                "vs PnAR2", "mispred"},
               13);
    for (double acc : {1.0, 0.95, 0.9, 0.8, 0.7, 0.5}) {
        core::PredictiveConfig spec_only, red_only, both;
        spec_only.reducedRegularReads = false;
        red_only.speculativeRetryStart = false;
        const double s =
            averageCompletionUs(model, timing, rpt, op, acc, spec_only);
        const double r =
            averageCompletionUs(model, timing, rpt, op, acc, red_only);
        std::uint64_t mis = 0;
        const double b =
            averageCompletionUs(model, timing, rpt, op, acc, both, &mis);
        bench::row({bench::fmt(acc, 2), bench::fmt(s), bench::fmt(r),
                    bench::fmt(b), bench::pct(1.0 - b / pnar2),
                    std::to_string(mis)},
                   13);
    }
    std::printf("\nexpected shape: a perfect online error model buys a "
                "further ~5-10%% beyond PnAR2\n(one default read per "
                "retry eliminated); gains degrade gracefully and only "
                "go\nnegative when the predictor approaches a coin "
                "flip.\n");
    return 0;
}
