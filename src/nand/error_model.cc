#include "nand/error_model.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"
#include "sim/rng.hh"

namespace ssdrr::nand {

namespace {

/** Errors saturate at a 50% raw bit-error rate over 8192 bits/KiB. */
constexpr double kErrorCap = 4096.0;

void
checkOp(const OperatingPoint &op)
{
    SSDRR_ASSERT(op.peKilo >= 0.0, "negative P/E cycles");
    SSDRR_ASSERT(op.retentionMonths >= 0.0, "negative retention age");
    SSDRR_ASSERT(op.temperatureC > -40.0 && op.temperatureC < 125.0,
                 "implausible temperature ", op.temperatureC);
}

} // namespace

ErrorModel::ErrorModel(Calibration cal, std::uint64_t seed)
    : cal_(cal), seed_(seed)
{
    SSDRR_ASSERT(cal_.eccCapability > 0.0, "ECC capability must be > 0");
}

double
ErrorModel::retentionTerm(const OperatingPoint &op) const
{
    return std::log1p(op.retentionMonths / cal_.nTau);
}

double
ErrorModel::meanRetrySteps(const OperatingPoint &op, double ret) const
{
    return cal_.nRet * ret * (1.0 + cal_.nPeCoup * op.peKilo) +
           cal_.nPe * op.peKilo;
}

double
ErrorModel::meanRetrySteps(const OperatingPoint &op) const
{
    checkOp(op);
    return meanRetrySteps(op, retentionTerm(op));
}

double
ErrorModel::temperatureAdder(double temp_c) const
{
    // Lower temperature reduces channel mobility and raises RBER
    // (Section 5.1): +5 errors at 30C, +3 at 55C, relative to 85C.
    const double f = std::clamp((85.0 - temp_c) / 55.0, 0.0, 1.5);
    return cal_.mTemp * f;
}

double
ErrorModel::temperaturePenalty(double d, double temp_c) const
{
    // Additional timing-reduction errors at temperatures below the
    // 85C profiling point. Proportional to dM for small penalties
    // but capped per Fig. 10: at most tTempCap (7) extra errors at
    // 30C even under the worst profiled condition.
    const double f = std::clamp((85.0 - temp_c) / 55.0, 0.0, 1.5);
    return std::min(cal_.tTemp * d, cal_.tTempCap) * f;
}

double
ErrorModel::finalErrorsMax(const OperatingPoint &op, double ret) const
{
    return cal_.mBase + cal_.mPe * op.peKilo + cal_.mRet * ret +
           temperatureAdder(op.temperatureC);
}

double
ErrorModel::finalErrorsMax(const OperatingPoint &op) const
{
    checkOp(op);
    return finalErrorsMax(op, retentionTerm(op));
}

double
ErrorModel::finalErrorsMean(const OperatingPoint &op) const
{
    return cal_.mMeanFrac * finalErrorsMax(op);
}

double
ErrorModel::eccMargin(const OperatingPoint &op) const
{
    return cal_.eccCapability - finalErrorsMax(op);
}

double
ErrorModel::conditionScale(const OperatingPoint &op) const
{
    const double ret = retentionTerm(op);
    return (1.0 + cal_.gPe * op.peKilo) * (1.0 + cal_.gRet * ret);
}

double
ErrorModel::deltaErrors(const TimingReduction &red,
                        const OperatingPoint &op) const
{
    checkOp(op);
    SSDRR_ASSERT(red.pre >= 0.0 && red.pre < 1.0 && red.eval >= 0.0 &&
                     red.eval < 1.0 && red.disch >= 0.0 && red.disch < 1.0,
                 "timing reductions must be fractions in [0, 1)");
    const double g = conditionScale(op);

    // A shortened discharge leaves residual BL charge that the next
    // precharge must absorb, so it effectively shortens tPRE further
    // (Section 2.2 / Fig. 9's superlinear combined effect).
    const double x_pre_eff = red.pre + cal_.dischCoupling * red.disch;

    double d = 0.0;
    if (x_pre_eff > 0.0) {
        d += cal_.aPre * g * std::expm1(x_pre_eff / cal_.xPre);
        if (x_pre_eff > cal_.cliffStart)
            d += cal_.cliffSlope * (x_pre_eff - cal_.cliffStart);
    }
    if (red.eval > 0.0)
        d += cal_.aEval * g * std::expm1(red.eval / cal_.xEval);
    if (red.disch > 0.0)
        d += cal_.aDisch * g * std::expm1(red.disch / cal_.xDisch);

    d += temperaturePenalty(d, op.temperatureC);
    return std::min(d, kErrorCap);
}

double
ErrorModel::maxSafePreReduction(const OperatingPoint &op) const
{
    // Profiling happens at 85C; the safety margin covers lower
    // operating temperatures and outlier pages (Section 5.2.3).
    OperatingPoint profile_op = op;
    profile_op.temperatureC = 85.0;

    const double budget =
        cal_.eccCapability - cal_.safetyMarginBits -
        finalErrorsMax(profile_op);
    if (budget <= 0.0)
        return 0.0;

    const int max_k =
        static_cast<int>(std::round(cal_.maxReduction / cal_.reductionStep));
    for (int k = max_k; k >= 1; --k) {
        const double x = cal_.reductionStep * k;
        TimingReduction red;
        red.pre = x;
        if (deltaErrors(red, profile_op) <= budget)
            return x;
    }
    return 0.0;
}

PageErrorProfile
ErrorModel::pageProfile(std::uint64_t chip, std::uint64_t block,
                        std::uint64_t page, const OperatingPoint &op) const
{
    checkOp(op);
    // Stable per-page variation streams. Two independent factors:
    // how far VOPT drifts (retry count) and how dirty the page is at
    // VOPT (final errors).
    sim::Rng rng(sim::hashStream(seed_, chip, block, page));
    const double n_var = rng.logNormal(0.0, cal_.nSigma);
    const double e_var = rng.logNormal(0.0, cal_.mSigma);
    const double jitter = rng.normal(0.0, 0.35);

    PageErrorProfile prof;

    // Every read computes a profile, so the population surfaces share
    // one checkOp(), one retention term and one M_ERR; the expressions
    // and operand order are those of meanRetrySteps(),
    // finalErrorsMax() and finalErrorsMean(), so the bits match.
    const double ret = retentionTerm(op);
    const double n_mean = meanRetrySteps(op, ret);
    double n = n_mean * n_var + jitter;
    prof.retrySteps = std::clamp(static_cast<int>(std::lround(n)), 0,
                                 cal_.retryTableSteps);

    const double e_max = finalErrorsMax(op, ret);
    double e = cal_.mMeanFrac * e_max * e_var;
    prof.finalErrors = std::clamp(e, 0.5, e_max);

    // Enforce the Fig. 4b invariant against the chip's design-point
    // ECC: the next-to-last step must fail a 72-bit code, i.e.,
    // E(N-1) = finalErrors * r > designCapability. A stronger
    // evaluated ECC can then legitimately stop the walk a step
    // earlier; a weaker one walks further (or fails).
    prof.decayRatio =
        std::max(cal_.decayRatio,
                 cal_.failGuard * cal_.designCapability /
                     prof.finalErrors);

    // Memoize the default-condition retry walk once per profile:
    // simulateRead() below is called for every read of the page and
    // would otherwise re-run the stepErrors() pow chain each time.
    const ReadOutcome base = simulateRead(prof);
    prof.baseRetrySteps = base.retrySteps;
    prof.baseSuccess = base.success;
    prof.baseLastStepErrors = base.lastStepErrors;
    prof.baseCapability = cal_.eccCapability;
    return prof;
}

double
ErrorModel::stepErrors(const PageErrorProfile &prof, int k,
                       double extra) const
{
    SSDRR_ASSERT(k >= 0, "negative retry step");
    SSDRR_ASSERT(prof.finalErrors > 0.0, "profile not initialized");
    double base;
    if (k <= prof.retrySteps) {
        // Walking toward VOPT: errors decay geometrically and reach
        // the final-step floor at k == retrySteps.
        const double dist = static_cast<double>(prof.retrySteps - k);
        base = prof.finalErrors *
               std::pow(prof.decayRatio, std::min(dist, 40.0));
    } else {
        // Overshooting past VOPT: errors grow again.
        const double dist = static_cast<double>(k - prof.retrySteps);
        base = prof.finalErrors *
               std::pow(cal_.overshootRatio, std::min(dist, 40.0));
    }
    return std::min(base + extra, kErrorCap);
}

ReadOutcome
ErrorModel::simulateRead(const PageErrorProfile &prof, double extra,
                         double capability) const
{
    const double cap = capability < 0.0 ? cal_.eccCapability : capability;
    if (prof.baseRetrySteps >= 0 && extra == 0.0 &&
        cap == prof.baseCapability) {
        // Default-condition walk memoized at profile construction
        // (the common case: every non-adaptive step decision).
        return ReadOutcome{prof.baseRetrySteps, prof.baseSuccess,
                           prof.baseLastStepErrors};
    }
    // Skip the prefix that is known to fail. Up to k = N_RR the
    // step errors are finalErrors * pow(r, min(N_RR - k, 40)) + extra,
    // capped: with r = decayRatio >= 1 (pageProfile() makes it at
    // least cal.decayRatio = 2.2), pow is monotone in its exponent,
    // and scaling by finalErrors > 0, adding extra and taking min()
    // all preserve order, so errors never increase before N_RR. If
    // step N_RR - 1 fails, every earlier step fails too, and the walk
    // may start at N_RR: the outcome and lastStepErrors come from the
    // same stepErrors() calls the full walk would end with, so they
    // are bit-identical.
    int first = 0;
    const int n_rr = prof.retrySteps;
    if (n_rr >= 1 && n_rr <= cal_.retryTableSteps &&
        prof.decayRatio >= 1.0 && stepErrors(prof, n_rr - 1, extra) > cap)
        first = n_rr;
    ReadOutcome out;
    for (int k = first; k <= cal_.retryTableSteps; ++k) {
        out.retrySteps = k;
        out.lastStepErrors = stepErrors(prof, k, extra);
        if (out.lastStepErrors <= cap) {
            out.success = true;
            return out;
        }
    }
    out.success = false;
    return out;
}

} // namespace ssdrr::nand
