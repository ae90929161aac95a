/**
 * @file
 * Lightweight statistics collection (counters, accumulators,
 * histograms) used across the simulator for response-time and
 * utilization reporting.
 *
 * Ownership: every collector is a plain value owned by the entity it
 * measures (a drive, a tenant, an array surface); nothing here is
 * shared or global.
 *
 * Thread-safety: none — a collector is written only by its owning
 * simulation domain's thread. Cross-domain aggregate views are built
 * after the run (or at a barrier) by merging per-domain collectors:
 * Histogram::merge adds bucket counts and recombines count/sum/
 * min/max, so a merge of per-drive histograms is exactly the
 * histogram of the concatenated samples.
 *
 * Determinism: Histogram percentiles depend only on bucket counts,
 * and merge() is order-insensitive for integer bucket counts, so
 * aggregated views are bit-identical regardless of which domain
 * recorded which sample — the property the sharded array engine's
 * end-of-run merge relies on. Accumulator means/variances are
 * floating-point sums in insertion order; per-domain insertion order
 * is deterministic, and cross-domain aggregation (host::SsdArray's
 * pooled retry mean) always iterates domains in index order.
 */

#ifndef SSDRR_SIM_STATS_HH
#define SSDRR_SIM_STATS_HH

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace ssdrr::sim {

/** Monotonic event counter. */
class Counter
{
  public:
    void inc(std::uint64_t n = 1) { value_ += n; }
    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

  private:
    std::uint64_t value_ = 0;
};

/** Accumulates samples; tracks count/sum/min/max/mean/variance. */
class Accumulator
{
  public:
    void add(double v);

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }
    /** Population variance (Welford). */
    double variance() const { return count_ ? m2_ / count_ : 0.0; }
    double stddev() const;

    void reset();

  private:
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
    double mean_ = 0.0;
    double m2_ = 0.0;
};

/**
 * Fixed-footprint log-bucketed histogram (HDR-style).
 *
 * Samples land in logarithmically-spaced buckets: each power-of-two
 * octave is split into kSubBuckets linear sub-buckets, bounding the
 * relative quantization error of percentile() to 1/(2*kSubBuckets)
 * (~0.4%). Unlike the exact-sample histogram it replaces, memory is
 * O(1) in the sample count (one bucket array, allocated on first
 * add), add() is O(1) with no allocation in steady state, and two
 * histograms recorded separately can be merge()d into the exact
 * histogram their combined stream would have produced — which is how
 * aggregate views (all-request, array-level) are derived from the
 * per-class histograms instead of double-recording every sample.
 *
 * Exact count, sum (hence mean), min and max are tracked on the
 * side; percentile(0)/percentile(100) return the exact min/max.
 */
class Histogram
{
  public:
    /** Sub-buckets per power-of-two octave (quantization grain). */
    static constexpr int kSubBits = 7;
    static constexpr int kSubBuckets = 1 << kSubBits;
    /** Smallest / largest finite exponent tracked; values outside
     *  are clamped into the edge buckets (min/max stay exact). */
    static constexpr int kMinExp = -20; // ~1e-6
    static constexpr int kMaxExp = 44;  // ~1.7e13
    static constexpr int kBuckets =
        (kMaxExp - kMinExp) * kSubBuckets + 1; // +1: zero/negative

    /** Upper bound on |percentile(p) - exact| / exact. */
    static constexpr double
    relativeError()
    {
        return 1.0 / (2.0 * kSubBuckets);
    }

    void add(double v);

    /**
     * Fold another histogram's samples into this one. The result is
     * identical (bucket-exact) to having recorded both streams into
     * a single histogram, in any order.
     */
    void merge(const Histogram &o);

    std::uint64_t count() const { return count_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    /** p in [0, 100]; nearest-rank percentile at bucket resolution. */
    double percentile(double p) const;
    double min() const;
    double max() const;

    void reset();

  private:
    static int bucketOf(double v);
    static double bucketMid(int b);

    /** Bucket counts; empty until the first add() (many histograms
     *  are constructed but never fed). */
    std::vector<std::uint64_t> buckets_;
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/** Named stat registry for end-of-run dumps. */
class StatSet
{
  public:
    void set(const std::string &name, double value);
    void inc(const std::string &name, double delta = 1.0);
    double get(const std::string &name) const;
    bool has(const std::string &name) const;

    std::string dump(const std::string &prefix = "") const;

    const std::map<std::string, double> &all() const { return stats_; }

  private:
    std::map<std::string, double> stats_;
};

} // namespace ssdrr::sim

#endif // SSDRR_SIM_STATS_HH
