/**
 * @file
 * Host-side request filter chain.
 *
 * A FilterChain sits between the host interface's command fetch and
 * the SSD array: every fetched request travels DOWN the chain (first
 * filter to last) before reaching the array, and every array
 * completion travels UP (last filter to first) before reaching the
 * host, nbdkit-style. A filter may pass traffic through, transform
 * it, absorb it (a DRAM-cache hit completes upward without touching
 * the array), or originate its own internal requests (readahead
 * prefetches), which it must absorb on the way back up.
 *
 * Invariant every filter preserves: for each host command id it
 * receives from above, exactly one completion with that id is
 * eventually delivered upward. Internal requests carry ids with
 * kInternalIdBit set, so they can never collide with host command
 * ids or confuse the host interface's ownership accounting.
 *
 * The chain lives entirely on the host simulation domain: filters
 * schedule only on the host event queue, so the sharded per-drive
 * engine's determinism contract extends to every filter
 * automatically.
 *
 * An EMPTY chain is a wire: submit()/complete() forward directly
 * with no per-request overhead and no observable effect — scenarios
 * without host.filters are bit-identical to the pre-chain engine.
 */

#ifndef SSDRR_HOST_FILTER_FILTER_HH
#define SSDRR_HOST_FILTER_FILTER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/callback.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "ssd/ssd.hh"

namespace ssdrr::host::filter {

/**
 * Serializable description of one filter (the "host.filters" array
 * element of a ScenarioSpec). `type` selects the filter; the other
 * fields are per-type parameters, ignored by types that do not use
 * them. Validation (ranges, enum values, unknown keys) happens in
 * ScenarioSpec::validate()/fromJson with JSON-path-named errors.
 */
struct FilterSpec {
    /** "cache", "readahead", "split", "delay", "throttle", "xfer". */
    std::string type;

    // ----- cache -----
    /** DRAM capacity in bytes (rounded down to whole pages). */
    std::uint64_t sizeBytes = 64ull << 20;
    /** "lru" or "fifo". */
    std::string eviction = "lru";
    /** "reads" (read-miss fill + write invalidate) or "all"
     *  (additionally write-through allocate). */
    std::string admission = "reads";
    /** DRAM service latency for a hit, in microseconds. */
    double hitLatencyUs = 1.0;

    // ----- readahead -----
    /** Pages prefetched beyond a detected sequential run. */
    std::uint32_t windowPages = 8;
    /** Concurrently tracked sequential streams. */
    std::uint32_t streams = 8;

    // ----- split / coalesce -----
    /** Maximum pages per downstream request; larger host requests
     *  are split into pieces of at most this size. */
    std::uint32_t maxPages = 8;
    /** Coalescing hold window in microseconds (0 = split only):
     *  an eligible request may wait this long for a contiguous
     *  successor to merge with. */
    double coalesceWindowUs = 0.0;

    // ----- delay -----
    /** Added dispatch latency in microseconds (fault injection). */
    double delayUs = 0.0;
    /** "all", "reads", or "writes". */
    std::string applies = "all";

    // ----- throttle -----
    /** Token-bucket refill rate in commands/second. */
    double rateIops = 0.0;
    /** Bucket depth in commands (0 = 1, strict pacing). */
    double burst = 0.0;

    // ----- xfer -----
    /** Link transfer cost in microseconds per KiB moved, charged on
     *  dispatch and completion of each request. */
    double usPerKb = 0.0;

    bool operator==(const FilterSpec &o) const;
    bool operator!=(const FilterSpec &o) const { return !(*this == o); }
};

/** Immutable environment a chain's filters operate in. */
struct Context {
    /** Host-side event queue (all filter events schedule here). */
    sim::EventQueue *eq = nullptr;
    /** Exported array capacity (prefetch clamp). */
    std::uint64_t logicalPages = 0;
    /** Page size in bytes (cache capacity, transfer sizing). */
    std::uint32_t pageBytes = 16384;
};

class FilterChain;

/**
 * Base class for chain filters. The default submit()/complete()
 * forward unchanged; subclasses override one or both and use the
 * protected down()/up() helpers to keep traffic moving. A filter is
 * owned by exactly one FilterChain and runs on the host domain.
 */
class RequestFilter
{
  public:
    virtual ~RequestFilter() = default;

    /** Stable type name ("cache", "readahead", ...). */
    virtual const char *kind() const = 0;

    /** A request travelling host -> array. Default: pass through. */
    virtual void submit(const ssd::HostRequest &req) { down(req); }

    /** A completion travelling array -> host. Default: pass up. */
    virtual void complete(const ssd::HostCompletion &c) { up(c); }

    /** Fold this filter's counters into the run summary. */
    virtual void collectStats(ssd::RunStats &s) const { (void)s; }

  protected:
    /** Forward @p req to the next filter below (or the array). */
    void down(const ssd::HostRequest &req);
    /** Deliver @p c to the filter above (or the host interface). */
    void up(const ssd::HostCompletion &c);
    /** The host-side event queue. */
    sim::EventQueue &eq() const;
    /** Chain context (logical pages, page size). */
    const Context &ctx() const;
    /** Mint an id for a filter-originated internal request. */
    std::uint64_t newId();

  private:
    friend class FilterChain;
    FilterChain *chain_ = nullptr;
    std::size_t index_ = 0;
};

/**
 * Ordered filter pipeline. build() instantiates filters from specs,
 * bind() attaches the array-submit and host-complete endpoints, and
 * submit()/complete() drive traffic through. Non-copyable: filters
 * hold back-pointers into the chain.
 */
class FilterChain
{
  public:
    using SubmitFn =
        sim::InlineFunction<void(const ssd::HostRequest &)>;
    using CompleteFn =
        sim::InlineFunction<void(const ssd::HostCompletion &)>;

    /** High bit of filter-internal request ids: host command ids
     *  count up from 1 and array subrequest ids are array-internal,
     *  so marked ids never collide with either. */
    static constexpr std::uint64_t kInternalIdBit = 1ull << 63;

    FilterChain() = default;
    FilterChain(const FilterChain &) = delete;
    FilterChain &operator=(const FilterChain &) = delete;

    /** Instantiate the chain from specs (assumed validated). */
    void build(const std::vector<FilterSpec> &specs, const Context &ctx);

    /** Attach the downstream (array) and upstream (host) endpoints. */
    void bind(SubmitFn to_array, CompleteFn to_host);

    bool empty() const { return filters_.empty(); }
    std::size_t size() const { return filters_.size(); }

    /** Host -> array entry point. */
    void submit(const ssd::HostRequest &req);
    /** Array -> host entry point. */
    void complete(const ssd::HostCompletion &c);

    /** Per-filter counters plus the host-surface read-latency view
     *  (what tenants observe after cache hits and chain delays). */
    void collectStats(ssd::RunStats &s) const;

  private:
    friend class RequestFilter;
    void downFrom(std::size_t i, const ssd::HostRequest &req);
    void upFrom(std::size_t i, const ssd::HostCompletion &c);
    std::uint64_t newId() { return kInternalIdBit | next_internal_++; }

    Context ctx_;
    std::vector<std::unique_ptr<RequestFilter>> filters_;
    SubmitFn to_array_;
    CompleteFn to_host_;
    std::uint64_t next_internal_ = 1;
    /** Read latencies at the top of a NON-empty chain (untouched —
     *  and unreported — when the chain is empty). */
    sim::Histogram host_read_;
};

/**
 * Instantiate one filter from its spec. @p spec.type must be a known
 * type (ScenarioSpec validation guarantees it; fatal otherwise).
 */
std::unique_ptr<RequestFilter> makeFilter(const FilterSpec &spec,
                                          const Context &ctx);

} // namespace ssdrr::host::filter

#endif // SSDRR_HOST_FILTER_FILTER_HH
