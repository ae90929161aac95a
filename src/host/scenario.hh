/**
 * @file
 * Canned multi-tenant scenarios: build an SSD array, a host
 * interface, and a set of tenants from a declarative config, run to
 * completion, and collect per-tenant and array-level statistics.
 *
 * This is the entry point the ssdrr_sim tool, the multi-tenant
 * bench, and the integration tests share, so a scenario is specified
 * once and behaves identically everywhere (same seeds, same event
 * ordering, byte-identical results).
 */

#ifndef SSDRR_HOST_SCENARIO_HH
#define SSDRR_HOST_SCENARIO_HH

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "host/array.hh"
#include "host/host_interface.hh"
#include "host/tenant.hh"
#include "ssd/config.hh"

namespace ssdrr::host {

/** Declarative description of one tenant. */
struct TenantSpec {
    /** Display name; defaults to the workload name. */
    std::string name;
    /** Table-2 workload name, or a path to an MSR-Cambridge CSV. */
    std::string workload = "usr_1";
    /** Synthetic trace length (per tenant). */
    std::uint64_t requests = 1000;
    /** Override the synthetic spec's arrival rate (0 = keep). */
    double iops = 0.0;
    InjectionMode mode = InjectionMode::ClosedLoop;
    /** Closed-loop window; must not exceed the queue-pair depth. */
    std::uint32_t qdLimit = 16;
    /** WRR arbitration weight. */
    std::uint32_t weight = 1;

    // ---- QoS / placement / stop condition (scenario API v2) ----
    /** Token-bucket rate limit in commands/second (0 = unlimited). */
    double rateIops = 0.0;
    /** Token-bucket depth in commands (0 = 1, strict pacing). */
    double burst = 0.0;
    /** Latency SLO in microseconds (0 = best-effort); honoured by
     *  the "slo" arbitration policy. */
    double sloUs = 0.0;
    /** Channel-affinity mask (bit c = channel c of every drive;
     *  0 = all channels): the tenant's LPN slice is restricted to
     *  pages living on — and rewritten to — that channel subset. */
    std::uint32_t channelMask = 0;
    /** Open-loop stop condition: run until this much simulated time
     *  has passed (microseconds; 0 = replay the trace once). */
    double horizonUs = 0.0;
};

/**
 * Caller-owned cache of parsed CSV traces, keyed by
 * (path, pageBytes). Pass the same cache across scenarios (e.g. a
 * per-mechanism sweep) to parse each multi-million-row MSR file
 * once instead of once per tenant per scenario.
 */
using TraceCache =
    std::map<std::pair<std::string, std::uint32_t>, workload::Trace>;

struct ScenarioConfig {
    /** Per-drive SSD configuration; its seed anchors all derived
     *  seeds (trace generation and per-drive error patterns). */
    ssd::Config ssd;
    core::Mechanism mech = core::Mechanism::Baseline;
    std::uint32_t drives = 1;
    /** Array address layout (see host/array_layout.hh). */
    RaidLevel raid = RaidLevel::Raid0;
    /** RAID-5 stripe-unit pages (ignored by RAID-0). */
    std::uint32_t stripeUnitPages = 1;
    /** Failed member drives: RAID-5 serves their data through
     *  degraded-mode reconstruction. */
    std::vector<std::uint32_t> failedDrives;
    /** Fault timeline injected mid-run (sim/fault_injector.hh);
     *  empty = faultless, bit-identical to the pre-fault engine. */
    std::vector<sim::FaultEvent> faults;
    /** Per-subrequest deadline in microseconds (0 = no timeout
     *  tracking; required > 0 by any fail-stop fault). */
    double timeoutUs = 0.0;
    /** Reissue attempts after a timeout/UECC before failover. */
    std::uint32_t retryMax = 2;
    /** Backoff before the first reissue (doubles per attempt). */
    double retryBackoffUs = 100.0;
    HostInterface::Options host;
    std::vector<TenantSpec> tenants;
    /**
     * Link transfer cost in microseconds per KiB moved, charged per
     * host command on dispatch and completion in addition to the
     * fixed hostLinkUs turnaround (0 = off, the legacy event
     * stream). Sugar for an implicit "xfer" filter appended at the
     * bottom of host.filters (see host/filter/xfer.hh).
     */
    double transferUsPerKb = 0.0;
    /**
     * Host dispatch/completion turnaround in microseconds. 0 keeps
     * the legacy synchronous coupling on one shared event queue;
     * > 0 models the PCIe/NVMe doorbell/interrupt turnaround and
     * runs drives on private queues behind host-link-wide
     * synchronization windows (see host::SsdArray).
     */
    double hostLinkUs = 0.0;
    /**
     * Doorbell batching for the windowed engine: coalesce mailbox
     * crossings that share a (receiver, delivery tick) into one heap
     * event per window barrier. Bit-identical to unbatched delivery
     * (an engine tuning knob, not part of the scenario's observable
     * spec — it has no JSON field);
     * off exists for the batched-vs-unbatched parity tests.
     */
    bool batchMailbox = true;
    /**
     * Storage-fabric topology routing dispatch/completion crossings
     * hop-by-hop with per-link contention (empty = no fabric).
     * Mutually exclusive with hostLinkUs > 0; selects the windowed
     * per-drive engine (see fabric/fabric.hh).
     */
    fabric::TopologySpec fabric;
    /** Optional CSV parse cache shared across runScenario calls. */
    TraceCache *traceCache = nullptr;
};

struct ScenarioResult {
    std::vector<TenantStats> tenants;
    /** Array-level aggregate (parent-request latencies). */
    ssd::RunStats array;
    /** Commands fetched per queue pair (arbitration accounting). */
    std::vector<std::uint64_t> fetchedPerQueue;
};

/** True if @p workload names a CSV file rather than a suite entry. */
bool looksLikeTracePath(const std::string &workload);

/**
 * Build the trace for one tenant over its private LPN slice
 * [base_lpn, base_lpn + slice_pages).
 *
 * Synthetic workloads are generated independently per tenant from
 * @p seed. CSV workloads are subsampled: record indices congruent to
 * @p subsample_index mod @p subsample_count (arrival times kept), so
 * several tenants can split one trace; LPNs are folded into the
 * slice.
 */
workload::Trace makeTenantTrace(const TenantSpec &spec,
                                std::uint64_t slice_pages,
                                std::uint64_t base_lpn,
                                std::uint32_t page_bytes,
                                std::uint64_t seed,
                                std::uint32_t subsample_count = 1,
                                std::uint32_t subsample_index = 0,
                                TraceCache *cache = nullptr);

/**
 * Pages of the global-LPN slice [base_lpn, base_lpn + slice_pages)
 * that live on the channels of @p channel_mask under the array's
 * preconditioned striped layout (global LPN g -> drive g mod N,
 * local LPN g div N -> plane (g div N) mod P). This is the usable
 * capacity of a channel-pinned tenant.
 */
std::uint64_t channelLatticePages(std::uint64_t base_lpn,
                                  std::uint64_t slice_pages,
                                  std::uint32_t drives,
                                  const ftl::AddressLayout &layout,
                                  std::uint32_t channel_mask);

/**
 * Remap a trace generated over [0, channelLatticePages(...)) onto
 * the actual global LPNs of the channel lattice, so every page the
 * tenant reads is preconditioned on an allowed channel of every
 * drive. Requests are clamped to the lattice's contiguous spans
 * (at most @p drives pages), since LPNs beyond a span belong to
 * other channels or tenants.
 */
workload::Trace applyChannelAffinity(const workload::Trace &trace,
                                     std::uint64_t base_lpn,
                                     std::uint64_t slice_pages,
                                     std::uint32_t drives,
                                     const ftl::AddressLayout &layout,
                                     std::uint32_t channel_mask);

/** Run one scenario to completion (deterministic for a fixed config). */
ScenarioResult runScenario(const ScenarioConfig &cfg);

} // namespace ssdrr::host

#endif // SSDRR_HOST_SCENARIO_HH
