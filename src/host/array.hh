/**
 * @file
 * Array of SSDs behind a pluggable address layout, on one shared
 * timeline or on per-drive timelines synchronized in windows.
 *
 * The array exports a single flat logical space whose size and
 * placement are owned by a host::ArrayLayout (array_layout.hh):
 *  - Raid0Layout (default): page-granular striping over the member
 *    drives, drives * perDriveLogicalPages data pages — bit-identical
 *    to the original hard-wired striping.
 *  - Raid5Layout: rotating parity over configurable stripe units;
 *    one drive's worth of pages holds parity, writes are
 *    read-modify-write (parity pre-read + update write), and reads
 *    of a configured failed drive reconstruct from the N-1 surviving
 *    stripe mates.
 *
 * A host request fans out into the layout's per-drive plan; the
 * parent request completes when its last subrequest does (two-phase
 * plans issue their writes only after every pre-read completed), and
 * the registered completion hook fires once with the parent's
 * end-to-end latency. Degraded reads are additionally recorded in a
 * per-class histogram surfaced through RunStats.
 *
 * Execution engines (selected by the host-link turnaround):
 *  - hostLink == 0 (default): all drives and the host side share one
 *    sim::EventQueue and dispatch/completions are synchronous calls,
 *    exactly the original single-threaded engine. Bit-compatible
 *    with every pre-existing result.
 *  - hostLink > 0: each drive owns a private EventQueue and the host
 *    side keeps its own; dispatches reach a drive hostLink ticks
 *    after the host issues them and completions reach the host
 *    hostLink ticks after the drive raises them (modelling the
 *    PCIe/NVMe doorbell-fetch/interrupt turnaround). Cross-queue
 *    traffic flows through sim::ParallelExecutor mailboxes with
 *    window width hostLink.
 *  - Options::fabric non-empty (mutually exclusive with hostLink):
 *    the sharded engine again, but dispatch/completion crossings are
 *    routed hop-by-hop through a fabric::Fabric — a tree of switches
 *    and links with per-hop latency, byte-proportional serialization,
 *    and FIFO contention (see fabric/fabric.hh). Every switch is its
 *    own executor domain; the window is the topology's minimum link
 *    latency.
 *
 * Robustness (Options::faults / timeout / retry): a declared
 * sim::FaultInjector timeline makes drives fail-stop, fail-slow, or
 * return uncorrectable reads mid-run. All fault decisions execute on
 * the host domain (dispatch drop, completion swallow/stretch, seeded
 * UECC draw keyed on the subrequest id), and an empty timeline is
 * bit-identical to a faultless array.
 * With a timeout set, every subrequest carries a deadline; expiry
 * retries it with exponential backoff and, once attempts are
 * exhausted, fails over: a RAID-5 data read becomes the existing
 * reconstruction join, redundant writes are absorbed, and anything
 * unrecoverable completes the parent with CompletionStatus::Failed.
 * A fail-stop is detected at its fail tick + timeout (deterministic,
 * traffic-independent); detection marks the layout failed so new
 * plans go degraded, and fires the onDriveFailed hook (rebuild).
 *
 * Size-proportional link transfer time is no longer an array
 * concern: it moved to the host filter chain's "xfer" filter
 * (host/filter/xfer.hh), which charges per host command above the
 * array. Scenario specs keep the transferUsPerKb knob and translate
 * it into an implicit xfer filter.
 */

#ifndef SSDRR_HOST_ARRAY_HH
#define SSDRR_HOST_ARRAY_HH

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "fabric/fabric.hh"
#include "host/array_layout.hh"
#include "sim/event_queue.hh"
#include "sim/fault_injector.hh"
#include "sim/parallel_executor.hh"
#include "ssd/ssd.hh"

namespace ssdrr::host {

class SsdArray
{
  public:
    using CompletionFn = ssd::Ssd::CompletionFn;

    /** Array shape and engine selection. */
    struct Options {
        std::uint32_t drives = 1;
        RaidLevel raid = RaidLevel::Raid0;
        /** Stripe-unit pages (RAID-5 chunk size; ignored by RAID-0,
         *  whose stripe unit is one page). */
        std::uint32_t stripeUnitPages = 1;
        /** Failed member drives (degraded mode); must respect the
         *  layout's fault tolerance. */
        std::vector<std::uint32_t> failedDrives;
        /** Host dispatch/completion turnaround in ticks; 0 keeps the
         *  legacy shared-queue engine, > 0 selects the windowed
         *  per-drive engine (see file comment). */
        sim::Tick hostLink = 0;
        /** Doorbell batching for the windowed engine: coalesce
         *  mailbox crossings sharing a (receiver, delivery tick)
         *  into one heap event at the window barrier. Bit-identical
         *  to unbatched delivery (see sim::ParallelExecutor); off
         *  exists for the batched-vs-unbatched parity oracle. */
        bool batchMailbox = true;
        /** Fabric topology routing dispatch/completion crossings
         *  hop-by-hop (empty = no fabric). Non-empty selects the
         *  windowed per-drive engine and excludes hostLink. */
        fabric::TopologySpec fabric;
        /** Fault timeline injected at the host boundary (empty =
         *  faultless, bit-identical to an array without the
         *  machinery). Fail-stop events require a timeout. */
        std::vector<sim::FaultEvent> faults;
        /** Seed for seeded fault draws (UECC probability). */
        std::uint64_t faultSeed = 0;
        /** Per-subrequest deadline in ticks; on expiry the sub is
         *  retried and eventually failed over. 0 disables deadline
         *  tracking entirely (no timeout events are scheduled). */
        sim::Tick timeout = 0;
        /** Reissue attempts after the first issue (timeout or UECC)
         *  before the host fails over. */
        std::uint32_t retryMax = 2;
        /** Backoff before the first reissue; doubles per attempt. */
        sim::Tick retryBackoff = 0;
    };

    /**
     * @param cfg per-drive configuration (each drive gets a distinct
     *            derived seed so drives do not see identical error
     *            patterns)
     * @param mech retry mechanism, same on every drive
     * @param opt array shape (drive count, layout, failed drives)
     *            and engine selection
     */
    SsdArray(const ssd::Config &cfg, core::Mechanism mech,
             const Options &opt);

    /** Legacy convenience: RAID-0 with @p drives members. */
    SsdArray(const ssd::Config &cfg, core::Mechanism mech,
             std::uint32_t drives, sim::Tick host_link = 0);

    /** Host-side event queue (the shared queue in legacy mode). All
     *  host-layer actors (tenants, HostInterface) schedule here. */
    sim::EventQueue &eventQueue() { return eq_; }
    std::uint32_t drives() const
    {
        return static_cast<std::uint32_t>(ssds_.size());
    }
    ssd::Ssd &drive(std::uint32_t i) { return *ssds_.at(i); }
    core::Mechanism mechanism() const { return mech_; }
    /** Host-link turnaround in ticks (0 = legacy shared queue). */
    sim::Tick hostLink() const { return link_; }
    /** True when drives run on private queues behind mailboxes. */
    bool sharded() const { return exec_ != nullptr; }
    /** The fabric transport, or null for flat-link / legacy modes. */
    const fabric::Fabric *fabric() const { return fabric_.get(); }
    /** The address layout mapping the flat space onto drives. */
    const ArrayLayout &layout() const { return *layout_; }

    /** Exported data capacity in pages (layout-dependent: RAID-5
     *  gives one drive's worth to parity). */
    std::uint64_t logicalPages() const { return logical_pages_; }

    /** Page size in bytes (uniform across member drives). */
    std::uint32_t pageBytes() const
    {
        return ssds_.front()->config().pageBytes;
    }

    /** Drive holding global LPN @p lpn. */
    std::uint32_t driveOf(std::uint64_t lpn) const
    {
        return layout_->locate(lpn).drive;
    }
    /** Per-drive LPN of global LPN @p lpn. */
    std::uint64_t localLpn(std::uint64_t lpn) const
    {
        return layout_->locate(lpn).lpn;
    }

    /** Precondition every member drive (aged mapping). */
    void precondition();

    /** Completion hook for parent (array-level) requests. */
    void onHostComplete(CompletionFn fn) { on_complete_ = std::move(fn); }

    /**
     * Hook fired (on the host domain) when the host detects a
     * fail-stopped drive — at its fail tick plus the timeout. The
     * layout has already been marked failed when this runs; scenario
     * wiring uses it to start a rebuild-to-spare.
     */
    void onDriveFailed(std::function<void(std::uint32_t)> fn)
    {
        on_drive_failed_ = std::move(fn);
    }

    /** The fault timeline, or null when the array runs faultless. */
    const sim::FaultInjector *faultInjector() const
    {
        return faults_.get();
    }

    /**
     * Submit a request against the global LPN space at the current
     * simulated time. Request ids must be unique among outstanding
     * requests. Must be called from the host side (a host event, or
     * the caller between runs).
     */
    void submit(const ssd::HostRequest &req);

    /** Run the engine until all work completes. */
    void drain();

    /**
     * Aggregate run summary. Reads/writes and the latency
     * distribution count parent requests at the array surface (a
     * striped request counts once, at its end-to-end latency);
     * device-side counters (suspensions, GC, refreshes, ...) are
     * summed across drives and utilizations averaged over them.
     * Degraded reads, reconstruction subreads, and parity writes are
     * array-level layout accounting. executedEvents covers every
     * queue that drove the run (the one shared queue, or host +
     * per-drive queues summed).
     */
    ssd::RunStats stats() const;

    /** Array-surface (parent-request) latency distributions. */
    const sim::Histogram &readResponseTimes() const { return resp_read_; }
    const sim::Histogram &writeResponseTimes() const { return resp_write_; }
    /** Reads served through reconstruction (also in the read view). */
    const sim::Histogram &degradedReadResponseTimes() const
    {
        return resp_degraded_;
    }

  private:
    struct Parent {
        sim::Tick arrival = 0;
        std::uint32_t remaining = 0; ///< outstanding subrequests
        std::uint32_t pages = 1; ///< request size, echoed on completion
        /** Request channel-affinity mask, kept so phase-2 writes
         *  honour it like phase-1 ones. */
        std::uint32_t channelMask = 0;
        bool isRead = true;
        bool degraded = false; ///< plan reconstructed lost data
        bool failed = false;   ///< completes CompletionStatus::Failed
        /** Phase-2 write ops, issued when phase 1 fully completes. */
        std::vector<ArrayLayout::SubOp> phase2;
    };

    /** Per-subrequest tracking (the op is kept so timeouts can
     *  reissue or fail over; everything lives on the host domain). */
    struct SubState {
        std::uint64_t parent = 0;
        ArrayLayout::SubOp op; ///< as planned (drive-local LPN)
        std::uint32_t channelMask = 0;
        std::uint32_t attempt = 1; ///< 1 = original issue
        sim::EventId timeoutEv = 0;
        /** Fail-slow stretch already applied to this completion. */
        bool stretched = false;
        /** Deadline expired; a late completion is silently dropped. */
        bool abandoned = false;
        /** A device completion will still arrive (false when the
         *  dispatch was dropped by a fail-stop). */
        bool expectCompletion = true;
    };

    /** Issue one planned op as a drive subrequest; @p attempt > 1
     *  marks a reissue (layout accounting counts first issues only). */
    void issueSub(std::uint64_t parent_id, sim::Tick arrival,
                  std::uint32_t channel_mask,
                  const ArrayLayout::SubOp &op,
                  std::uint32_t attempt = 1);
    void subComplete(const ssd::HostCompletion &c);
    /** Drive-side completion hook in sharded mode: forward to the
     *  host domain with the completion turnaround applied. */
    void driveComplete(std::uint32_t d, const ssd::HostCompletion &c);
    void dispatch(std::uint32_t d, const ssd::HostRequest &sub);
    /** One subrequest slot of @p parent_id finished (completed,
     *  reconstructed, or absorbed): the old subComplete tail. */
    void finishSlot(std::uint64_t parent_id);
    /** Deadline expiry for subrequest @p sub_id. */
    void onSubTimeout(std::uint64_t sub_id);
    /** A sub was lost (timeout) or came back UECC: retry with
     *  backoff, or fail over once attempts are exhausted. */
    void resolveFailedSub(std::uint64_t sub_id, bool timed_out);
    /** Retries exhausted: reconstruct / absorb / fail the parent. */
    void failover(const SubState &st);
    /** The host detects a fail-stop (fail tick + timeout). */
    void onDriveDetected(std::uint32_t d);
    bool driveDead(std::uint32_t d) const
    {
        return (dead_mask_ >> d) & 1u;
    }

    sim::EventQueue eq_; ///< host-side queue (shared queue in legacy)
    core::Mechanism mech_;
    sim::Tick link_ = 0;
    std::unique_ptr<ArrayLayout> layout_;
    std::vector<std::unique_ptr<ssd::Ssd>> ssds_;
    std::uint64_t logical_pages_ = 0;

    /** Windowed engine (sharded mode only). Domain 0 is the host. */
    std::unique_ptr<sim::ParallelExecutor> exec_;
    sim::ParallelExecutor::DomainId host_dom_ = 0;
    std::vector<sim::ParallelExecutor::DomainId> drive_dom_;
    /** Fabric transport (sharded mode with a topology only). */
    std::unique_ptr<fabric::Fabric> fabric_;

    std::unordered_map<std::uint64_t, SubState> subs_;
    std::unordered_map<std::uint64_t, Parent> parents_;
    std::uint64_t next_sub_id_ = 1;
    CompletionFn on_complete_;

    /** Fault timeline (null = faultless) and host robustness knobs.
     *  All queries and decisions run on the host domain. */
    std::unique_ptr<sim::FaultInjector> faults_;
    sim::Tick timeout_ = 0;
    std::uint32_t retry_max_ = 2;
    sim::Tick retry_backoff_ = 0;
    /** Drives the host knows are unusable: static failedDrives plus
     *  detected fail-stops. */
    std::uint64_t dead_mask_ = 0;
    std::function<void(std::uint32_t)> on_drive_failed_;

    /** Robustness accounting (see stats()). */
    std::uint64_t host_timeouts_ = 0;
    std::uint64_t host_retries_ = 0;
    std::uint64_t host_failovers_ = 0;
    std::uint64_t uecc_reads_ = 0;
    std::uint64_t failed_requests_ = 0;

    /** Scratch for submit()'s fan-out plan (no per-request
     *  allocation on the injection hot path). */
    ArrayLayout::Plan plan_scratch_;

    /** Layout accounting (see stats()). */
    std::uint64_t reconstruction_reads_ = 0;
    std::uint64_t parity_writes_ = 0;

    /** Parent-request latencies; the all-request view is derived by
     *  merging these two at reporting time. Degraded reads record
     *  into both the read and the degraded histogram. */
    sim::Histogram resp_read_;
    sim::Histogram resp_write_;
    sim::Histogram resp_degraded_;
};

} // namespace ssdrr::host

#endif // SSDRR_HOST_ARRAY_HH
