/**
 * @file
 * Runtime fabric transport: multi-hop message forwarding with per-link
 * FIFO contention over a ParallelExecutor.
 *
 * A Fabric instance takes a compiled Topology and turns every node
 * into its own executor domain: the host port and the drive ports
 * borrow the queues the SsdArray already owns, and each switch gets a
 * private EventQueue created (and registered) here. Registration
 * order is fixed — host, then switches in node-declaration order,
 * then drives in array order — so domain ids, and with them the
 * executor's deterministic mailbox ordering, never depend on timing.
 *
 * A message (a dispatch toward a drive, or a completion back to the
 * host) traverses its precomputed path one hop at a time. Each hop is
 * charged on the *sending* node's clock:
 *
 *     start   = max(now, link.busyUntil)      FIFO queueing
 *     ser     = bytes / KiB * link.usPerKb    serialization
 *     deliver = start + ser + link.latency    propagation
 *
 * and busyUntil advances to start + ser, so concurrent subrequests
 * sharing a hop serialize in arrival order. Each link direction keeps
 * its own FIFO state (links are full duplex) and that state is only
 * ever touched from the direction's sending domain, which preserves
 * the executor's domains-share-nothing contract.
 *
 * The conservative window is the topology's minimum link latency:
 * every hop delivers at least one full link latency after it is sent,
 * so no cross-domain message can undercut the window.
 *
 * Ownership: the Fabric owns the switch queues; the executor and the
 * host/drive queues are borrowed and must outlive it.
 */

#ifndef SSDRR_FABRIC_FABRIC_HH
#define SSDRR_FABRIC_FABRIC_HH

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "fabric/topology.hh"
#include "sim/callback.hh"
#include "sim/event_queue.hh"
#include "sim/parallel_executor.hh"
#include "sim/types.hh"

namespace ssdrr::fabric {

/** Aggregated per-link counters (both directions merged). */
struct LinkReport {
    std::string link;               ///< "a<->b" label
    std::uint64_t messages = 0;     ///< hops carried
    std::uint64_t bytesCarried = 0; ///< payload bytes serialized
    double busyUs = 0.0;            ///< total serialization time
    double waitUs = 0.0;            ///< total FIFO queueing wait
    std::uint32_t maxQueueDepth = 0;
};

class Fabric
{
  public:
    /**
     * Build the transport over @p exec. @p hostDom / @p hostQueue are
     * the already-registered host domain; the constructor registers
     * one domain per switch, so it must run after the host domain is
     * added and before any drive domain.
     */
    Fabric(Topology topo, sim::ParallelExecutor &exec,
           sim::ParallelExecutor::DomainId hostDom,
           sim::EventQueue &hostQueue);

    Fabric(const Fabric &) = delete;
    Fabric &operator=(const Fabric &) = delete;

    /** Bind array drive @p drive's domain/queue to its fabric port. */
    void attachDrive(std::uint32_t drive,
                     sim::ParallelExecutor::DomainId dom,
                     sim::EventQueue &queue);

    /**
     * Route a message from the host to drive @p drive along its path,
     * invoking @p done on the drive's domain when it arrives. @p bytes
     * is the serialized payload (0 for a command-only crossing);
     * @p read tags the message for the read-wait accounting. Must be
     * called from the host domain's execution context.
     */
    void toDrive(std::uint32_t drive, std::uint64_t bytes, bool read,
                 sim::InlineCallback done);

    /** The reverse crossing: drive @p drive's domain to the host. */
    void toHost(std::uint32_t drive, std::uint64_t bytes, bool read,
                sim::InlineCallback done);

    const Topology &topology() const { return topo_; }

    /** Events executed by the switch queues (for RunStats totals). */
    std::uint64_t switchExecutedEvents() const;

    /** Per-link counters, in link-declaration order. */
    std::vector<LinkReport> linkReports() const;

    /** Total FIFO wait accumulated by read-tagged messages. */
    sim::Tick readWaitTicks() const;

  private:
    /** One hop of a routed direction, fully resolved. */
    struct Seg {
        std::uint32_t fromNode = 0;
        std::uint32_t toNode = 0;
        std::uint32_t link = 0;
        std::uint8_t dir = 0; ///< 0: spec a->b, 1: spec b->a
    };

    /** FIFO state of one link direction. Confined to the domain of
     *  the direction's sending node. */
    struct DirState {
        sim::Tick busyUntil = 0;
        /** Serialization end ticks of messages still occupying the
         *  link, pruned on each departure; size is the queue depth. */
        std::deque<sim::Tick> inflight;
        std::uint64_t messages = 0;
        std::uint64_t bytes = 0;
        sim::Tick busy = 0;
        sim::Tick wait = 0;
        sim::Tick readWait = 0;
        std::uint32_t maxDepth = 0;
    };

    struct Port {
        sim::ParallelExecutor::DomainId dom = 0;
        sim::EventQueue *queue = nullptr;
    };

    void route(const std::vector<Seg> &segs, std::size_t idx,
               std::uint64_t bytes, bool read, sim::InlineCallback done);

    Topology topo_;
    sim::ParallelExecutor &exec_;
    std::vector<Port> ports_;                  ///< by node index
    std::vector<std::unique_ptr<sim::EventQueue>> switch_queues_;
    std::vector<std::array<DirState, 2>> dirs_; ///< by link index
    std::vector<std::vector<Seg>> down_;        ///< host->drive, by drive
    std::vector<std::vector<Seg>> up_;          ///< drive->host, by drive
};

} // namespace ssdrr::fabric

#endif // SSDRR_FABRIC_FABRIC_HH
