/**
 * @file
 * Conservative time-window synchronizer for multi-domain
 * discrete-event simulation.
 *
 * A ParallelExecutor advances several simulation domains — each one
 * an independent EventQueue (the drives of a host::SsdArray, its
 * fabric switches and its host side) — in lock-step windows of a
 * fixed width Δ. Δ must be a lower bound on the cross-domain
 * interaction latency (for an SSD array: the host dispatch/completion
 * turnaround, or the fabric's cheapest link), so every message sent
 * during window [W, W+Δ) is delivered at a tick >= W+Δ and can be
 * exchanged at the window boundary without ever violating causality.
 *
 * Every window runs on the calling thread: domains execute one after
 * another, and the mailbox is routed at each barrier. (The name dates
 * from a worker pool that ran domains concurrently; it was removed
 * because at ~1-10 events per window its barrier handshake cost more
 * than the simulation work it spread.) Each window starts at the
 * global minimum pending tick, so idle stretches cost nothing;
 * windowsSkipped counts the windows in which only one domain had
 * work, the common case of a lone request ping-ponging host <->
 * drive.
 *
 * Determinism contract: a run's results depend only on the domains'
 * queue contents and the messages sent, because
 *  1. a domain's execution between barriers depends only on its own
 *     queue (domains must not share mutable state; cross-domain
 *     effects go through send());
 *  2. window boundaries are derived only from queue state (the
 *     minimum pending tick across domains);
 *  3. mailbox delivery is totally ordered: messages are scheduled
 *     onto the receiving queue sorted by (delivery tick, sender
 *     domain id, sender send-order).
 *
 * Ownership: the executor borrows the domain EventQueues (callers
 * keep them alive for the executor's lifetime).
 */

#ifndef SSDRR_SIM_PARALLEL_EXECUTOR_HH
#define SSDRR_SIM_PARALLEL_EXECUTOR_HH

#include <cstdint>
#include <vector>

#include "sim/callback.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace ssdrr::sim {

class ParallelExecutor
{
  public:
    using DomainId = std::uint32_t;
    using Callback = InlineCallback;

    /**
     * @param window window width Δ in ticks (> 0); every send()'s
     *               delivery tick must lie at or beyond the end of
     *               the window it is sent from, which holds whenever
     *               the modelled cross-domain latency is >= Δ
     * @param batch_mailbox doorbell batching: coalesce messages that
     *                share a (receiver, delivery tick) into one
     *                EventQueue::scheduleBatch call at the window
     *                barrier, so a burst of same-window crossings
     *                pays one heap event instead of one per message.
     *                Bit-identical to unbatched delivery (see
     *                route()); on by default, off exists for the
     *                batched-vs-unbatched parity oracle.
     */
    explicit ParallelExecutor(Tick window, bool batch_mailbox = true);

    ParallelExecutor(const ParallelExecutor &) = delete;
    ParallelExecutor &operator=(const ParallelExecutor &) = delete;

    /** Register a domain (before run()). */
    DomainId addDomain(EventQueue &q);

    std::uint32_t domains() const
    {
        return static_cast<std::uint32_t>(doms_.size());
    }
    Tick window() const { return window_; }
    /** True when same-(receiver, tick) deliveries are coalesced. */
    bool batchMailbox() const { return batch_mailbox_; }
    /** Windows executed so far (introspection / tests). */
    std::uint64_t windowsRun() const { return windows_run_; }
    /**
     * Windows in which exactly one domain had its nextPendingTick()
     * before the window end, so only that domain ran. Derived purely
     * from queue state, so — like windowsRun() — it is
     * deterministic.
     */
    std::uint64_t windowsSkipped() const { return windows_skipped_; }
    /** Messages delivered so far (batched or not). */
    std::uint64_t messagesRouted() const { return messages_routed_; }
    /** Messages that rode in a coalesced batch behind another message
     *  with the same (receiver, tick) — the heap events doorbell
     *  batching saved. Zero when batching is off. */
    std::uint64_t messagesCoalesced() const
    {
        return messages_coalesced_;
    }

    /**
     * Queue @p cb for execution on domain @p to at tick
     * @p deliver_at. Must be called from @p from's execution context
     * (one of its events during a window, or outside run());
     * @p deliver_at must not precede the end of the current window.
     * Delivery order for a common (tick, receiver) is (sender id,
     * send order).
     */
    void send(DomainId from, DomainId to, Tick deliver_at, Callback cb);

    /**
     * Run windows until every domain's queue is drained and no
     * message is undelivered, then advance all domains' clocks to
     * the common end time. May be called repeatedly (more work can
     * be injected between calls via send()).
     * @return the common end tick
     */
    Tick run();

  private:
    /** One cross-domain delivery. (to, when, from, seq) is a total
     *  order — the delivery order, independent of gather order and
     *  sort stability. */
    struct Msg {
        Tick when = 0;
        std::uint64_t seq = 0; ///< sender-local send order
        DomainId from = 0;
        DomainId to = 0;
        Callback cb;
    };

    struct Domain {
        EventQueue *q = nullptr;
        /** Messages sent by this domain, not yet routed. */
        std::vector<Msg> outbox;
        std::uint64_t next_seq = 1;
    };

    /** Route all outboxes onto the receiving queues. */
    void route();

    Tick window_;
    bool batch_mailbox_;
    std::vector<Domain> doms_;
    std::vector<Msg> route_scratch_;
    Tick window_end_ = 0; ///< exclusive end of the current window
    std::uint64_t windows_run_ = 0;
    std::uint64_t windows_skipped_ = 0;
    std::uint64_t messages_routed_ = 0;
    std::uint64_t messages_coalesced_ = 0;
};

} // namespace ssdrr::sim

#endif // SSDRR_SIM_PARALLEL_EXECUTOR_HH
