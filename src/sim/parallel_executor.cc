#include "sim/parallel_executor.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace ssdrr::sim {

ParallelExecutor::ParallelExecutor(Tick window, bool batch_mailbox)
    : window_(window), batch_mailbox_(batch_mailbox)
{
    SSDRR_ASSERT(window_ > 0,
                 "synchronization window must be positive (it is the "
                 "minimum cross-domain latency)");
}

ParallelExecutor::DomainId
ParallelExecutor::addDomain(EventQueue &q)
{
    const DomainId id = static_cast<DomainId>(doms_.size());
    Domain d;
    d.q = &q;
    doms_.push_back(std::move(d));
    return id;
}

void
ParallelExecutor::send(DomainId from, DomainId to, Tick deliver_at,
                       Callback cb)
{
    SSDRR_ASSERT(from < doms_.size() && to < doms_.size(),
                 "send between unregistered domains ", from, " -> ",
                 to);
    // The conservative-window invariant: nothing sent during a
    // window may land inside it. Holds whenever the modelled
    // cross-domain latency is >= the window width.
    SSDRR_ASSERT(deliver_at >= window_end_,
                 "message from domain ", from, " would arrive at ",
                 deliver_at, ", inside the current window ending at ",
                 window_end_);
    Domain &s = doms_[from];
    s.outbox.push_back(
        Msg{deliver_at, s.next_seq++, from, to, std::move(cb)});
}

void
ParallelExecutor::route()
{
    // Deliveries are totally ordered by (receiver, tick, sender id,
    // sender send-order) — explicit in the comparator, so the order
    // never depends on gather order or sort stability.
    route_scratch_.clear();
    for (Domain &d : doms_) {
        for (Msg &m : d.outbox)
            route_scratch_.push_back(std::move(m));
        d.outbox.clear();
    }
    if (route_scratch_.empty())
        return;
    std::sort(route_scratch_.begin(), route_scratch_.end(),
              [](const Msg &a, const Msg &b) {
                  if (a.to != b.to)
                      return a.to < b.to;
                  if (a.when != b.when)
                      return a.when < b.when;
                  if (a.from != b.from)
                      return a.from < b.from;
                  return a.seq < b.seq;
              });
    messages_routed_ += route_scratch_.size();
    if (!batch_mailbox_) {
        for (Msg &m : route_scratch_)
            doms_[m.to].q->schedule(m.when, std::move(m.cb));
        route_scratch_.clear();
        return;
    }
    // Doorbell batching: a run of sorted messages sharing a
    // (receiver, tick) becomes one scheduleBatch event that executes
    // them in the sorted (sender id, send order) sequence. This is
    // bit-identical to individual scheduling: the run's members would
    // have received consecutive sequence numbers (route() is the only
    // scheduler between barriers), so nothing could interleave inside
    // the run anyway, and anything a batched callback schedules at
    // the same tick sequences after the whole run either way.
    // scheduleBatch keeps executedEvents() exact, and mailbox
    // deliveries are never cancelled, so the merged event is safe.
    std::size_t i = 0;
    while (i < route_scratch_.size()) {
        std::size_t j = i + 1;
        while (j < route_scratch_.size() &&
               route_scratch_[j].to == route_scratch_[i].to &&
               route_scratch_[j].when == route_scratch_[i].when)
            ++j;
        Msg &head = route_scratch_[i];
        if (j == i + 1) {
            doms_[head.to].q->schedule(head.when, std::move(head.cb));
        } else {
            std::vector<Callback> cbs;
            cbs.reserve(j - i);
            for (std::size_t k = i; k < j; ++k)
                cbs.push_back(std::move(route_scratch_[k].cb));
            doms_[head.to].q->scheduleBatch(head.when, std::move(cbs));
            messages_coalesced_ += (j - i) - 1;
        }
        i = j;
    }
    route_scratch_.clear();
}

Tick
ParallelExecutor::run()
{
    SSDRR_ASSERT(!doms_.empty(), "no domains registered");
    route(); // deliver anything sent before the run started

    while (true) {
        Tick next = kTickNever;
        for (Domain &d : doms_)
            next = std::min(next, d.q->nextPendingTick());
        if (next == kTickNever)
            break; // drained everywhere, outboxes empty after route()
        SSDRR_ASSERT(next <= kTickNever - window_,
                     "simulated time overflow");
        window_end_ = next + window_;
        ++windows_run_;

        // Run every domain with work before the window end. Domains
        // share nothing within a window (sends wait in outboxes), so
        // running one cannot change another's nextPendingTick().
        std::size_t active = 0;
        for (Domain &d : doms_) {
            if (d.q->nextPendingTick() < window_end_) {
                d.q->run(window_end_ - 1); // run(until) is inclusive
                ++active;
            }
        }
        if (active == 1)
            ++windows_skipped_;
        route();
    }

    // Align every domain's clock to the run's end so time-normalized
    // statistics share one denominator (exactly what a shared queue
    // gives the single-queue engine).
    Tick end = 0;
    for (Domain &d : doms_)
        end = std::max(end, d.q->now());
    for (Domain &d : doms_)
        d.q->advanceTo(end);
    return end;
}

} // namespace ssdrr::sim
