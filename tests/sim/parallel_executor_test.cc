/**
 * @file
 * Unit tests for the conservative time-window synchronizer: message
 * causality (nothing lands inside the window it was sent from),
 * deterministic mailbox ordering, clock alignment, idle-window
 * skipping and lone-domain window accounting, and doorbell batching.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "sim/parallel_executor.hh"

namespace ssdrr::sim {
namespace {

constexpr Tick kWindow = 100;

/** One synthetic domain: logs (tick, tag) for every executed event. */
struct Recorder {
    EventQueue q;
    std::vector<std::pair<Tick, int>> log;

    void
    record(int tag)
    {
        log.emplace_back(q.now(), tag);
    }
};

TEST(ParallelExecutor, DrainsLocalEventsAndAlignsClocks)
{
    Recorder a, b;
    ParallelExecutor exec(kWindow);
    exec.addDomain(a.q);
    exec.addDomain(b.q);

    a.q.schedule(10, [&] { a.record(1); });
    a.q.schedule(500, [&] { a.record(2); });
    b.q.schedule(40, [&] { b.record(3); });

    const Tick end = exec.run();
    EXPECT_EQ(end, 500u);
    EXPECT_EQ(a.q.now(), 500u);
    EXPECT_EQ(b.q.now(), 500u); // aligned past its own last event
    ASSERT_EQ(a.log.size(), 2u);
    ASSERT_EQ(b.log.size(), 1u);
}

TEST(ParallelExecutor, SkipsIdleGapsInsteadOfSteppingWindows)
{
    Recorder a;
    ParallelExecutor exec(kWindow);
    exec.addDomain(a.q);
    a.q.schedule(5, [&] { a.record(1); });
    a.q.schedule(1000000, [&] { a.record(2); });
    exec.run();
    // Two events a million ticks apart must cost ~2 windows, not
    // 10000: the next window starts at the global next-event tick.
    EXPECT_LE(exec.windowsRun(), 4u);
}

TEST(ParallelExecutor, MessagesCrossDomainsAtTheModelledLatency)
{
    Recorder a, b;
    ParallelExecutor exec(kWindow);
    const auto da = exec.addDomain(a.q);
    const auto db = exec.addDomain(b.q);

    // a pings b; b pongs back; latency = one window each way.
    a.q.schedule(10, [&, da, db] {
        a.record(1);
        exec.send(da, db, a.q.now() + kWindow, [&, da, db] {
            b.record(2);
            exec.send(db, da, b.q.now() + kWindow,
                      [&] { a.record(3); });
        });
    });
    exec.run();

    ASSERT_EQ(a.log.size(), 2u);
    ASSERT_EQ(b.log.size(), 1u);
    EXPECT_EQ(b.log[0], std::make_pair(Tick{110}, 2));
    EXPECT_EQ(a.log[1], std::make_pair(Tick{210}, 3));
}

TEST(ParallelExecutor, SameTickDeliveriesOrderBySenderThenSendOrder)
{
    // Three senders race messages to one receiver at a common
    // delivery tick; execution order must be (sender id, send
    // order), never the order the senders were scheduled in.
    Recorder recv;
    std::vector<std::unique_ptr<Recorder>> senders;
    std::vector<int> order;
    ParallelExecutor exec(kWindow);
    const auto dr = exec.addDomain(recv.q);
    std::vector<ParallelExecutor::DomainId> ds;
    for (int s = 0; s < 3; ++s) {
        senders.push_back(std::make_unique<Recorder>());
        ds.push_back(exec.addDomain(senders.back()->q));
    }
    for (int s = 2; s >= 0; --s) { // registration order != send order
        Recorder &sd = *senders[s];
        const auto dom = ds[s];
        sd.q.schedule(10, [&exec, &sd, &order, dom, dr, s] {
            for (int k = 0; k < 2; ++k)
                exec.send(dom, dr, sd.q.now() + kWindow,
                          [&order, s, k] {
                              order.push_back(10 * s + k);
                          });
        });
    }
    exec.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 10, 11, 20, 21}));
    EXPECT_EQ(recv.q.executedEvents(), 6u);
}

TEST(ParallelExecutor, DoorbellBatchingIsBitIdenticalAndEngages)
{
    // Three senders race two messages each to one receiver at a
    // common delivery tick — exactly the shape doorbell batching
    // coalesces. The delivery order, the receiver's executed-event
    // count, and a second staggered-tick wave must all be identical
    // with batching on and off; the coalesced counter proves the
    // batched run actually merged mailbox crossings rather than
    // trivially passing because nothing coalesced.
    struct Outcome {
        std::vector<int> order;
        std::uint64_t executed = 0;
        std::uint64_t routed = 0;
        std::uint64_t coalesced = 0;
    };
    auto run = [](bool batch) {
        Outcome out;
        Recorder recv;
        std::vector<std::unique_ptr<Recorder>> senders;
        ParallelExecutor exec(kWindow, batch);
        const auto dr = exec.addDomain(recv.q);
        std::vector<ParallelExecutor::DomainId> ds;
        for (int s = 0; s < 3; ++s) {
            senders.push_back(std::make_unique<Recorder>());
            ds.push_back(exec.addDomain(senders.back()->q));
        }
        for (int s = 0; s < 3; ++s) {
            Recorder &sd = *senders[s];
            const auto dom = ds[s];
            sd.q.schedule(10, [&exec, &sd, &out, dom, dr, s] {
                for (int k = 0; k < 2; ++k) {
                    // First wave shares one delivery tick; second
                    // wave staggers per sender so singletons mix
                    // with coalescible runs in the same barrier.
                    exec.send(dom, dr, sd.q.now() + kWindow,
                              [&out, s, k] {
                                  out.order.push_back(10 * s + k);
                              });
                    exec.send(dom, dr, sd.q.now() + 2 * kWindow + s,
                              [&out, s, k] {
                                  out.order.push_back(100 + 10 * s + k);
                              });
                }
            });
        }
        exec.run();
        out.executed = recv.q.executedEvents();
        out.routed = exec.messagesRouted();
        out.coalesced = exec.messagesCoalesced();
        return out;
    };

    const Outcome batched = run(true);
    const Outcome plain = run(false);
    EXPECT_EQ(batched.order, plain.order);
    EXPECT_EQ(batched.executed, plain.executed);
    EXPECT_EQ(batched.executed, 12u);
    EXPECT_EQ(batched.routed, plain.routed);
    EXPECT_EQ(plain.coalesced, 0u);
    // Wave 1: 6 messages at one tick -> 5 merged. Wave 2: three
    // per-sender pairs -> 1 merged each.
    EXPECT_EQ(batched.coalesced, 8u);
}

TEST(ParallelExecutor, FastForwardRunsLoneDomainWindowsInline)
{
    // A strict ping-pong leaves exactly one domain with in-window
    // work at every step, so every window counts as skipped.
    Recorder a, b;
    ParallelExecutor exec(kWindow);
    const auto da = exec.addDomain(a.q);
    const auto db = exec.addDomain(b.q);
    struct Ctx {
        ParallelExecutor *exec;
        Recorder *a, *b;
        ParallelExecutor::DomainId da, db;
        int hops = 0;
    } ctx{&exec, &a, &b, da, db, 0};
    std::function<void(bool)> hop = [&ctx, &hop](bool at_a) {
        Recorder &r = at_a ? *ctx.a : *ctx.b;
        r.record(at_a ? 1 : 2);
        if (++ctx.hops >= 40)
            return;
        ctx.exec->send(at_a ? ctx.da : ctx.db, at_a ? ctx.db : ctx.da,
                       r.q.now() + kWindow,
                       [&hop, at_a] { hop(!at_a); });
    };
    a.q.schedule(1, [&hop] { hop(true); });
    exec.run();

    EXPECT_EQ(a.log.size() + b.log.size(), 40u);
    EXPECT_GT(exec.windowsSkipped(), 0u);
    EXPECT_EQ(exec.windowsSkipped(), exec.windowsRun());
}

TEST(ParallelExecutor, SparseAndDensePhasesCountWindowsByActiveDomains)
{
    // Alternating dense (both domains active) and sparse (a lone
    // domain, far apart) phases: only the sparse windows count as
    // skipped.
    Recorder a, b;
    ParallelExecutor exec(kWindow);
    exec.addDomain(a.q);
    exec.addDomain(b.q);
    Tick t = 1;
    std::size_t dense_events = 0;
    for (int phase = 0; phase < 6; ++phase) {
        if (phase % 2 == 0) {
            for (Tick d = 0; d < 3 * kWindow; d += 11) {
                a.q.schedule(t + d, [&a] { a.record(1); });
                b.q.schedule(t + d, [&b] { b.record(2); });
                ++dense_events;
            }
            t += 3 * kWindow;
        } else {
            // Spaced a long gap from each other and from the dense
            // phases on either side.
            for (int i = 0; i < 4; ++i) {
                t += 20 * kWindow;
                a.q.schedule(t, [&a] { a.record(3); });
            }
            t += 20 * kWindow;
        }
    }
    exec.run();
    EXPECT_EQ(a.log.size(), dense_events + 12);
    EXPECT_EQ(b.log.size(), dense_events);
    // 3 sparse phases x 4 lone events, each in its own window.
    EXPECT_EQ(exec.windowsSkipped(), 12u);
    EXPECT_GT(exec.windowsRun(), exec.windowsSkipped());
}

TEST(ParallelExecutor, RunCanBeCalledAgainAfterNewWork)
{
    Recorder a;
    ParallelExecutor exec(kWindow);
    exec.addDomain(a.q);
    a.q.schedule(10, [&] { a.record(1); });
    exec.run();
    ASSERT_EQ(a.log.size(), 1u);
    a.q.schedule(a.q.now() + 5, [&] { a.record(2); });
    exec.run();
    ASSERT_EQ(a.log.size(), 2u);
    EXPECT_EQ(a.log[1].second, 2);
}

} // namespace
} // namespace ssdrr::sim
