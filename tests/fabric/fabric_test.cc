/**
 * @file
 * Runtime fabric transport: per-hop delivery time (serialization +
 * propagation), FIFO contention on a shared hop, full-duplex
 * independence of the two link directions, and the per-link
 * accounting surfaced through linkReports().
 *
 * The Fabric is driven standalone here — a ParallelExecutor, a host
 * queue, and per-drive queues wired exactly as host::SsdArray wires
 * them — so the math is checked tick-for-tick without a whole SSD
 * behind it.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "fabric/fabric.hh"
#include "sim/event_queue.hh"
#include "sim/parallel_executor.hh"

namespace ssdrr::fabric {
namespace {

/** Fabric + executor + queues wired like host::SsdArray does it. */
struct Rig {
    sim::EventQueue hostQ;
    std::vector<std::unique_ptr<sim::EventQueue>> driveQs;
    std::unique_ptr<sim::ParallelExecutor> exec;
    std::unique_ptr<Fabric> fab;

    explicit Rig(const TopologySpec &spec, std::uint32_t drives)
    {
        Topology topo = Topology::compile(spec, drives);
        exec = std::make_unique<sim::ParallelExecutor>(
            topo.minLinkLatency());
        const auto host_dom = exec->addDomain(hostQ);
        fab = std::make_unique<Fabric>(std::move(topo), *exec,
                                       host_dom, hostQ);
        for (std::uint32_t d = 0; d < drives; ++d) {
            driveQs.push_back(std::make_unique<sim::EventQueue>());
            fab->attachDrive(d, exec->addDomain(*driveQs[d]),
                             *driveQs[d]);
        }
    }
};

/** One drive behind one direct link: 5 us latency, 2 us per KiB. */
TopologySpec
directLink()
{
    TopologySpec spec;
    spec.nodes = {{"h", "host"}, {"d", "drive"}};
    spec.links = {{"h", "d", 5.0, 2.0}};
    spec.drives = {"d"};
    return spec;
}

TEST(Fabric, HopChargesSerializationPlusPropagation)
{
    Rig rig(directLink(), 1);
    sim::Tick arrived = 0;
    // 2 KiB at 2 us/KiB = 4 us serialization, then 5 us propagation.
    rig.hostQ.schedule(sim::usec(10.0), [&] {
        rig.fab->toDrive(0, 2048, /*read=*/false,
                         [&] { arrived = rig.driveQs[0]->now(); });
    });
    rig.exec->run();
    EXPECT_EQ(arrived, sim::usec(19.0));

    const std::vector<LinkReport> reports = rig.fab->linkReports();
    ASSERT_EQ(reports.size(), 1u);
    EXPECT_EQ(reports[0].link, "h<->d");
    EXPECT_EQ(reports[0].messages, 1u);
    EXPECT_EQ(reports[0].bytesCarried, 2048u);
    EXPECT_DOUBLE_EQ(reports[0].busyUs, 4.0);
    EXPECT_DOUBLE_EQ(reports[0].waitUs, 0.0);
    EXPECT_EQ(reports[0].maxQueueDepth, 1u);
}

TEST(Fabric, CommandOnlyCrossingCostsOnlyPropagation)
{
    Rig rig(directLink(), 1);
    sim::Tick arrived = 0;
    rig.hostQ.schedule(sim::usec(10.0), [&] {
        rig.fab->toDrive(0, 0, /*read=*/true,
                         [&] { arrived = rig.driveQs[0]->now(); });
    });
    rig.exec->run();
    EXPECT_EQ(arrived, sim::usec(15.0));
    EXPECT_DOUBLE_EQ(rig.fab->linkReports()[0].busyUs, 0.0);
}

TEST(Fabric, ConcurrentMessagesSerializeFifoOnASharedHop)
{
    Rig rig(directLink(), 1);
    std::vector<sim::Tick> arrivals;
    // Two 2-KiB messages sent back to back at the same tick: the
    // second queues behind the first's 4 us serialization.
    rig.hostQ.schedule(sim::usec(10.0), [&] {
        rig.fab->toDrive(0, 2048, true, [&] {
            arrivals.push_back(rig.driveQs[0]->now());
        });
        rig.fab->toDrive(0, 2048, true, [&] {
            arrivals.push_back(rig.driveQs[0]->now());
        });
    });
    rig.exec->run();
    ASSERT_EQ(arrivals.size(), 2u);
    EXPECT_EQ(arrivals[0], sim::usec(19.0)); // 10 + 4 + 5
    EXPECT_EQ(arrivals[1], sim::usec(23.0)); // 10 + 4 + 4 + 5

    const LinkReport r = rig.fab->linkReports()[0];
    EXPECT_EQ(r.messages, 2u);
    EXPECT_EQ(r.bytesCarried, 4096u);
    EXPECT_DOUBLE_EQ(r.busyUs, 8.0);
    EXPECT_DOUBLE_EQ(r.waitUs, 4.0); // the second message's queueing
    EXPECT_EQ(r.maxQueueDepth, 2u);
    // Both messages were read-tagged, so the read-wait total is the
    // same 4 us the FIFO charged.
    EXPECT_EQ(rig.fab->readWaitTicks(), sim::usec(4.0));
}

TEST(Fabric, LinkDirectionsAreFullDuplex)
{
    Rig rig(directLink(), 1);
    sim::Tick down_arrived = 0, up_arrived = 0;
    // A downstream transfer and an upstream transfer in flight at
    // once: opposite directions keep independent FIFO state, so
    // neither queues behind the other.
    rig.hostQ.schedule(sim::usec(10.0), [&] {
        rig.fab->toDrive(0, 2048, false,
                         [&] { down_arrived = rig.driveQs[0]->now(); });
    });
    rig.driveQs[0]->schedule(sim::usec(10.0), [&] {
        rig.fab->toHost(0, 2048, true,
                        [&] { up_arrived = rig.hostQ.now(); });
    });
    rig.exec->run();
    EXPECT_EQ(down_arrived, sim::usec(19.0));
    EXPECT_EQ(up_arrived, sim::usec(19.0));
    // linkReports merges both directions.
    const LinkReport r = rig.fab->linkReports()[0];
    EXPECT_EQ(r.messages, 2u);
    EXPECT_DOUBLE_EQ(r.waitUs, 0.0);
}

TEST(Fabric, SharedUplinkContendsWhileLeafLinksDoNot)
{
    // One switch fronting two drives: messages to different drives
    // share the host->switch uplink, then fan out contention-free.
    TopologySpec spec;
    spec.nodes = {{"h", "host"}, {"sw", "switch"},
                  {"d0", "drive"}, {"d1", "drive"}};
    spec.links = {{"h", "sw", 5.0, 2.0},
                  {"sw", "d0", 1.0, 0.0},
                  {"sw", "d1", 1.0, 0.0}};
    spec.drives = {"d0", "d1"};
    Rig rig(spec, 2);
    sim::Tick a0 = 0, a1 = 0;
    rig.hostQ.schedule(sim::usec(10.0), [&] {
        rig.fab->toDrive(0, 2048, true,
                         [&] { a0 = rig.driveQs[0]->now(); });
        rig.fab->toDrive(1, 2048, true,
                         [&] { a1 = rig.driveQs[1]->now(); });
    });
    rig.exec->run();
    // d0: 10 + (4 ser + 5 lat) + (0 ser + 1 lat) = 20.
    EXPECT_EQ(a0, sim::usec(20.0));
    // d1 queued 4 us behind d0 on the uplink: 24.
    EXPECT_EQ(a1, sim::usec(24.0));

    const std::vector<LinkReport> reports = rig.fab->linkReports();
    ASSERT_EQ(reports.size(), 3u);
    EXPECT_DOUBLE_EQ(reports[0].waitUs, 4.0); // h<->sw uplink
    EXPECT_DOUBLE_EQ(reports[1].waitUs, 0.0); // sw<->d0
    EXPECT_DOUBLE_EQ(reports[2].waitUs, 0.0); // sw<->d1
    EXPECT_EQ(reports[1].messages, 1u);
    EXPECT_EQ(reports[2].messages, 1u);
}

TEST(Fabric, SwitchEventsAreAccounted)
{
    TopologySpec spec;
    spec.nodes = {{"h", "host"}, {"sw", "switch"}, {"d", "drive"}};
    spec.links = {{"h", "sw", 1.0, 0.0}, {"sw", "d", 1.0, 0.0}};
    spec.drives = {"d"};
    Rig rig(spec, 1);
    bool arrived = false;
    rig.hostQ.schedule(sim::usec(1.0), [&] {
        rig.fab->toDrive(0, 0, false, [&] { arrived = true; });
    });
    rig.exec->run();
    EXPECT_TRUE(arrived);
    // The switch forwarded exactly one message.
    EXPECT_EQ(rig.fab->switchExecutedEvents(), 1u);
}

} // namespace
} // namespace ssdrr::fabric
