/**
 * @file
 * Golden digests of Ssd::replay: every simulated-result RunStats
 * field Ssd::stats() fills, for six mechanisms, over a short Table-2
 * trace, hand-built and dense out-of-order traces, and a trace whose
 * arrivals land on completion ticks. A change to how replay feeds
 * arrivals into the event queue must leave these bit-identical. The
 * page-profile cache counters are left out: they count memoization
 * work, not anything the drive simulated.
 *
 * The values were captured from the eager replay loop (every arrival
 * burst scheduled before the first event runs); the out-of-order
 * trace went through the same loop via the records overload of
 * replay(). Regenerate only after an intentional model change: the
 * failure message prints the new digest.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "sim/rng.hh"
#include "ssd/ssd.hh"
#include "workload/suites.hh"
#include "workload/synthetic.hh"

namespace ssdrr::ssd {
namespace {

const std::vector<core::Mechanism> kMechanisms = {
    core::Mechanism::Baseline, core::Mechanism::PR2,
    core::Mechanism::AR2,      core::Mechanism::PnAR2,
    core::Mechanism::NoRR,     core::Mechanism::PSO,
};

/** FNV-1a over the exact bits of the fields Ssd::stats() fills. */
class Fnv
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ull;
        }
    }

    void
    add(double d)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &d, sizeof bits);
        add(bits);
    }

    void
    add(const RunStats &s)
    {
        for (double d :
             {s.avgReadResponseUs, s.avgWriteResponseUs, s.avgResponseUs,
              s.p99ResponseUs, s.maxResponseUs, s.p50ReadResponseUs,
              s.p99ReadResponseUs, s.p999ReadResponseUs, s.avgRetrySteps,
              s.simulatedMs, s.channelUtilization, s.eccUtilization})
            add(d);
        for (std::uint64_t v :
             {s.retrySamples, s.reads, s.writes, s.suspensions,
              s.gcCollections, s.timingFallbacks, s.readFailures,
              s.refreshes, s.executedEvents})
            add(v);
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

Config
agedConfig()
{
    Config c = Config::small();
    c.basePeKilo = 1.0;
    c.baseRetentionMonths = 6.0;
    return c;
}

/**
 * Records out of arrival order, with same-tick records that are not
 * adjacent (ticks 10 and 40 recur after other ticks), adjacent
 * same-tick runs (one batched burst each), reads and writes, and
 * multi-page requests.
 */
std::vector<workload::TraceRecord>
outOfOrderRecords()
{
    struct Row {
        sim::Tick arrivalUs;
        std::uint64_t lpn;
        std::uint32_t pages;
        bool isRead;
    };
    const Row rows[] = {
        {40, 1000, 2, true},  {10, 77, 1, true},    {10, 78, 1, false},
        {25, 5000, 4, true},  {10, 77, 1, true},    {0, 12, 1, true},
        {40, 1001, 1, false}, {40, 9000, 1, true},  {5, 300, 8, true},
        {25, 5002, 1, false}, {10, 4096, 1, true},  {60, 77, 1, true},
        {0, 13, 1, false},    {60, 1000, 3, true},  {33, 2222, 1, true},
        {10, 300, 2, false},  {40, 12, 1, true},    {5, 301, 1, true},
    };
    std::vector<workload::TraceRecord> records;
    for (const Row &r : rows) {
        workload::TraceRecord rec;
        rec.arrival = sim::usec(r.arrivalUs);
        rec.lpn = r.lpn;
        rec.pages = r.pages;
        rec.isRead = r.isRead;
        records.push_back(rec);
    }
    return records;
}

/**
 * A dense out-of-order trace on a 1 us grid: hundreds of records share
 * a tick with records far from them in the trace.
 */
std::vector<workload::TraceRecord>
denseRecords()
{
    sim::Rng rng(0xD15EA5Eull);
    std::vector<workload::TraceRecord> records;
    for (int i = 0; i < 600; ++i) {
        workload::TraceRecord rec;
        rec.arrival = sim::usec(static_cast<double>(rng.uniformInt(3000)));
        rec.lpn = rng.uniformInt(20000);
        rec.pages = 1 + static_cast<std::uint32_t>(rng.uniformInt(3));
        rec.isRead = rng.uniform() < 0.8;
        records.push_back(rec);
    }
    return records;
}

TEST(ReplayGolden, DenseOutOfOrderTraceAllMechanisms)
{
    const std::vector<workload::TraceRecord> records = denseRecords();
    Fnv fnv;
    for (core::Mechanism m : kMechanisms) {
        Ssd ssd(agedConfig(), m);
        std::vector<std::uint64_t> completions;
        ssd.onHostComplete([&](const HostCompletion &c) {
            completions.push_back(c.id);
            completions.push_back(c.finish);
        });
        fnv.add(ssd.replay(records));
        for (std::uint64_t v : completions)
            fnv.add(v);
    }
    EXPECT_EQ(fnv.value(), 0xfc894b6d3fd0738bull) << std::hex << "0x" << fnv.value();
}

TEST(ReplayGolden, Table2TraceAllMechanisms)
{
    const workload::Trace trace = workload::generateSynthetic(
        workload::findWorkload("usr_1"), agedConfig().logicalPages(), 1500,
        11);
    Fnv fnv;
    for (core::Mechanism m : kMechanisms) {
        Ssd ssd(agedConfig(), m);
        const RunStats st = ssd.replay(trace);
        EXPECT_EQ(st.reads + st.writes, trace.size());
        fnv.add(st);
    }
    EXPECT_EQ(fnv.value(), 0xaaf8d4411274141full) << std::hex << "0x" << fnv.value();
}

TEST(ReplayGolden, OutOfOrderTraceAllMechanisms)
{
    const std::vector<workload::TraceRecord> records = outOfOrderRecords();
    Fnv fnv;
    for (core::Mechanism m : kMechanisms) {
        Ssd ssd(agedConfig(), m);
        std::vector<std::uint64_t> completions;
        ssd.onHostComplete([&](const HostCompletion &c) {
            completions.push_back(c.id);
            completions.push_back(c.arrival);
            completions.push_back(c.finish);
        });
        // A second replay continues on the warmed drive from now().
        for (int pass = 0; pass < 2; ++pass) {
            const RunStats st = ssd.replay(records);
            EXPECT_EQ(st.reads + st.writes, records.size() * (pass + 1));
            fnv.add(st);
        }
        // Completion order, ids, arrival and finish ticks join the
        // digest.
        for (std::uint64_t v : completions)
            fnv.add(v);
    }
    EXPECT_EQ(fnv.value(), 0xca60d7e9a8fa7560ull) << std::hex << "0x" << fnv.value();
}

/**
 * Reads and writes crowded onto a few LPNs, so dies hold queued writes
 * and suspended programs whenever a read releases them.
 */
std::vector<workload::TraceRecord>
contendedRecords()
{
    sim::Rng rng(0xC0FFEEull);
    std::vector<workload::TraceRecord> records;
    for (int i = 0; i < 400; ++i) {
        workload::TraceRecord rec;
        rec.arrival = sim::usec(static_cast<double>(rng.uniformInt(4000)));
        rec.lpn = rng.uniformInt(32);
        rec.pages = 1;
        rec.isRead = rng.uniform() < 0.5;
        records.push_back(rec);
    }
    return records;
}

/**
 * Arrivals that land exactly on completion ticks. A first replay of
 * the contended trace yields every request's completion tick; the
 * digested trace adds, at each such tick, a one-page read of the
 * completed request's first LPN, so the probe meets its die at the
 * moment a read or program releases it (a write completes at its
 * program end, a pipelined read at its die release). An arrival keeps
 * the sequence number eager scheduling drew before any internal
 * event, so it runs ahead of a completion or die release at the same
 * tick; giving it a fresh number when it is injected would run it
 * after, change which transaction the die takes next, and move this
 * digest.
 */
TEST(ReplayGolden, ArrivalsOnCompletionTicksAllMechanisms)
{
    const std::vector<workload::TraceRecord> base = contendedRecords();
    Fnv fnv;
    for (core::Mechanism m : kMechanisms) {
        std::vector<workload::TraceRecord> records = base;
        {
            Ssd ssd(agedConfig(), m);
            ssd.onHostComplete([&](const HostCompletion &c) {
                const workload::TraceRecord &done = base[c.id - 1];
                workload::TraceRecord probe;
                // Rebase: replay offsets arrivals by the clock at
                // its start.
                probe.arrival = c.finish - (c.arrival - done.arrival);
                probe.lpn = done.lpn;
                probe.pages = 1;
                probe.isRead = true;
                records.push_back(probe);
            });
            ssd.replay(base);
        }
        ASSERT_EQ(records.size(), 2 * base.size());

        Ssd ssd(agedConfig(), m);
        std::vector<sim::Tick> base_finish;
        std::vector<std::uint64_t> completions;
        sim::Tick offset = 0; // the replay's rebase
        ssd.onHostComplete([&](const HostCompletion &c) {
            offset = c.arrival - records[c.id - 1].arrival;
            if (c.id <= base.size())
                base_finish.push_back(c.finish);
            completions.push_back(c.id);
            completions.push_back(c.finish);
        });
        fnv.add(ssd.replay(records));
        for (std::uint64_t v : completions)
            fnv.add(v);

        // The trace must do what it claims: probes that share a tick
        // with a completion of the digested run.
        std::sort(base_finish.begin(), base_finish.end());
        std::size_t coincident = 0;
        for (std::size_t i = base.size(); i < records.size(); ++i)
            coincident += std::binary_search(base_finish.begin(),
                                             base_finish.end(),
                                             records[i].arrival + offset);
        EXPECT_GT(coincident, base.size() / 20) << core::name(m);
    }
    EXPECT_EQ(fnv.value(), 0xfbc81efa40bd4c30ull) << std::hex << "0x" << fnv.value();
}

} // namespace
} // namespace ssdrr::ssd
