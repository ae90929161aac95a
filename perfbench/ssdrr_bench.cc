/**
 * @file
 * Outside-in benchmark harness for the ssdrr simulator.
 *
 * Drives the library through its public API only (host::ScenarioSpec,
 * host::runScenario, ssd::Ssd and the layer classes) and reads
 * ssd::RunStats directly. One invocation runs one workload for a fixed
 * host-time budget and prints, as the last line of stdout, one JSON
 * object: {"correct", "attempted", "failed", "metrics"}.
 *
 *   ssdrr_bench --workload NAME --seed N --seconds S --trace 0|1
 *               --workloads-dir DIR [--spans FILE]
 *
 * --trace 0 reports the end-to-end metrics; --trace 1 reports the
 * per-layer metrics, records in-memory spans around the harness's own
 * calls into each layer and writes them to --spans.
 *
 * The exit code is 0 only when every correctness check passed.
 * See README.md in this directory for the metric definitions.
 */

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/retry_controller.hh"
#include "ecc/engine.hh"
#include "host/array_layout.hh"
#include "host/scenario.hh"
#include "host/scenario_spec.hh"
#include "nand/page_profile_cache.hh"
#include "ssd/channel.hh"
#include "ssd/ssd.hh"
#include "workload/suites.hh"
#include "workload/synthetic.hh"

namespace {

using namespace ssdrr;
using Clock = std::chrono::steady_clock;

constexpr std::array<core::Mechanism, 2> kMechs = {
    core::Mechanism::Baseline, core::Mechanism::PnAR2};

/**
 * The benchmark's workloads. `replay` workloads run the paper's
 * single-SSD open-loop trace replay (ssd::Ssd::replay); the others run
 * the whole host stack through host::runScenario.
 */
struct Workload {
    const char *name;
    bool replay;
};

constexpr Workload kWorkloads[] = {
    {"replay-usr1", true},
    {"tenants-rw", false},
    {"raid5-fabric-failover", false},
};

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Host CPU seconds of this process, all threads. */
double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               1e-6 * static_cast<double>(tv.tv_usec);
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// --------------------------------------------------- reference kernel

/**
 * A fixed amount of work that uses the host the way the simulator
 * does: a dependent random walk over a 64 MiB table, larger than a
 * typical last-level cache, feeding a binary heap. It shares no code
 * with the library, so a change to the program under test cannot
 * change its time; only the host's speed can. Host-time metrics are
 * scaled by it (see kRefKernelS).
 */
class ReferenceKernel
{
  public:
    static constexpr std::size_t kEntries = std::size_t(1) << 24;
    static constexpr double kTableMb =
        kEntries * sizeof(std::uint32_t) / (1024.0 * 1024.0);

    ReferenceKernel() : next_(kEntries)
    {
        std::uint64_t x = 88172645463325252ull; // fixed xorshift64 seed
        for (std::uint32_t &e : next_) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            e = static_cast<std::uint32_t>(x % kEntries);
        }
    }

    /** Run the kernel once; return its host seconds. */
    double
    time()
    {
        const auto t0 = Clock::now();
        std::vector<std::uint64_t> heap;
        heap.reserve(kHeap + 1);
        std::uint32_t at = 1;
        std::uint64_t acc = 0;
        for (std::uint32_t i = 0; i < kSteps; ++i) {
            at = next_[at ^ (acc & 1023)];
            heap.push_back((std::uint64_t(at) << 20) | (i & 0xfffff));
            std::push_heap(heap.begin(), heap.end(), std::greater<>());
            if (heap.size() > kHeap) {
                std::pop_heap(heap.begin(), heap.end(), std::greater<>());
                acc += heap.back();
                heap.pop_back();
            }
        }
        sink_ += acc;
        return secondsSince(t0);
    }

    std::uint64_t sink() const { return sink_; }

  private:
    static constexpr std::uint32_t kSteps = 400000;
    static constexpr std::size_t kHeap = 4096;
    std::vector<std::uint32_t> next_;
    std::uint64_t sink_ = 0;
};

/**
 * The kernel time that defines the reference host speed. A host-time
 * figure t measured while the kernel takes k seconds is reported as
 * t * kRefKernelS / k: host seconds at that reference speed. The value
 * only sets the unit; on a 4-vCPU Intel Xeon VM the kernel took
 * 0.08-0.15 s. A host shared with other tenants runs the whole process
 * slower or faster for minutes at a time; the kernel slows with it, so
 * the scaled figures keep what the program itself changes.
 */
constexpr double kRefKernelS = 0.080;

// ------------------------------------------------------------ tracing

/**
 * In-memory span recorder. A span is (name, parent, start, end); the
 * parent is the innermost span open when it began. Spans are kept in
 * memory and written out once, when the run ends.
 */
class Tracer
{
  public:
    struct Span {
        std::string name;
        int parent;
        double start;
        double end;
    };

    int
    begin(std::string name)
    {
        const int id = static_cast<int>(spans_.size());
        spans_.push_back({std::move(name), open_.empty() ? -1 : open_.back(),
                          secondsSince(origin_), 0.0});
        open_.push_back(id);
        return id;
    }

    void
    end(int id)
    {
        spans_[id].end = secondsSince(origin_);
        open_.pop_back();
    }

    /** Summed duration and self time (duration minus children) per
     *  span name. */
    std::map<std::string, std::pair<double, double>>
    totals() const
    {
        std::vector<double> child(spans_.size(), 0.0);
        for (const Span &s : spans_)
            if (s.parent >= 0)
                child[s.parent] += s.end - s.start;
        std::map<std::string, std::pair<double, double>> out;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const double d = spans_[i].end - spans_[i].start;
            out[spans_[i].name].first += d;
            out[spans_[i].name].second += d - child[i];
        }
        return out;
    }

    bool
    write(const std::string &path) const
    {
        std::ofstream f(path);
        f << "{\"spans\": [";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            char buf[256];
            std::snprintf(buf, sizeof buf,
                          "%s\n  {\"id\": %zu, \"parent\": %d, "
                          "\"name\": \"%s\", \"start_s\": %.9f, "
                          "\"end_s\": %.9f}",
                          i ? "," : "", i, s.parent, s.name.c_str(),
                          s.start, s.end);
            f << buf;
        }
        f << "\n]}\n";
        return static_cast<bool>(f);
    }

  private:
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** RAII span; a null tracer records nothing (the untraced runs). */
class Scope
{
  public:
    Scope(Tracer *t, std::string name) : t_(t)
    {
        if (t_)
            id_ = t_->begin(std::move(name));
    }
    ~Scope()
    {
        if (t_)
            t_->end(id_);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer *t_;
    int id_ = -1;
};

// -------------------------------------------------------------- setup

/**
 * Everything the timed region needs, built from the spec file and the
 * seed. Setup is what setup_s times and the timed region excludes:
 * spec load and validation, trace generation, and on the replay
 * workload drive construction plus preconditioning. host::runScenario
 * builds its own drives and traces, so on the array workloads that
 * work stays inside the timed region; the traces made here feed the
 * request accounting and the isolated layer replays.
 */
struct Setup {
    host::ScenarioSpec spec;
    ssd::Config cfg;
    /** One trace per tenant (the replay workload has one tenant). */
    std::vector<workload::Trace> traces;
    /** Replay workload: one preconditioned drive per mechanism. */
    std::vector<std::unique_ptr<ssd::Ssd>> drives;
    double specLoadS = 0.0;
    double genS = 0.0;
    double drivesS = 0.0;

    double total() const { return specLoadS + genS + drivesS; }
};

Setup
setUp(const Workload &w, const std::string &spec_text, std::uint64_t seed,
      Tracer *tr)
{
    Setup s;
    auto t0 = Clock::now();
    {
        Scope span(tr, "host.spec_load");
        s.spec = host::ScenarioSpec::fromJsonText(spec_text);
        s.spec.ssd.seed = seed;
        s.spec.validate();
        s.cfg = s.spec.ssd.toConfig();
    }
    s.specLoadS = secondsSince(t0);

    t0 = Clock::now();
    {
        Scope span(tr, "workload.gen");
        if (w.replay) {
            const host::TenantSpec &t = s.spec.tenants.front();
            s.traces.push_back(workload::generateSynthetic(
                workload::findWorkload(t.workload), s.cfg.logicalPages(),
                t.requests, seed));
        } else {
            // The same slices and seeds host::runScenario derives.
            const std::uint64_t slice =
                host::makeArrayLayout(
                    host::parseRaidLevel(s.spec.raidLevel), s.spec.drives,
                    s.spec.stripeUnitPages, s.spec.failedDrives)
                    ->logicalPages(s.cfg.logicalPages()) /
                s.spec.tenants.size();
            for (std::size_t i = 0; i < s.spec.tenants.size(); ++i)
                s.traces.push_back(host::makeTenantTrace(
                    s.spec.tenants[i], slice, i * slice, s.cfg.pageBytes,
                    seed + 7919 * (i + 1)));
        }
    }
    s.genS = secondsSince(t0);

    if (!w.replay)
        return s;
    t0 = Clock::now();
    Scope span(tr, "ssd.construct");
    for (core::Mechanism mech : kMechs) {
        s.drives.push_back(std::make_unique<ssd::Ssd>(s.cfg, mech));
        s.drives.back()->precondition();
    }
    s.drivesS = secondsSince(t0);
    return s;
}

// ---------------------------------------------------------- timed run

struct MechRun {
    ssd::RunStats st;
    std::vector<host::TenantStats> tenants;
    double runS = 0.0;
    std::uint64_t digest = 0;
};

struct Pass {
    std::array<MechRun, kMechs.size()> mech;
    double setupS = 0.0; ///< the setup that preceded this pass
    double wallS = 0.0;
    double cpuS = 0.0;
    /** Position among all setup + pass iterations of the run. */
    std::size_t iteration = 0;
    /** kRefKernelS over the reference kernel's time around this pass
     *  and its setup: multiplies the raw host times above. */
    double scale = 1.0;
};

/**
 * FNV-1a over every simulated result the run reports, excluding only
 * the executor's spin and park counts (host-timing dependent).
 */
std::uint64_t
digestOf(const ssd::RunStats &a, const std::vector<host::TenantStats> &ts)
{
    std::ostringstream o;
    o.precision(17);
    o << a.avgReadResponseUs << ' ' << a.avgWriteResponseUs << ' '
      << a.p99ResponseUs << ' ' << a.maxResponseUs << ' '
      << a.p50ReadResponseUs << ' ' << a.p99ReadResponseUs << ' '
      << a.p999ReadResponseUs << ' ' << a.avgRetrySteps << ' '
      << a.retrySamples << ' ' << a.reads << ' ' << a.writes << ' '
      << a.suspensions << ' ' << a.gcCollections << ' '
      << a.timingFallbacks << ' ' << a.readFailures << ' ' << a.refreshes
      << ' ' << a.degradedReads << ' ' << a.reconstructionReads << ' '
      << a.parityWrites << ' ' << a.p999DegradedReadUs << ' '
      << a.simulatedMs << ' ' << a.channelUtilization << ' '
      << a.eccUtilization << ' ' << a.profileCacheHits << ' '
      << a.profileCacheMisses << ' ' << a.hostTimeouts << ' '
      << a.hostRetries << ' ' << a.hostFailovers << ' ' << a.ueccReads
      << ' ' << a.failedRequests << ' ' << a.rebuildReads << ' '
      << a.rebuildProgress << ' ' << a.timeToRebuildMs << ' '
      << a.avgFabricWaitUs << ' ' << a.executedEvents << ' '
      << a.executorWindowsRun << ' ' << a.executorWindowsSkipped;
    for (const ssd::RunStats::FabricLinkStats &l : a.fabricLinks)
        o << ' ' << l.link << ' ' << l.messages << ' ' << l.bytesCarried
          << ' ' << l.busyUs << ' ' << l.waitUs << ' ' << l.maxQueueDepth;
    for (const host::TenantStats &t : ts)
        o << ' ' << t.name << ' ' << t.completed << ' ' << t.reads << ' '
          << t.writes << ' ' << t.avgUs << ' ' << t.p999Us << ' '
          << t.readP999Us;
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned char c : o.str()) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

Pass
runPass(const Workload &w, Setup &s, Tracer *tr)
{
    Pass p;
    const double cpu0 = cpuSeconds();
    const auto t0 = Clock::now();
    for (std::size_t m = 0; m < kMechs.size(); ++m) {
        MechRun &r = p.mech[m];
        const std::string label = core::name(kMechs[m]);
        const auto m0 = Clock::now();
        if (w.replay) {
            Scope span(tr, "ssd.replay." + label);
            r.st = s.drives[m]->replay(s.traces.front());
        } else {
            Scope span(tr, "host.runScenario." + label);
            host::ScenarioResult res = host::runScenario(s.spec, kMechs[m]);
            r.st = std::move(res.array);
            r.tenants = std::move(res.tenants);
        }
        r.runS = secondsSince(m0);
        r.digest = digestOf(r.st, r.tenants);
    }
    p.wallS = secondsSince(t0);
    p.cpuS = cpuSeconds() - cpu0;
    s.drives.clear(); // replayed drives are spent
    return p;
}

// -------------------------------------------------------- correctness

class Checks
{
  public:
    void
    require(bool cond, const std::string &what)
    {
        if (!cond) {
            ok_ = false;
            std::fprintf(stderr, "check failed: %s\n", what.c_str());
        }
    }
    bool ok() const { return ok_; }

  private:
    bool ok_ = true;
};

/** Host requests submitted vs. completed OK for one mechanism. */
struct Served {
    std::uint64_t submitted = 0;
    std::uint64_t ok = 0;
};

/**
 * Request accounting for one mechanism's run: every submitted host
 * request completes exactly once, per tenant, and the array-level
 * counts agree with the tenants'. A request that completed Failed
 * counts as not served, and so does one per device read whose retry
 * plan failed (the drive still completes such a read, and the host
 * never sees the failure).
 */
Served
account(const Workload &w, const Setup &s, const MechRun &r, Checks &chk)
{
    Served sv;
    std::uint64_t reads = 0, writes = 0;
    for (const workload::Trace &t : s.traces) {
        sv.submitted += t.size();
        for (const workload::TraceRecord &rec : t.records())
            (rec.isRead ? reads : writes) += 1;
    }
    if (w.replay) {
        chk.require(r.st.reads == reads && r.st.writes == writes,
                    "replay completed " + std::to_string(r.st.reads) +
                        " reads / " + std::to_string(r.st.writes) +
                        " writes of " + std::to_string(reads) + " / " +
                        std::to_string(writes) + " submitted");
        sv.ok = r.st.reads + r.st.writes;
    } else {
        std::uint64_t completed = 0, t_reads = 0, t_writes = 0;
        for (std::size_t i = 0; i < r.tenants.size(); ++i) {
            const host::TenantStats &ts = r.tenants[i];
            chk.require(i < s.traces.size() &&
                            ts.completed == s.traces[i].size() &&
                            ts.reads + ts.writes == ts.completed,
                        "tenant " + ts.name + " completed " +
                            std::to_string(ts.completed) + " (" +
                            std::to_string(ts.reads) + " reads + " +
                            std::to_string(ts.writes) + " writes)");
            completed += ts.completed;
            t_reads += ts.reads;
            t_writes += ts.writes;
        }
        chk.require(r.tenants.size() == s.traces.size(),
                    "tenant count mismatch");
        chk.require(t_reads == reads && t_writes == writes,
                    "tenant reads/writes differ from the generated "
                    "traces");
        // Rebuild-to-spare reads go through the host interface on
        // their own queue pair, so the array counts them too.
        chk.require(r.st.reads == t_reads + r.st.rebuildReads &&
                        r.st.writes == t_writes,
                    "array counted " + std::to_string(r.st.reads) +
                        " reads / " + std::to_string(r.st.writes) +
                        " writes, tenants " + std::to_string(t_reads) +
                        " / " + std::to_string(t_writes) + " plus " +
                        std::to_string(r.st.rebuildReads) +
                        " rebuild reads");
        chk.require(r.st.failedRequests <= completed,
                    "more failed requests than completions");
        sv.ok = completed - std::min(r.st.failedRequests, completed);
    }
    sv.ok -= std::min(r.st.readFailures, sv.ok);
    return sv;
}

// --------------------------------------------------- isolated layers

/** Host cost per call of each read-path layer function, replayed in
 *  isolation over the workload's read pages. */
struct LayerCosts {
    double translateNs = 0.0;
    double opPointNs = 0.0;
    double getNs = 0.0;
    double pageProfileNs = 0.0;
    double planReadNs = 0.0;
    /** Sum of the per-read-page costs the Ssd pays on every read
     *  transaction (pageProfile runs inside get on a miss). */
    double perReadNs() const
    {
        return translateNs + opPointNs + getNs + planReadNs;
    }
};

/**
 * Replay the workload's read pages through Ftl::translate,
 * Ftl::opPoint, PageProfileCache::get, ErrorModel::pageProfile and
 * RetryController::planRead (on per-channel Channel and EccEngine
 * reservations, releasing completed traffic first as the TSU does).
 * Array workloads map global LPNs onto one drive's logical space.
 */
LayerCosts
isolateLayers(const Setup &s, core::Mechanism mech, Tracer *tr,
              double *sink)
{
    const std::string label = core::name(mech);
    ssd::Ssd drive(s.cfg, mech);
    drive.precondition();
    ftl::Ftl &ftl = drive.ftl();
    const std::uint64_t logical = s.cfg.logicalPages();
    const std::uint64_t stride = s.spec.drives;

    struct Page {
        sim::Tick at;
        ftl::Lpn lpn;
    };
    std::vector<Page> pages;
    for (const workload::Trace &t : s.traces)
        for (const workload::TraceRecord &rec : t.records())
            if (rec.isRead)
                for (std::uint32_t k = 0; k < rec.pages; ++k)
                    pages.push_back(
                        {rec.arrival, ((rec.lpn + k) / stride) % logical});
    std::stable_sort(pages.begin(), pages.end(),
                     [](const Page &a, const Page &b) { return a.at < b.at; });
    const std::size_t n = pages.size();
    LayerCosts c;
    if (n == 0)
        return c;
    auto perCall = [n](Clock::time_point t0) {
        return 1e9 * secondsSince(t0) / static_cast<double>(n);
    };

    std::vector<ftl::Ppn> ppn(n);
    {
        Scope span(tr, "ftl.translate." + label);
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < n; ++i)
            ppn[i] = ftl.translate(pages[i].lpn);
        c.translateNs = perCall(t0);
    }
    std::vector<nand::OperatingPoint> op(n);
    {
        Scope span(tr, "ftl.opPoint." + label);
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < n; ++i)
            op[i] = ftl.opPoint(ppn[i], pages[i].at, s.cfg.temperatureC);
        c.opPointNs = perCall(t0);
    }
    const ftl::AddressLayout &layout = ftl.layout();
    std::vector<nand::PageErrorProfile> prof(n);
    {
        nand::PageProfileCache cache(drive.errorModel(),
                                     s.cfg.profileCacheSlots);
        Scope span(tr, "nand.profileCache.get." + label);
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < n; ++i)
            prof[i] = cache.get(layout.channelOf(ppn[i]),
                                layout.flatBlock(ppn[i]), ppn[i].page,
                                op[i]);
        c.getNs = perCall(t0);
    }
    {
        const nand::ErrorModel &model = drive.errorModel();
        Scope span(tr, "nand.pageProfile." + label);
        double acc = 0.0;
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < n; ++i)
            acc += model
                       .pageProfile(layout.channelOf(ppn[i]),
                                    layout.flatBlock(ppn[i]), ppn[i].page,
                                    op[i])
                       .finalErrors;
        c.pageProfileNs = perCall(t0);
        *sink += acc;
    }
    {
        const core::RetryController rc(mech, s.cfg.timing,
                                       drive.errorModel(), &drive.rpt());
        std::vector<ssd::Channel> ch;
        std::vector<ecc::EccEngine> ecc;
        for (std::uint32_t k = 0; k < s.cfg.channels; ++k) {
            ch.emplace_back(k);
            ecc.emplace_back(s.cfg.timing.tECC, s.cfg.eccCapability);
        }
        Scope span(tr, "core.planRead." + label);
        sim::Tick acc = 0;
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint32_t k = layout.channelOf(ppn[i]);
            const sim::Tick now = pages[i].at;
            ch[k].releaseBefore(now);
            ecc[k].releaseBefore(now);
            acc += rc.planRead(now, nand::pageTypeOf(ppn[i].page), prof[i],
                               op[i], ch[k], ecc[k])
                       .completion;
        }
        c.planReadNs = perCall(t0);
        *sink += static_cast<double>(acc);
    }
    return c;
}

// ------------------------------------------------------------- output

struct Metric {
    std::string name;
    double value;
    const char *unit;
};

std::string
resultJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
           const std::vector<Metric> &metrics)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      i ? ", " : "", metrics[i].name.c_str(),
                      metrics[i].value, metrics[i].unit);
        out += buf;
    }
    out += "}}";
    return out;
}

/**
 * Per-layer metrics of one traced pass (counts summed over both
 * mechanisms, utilizations averaged) plus the isolated layer costs,
 * in BENCHMARK.json order after the two setup metrics.
 */
std::vector<Metric>
layerMetrics(const Setup &s, const Pass &tp, Tracer *tr)
{
    const double n_mech = static_cast<double>(kMechs.size());
    LayerCosts cost; // per-call averages over both mechanisms
    double residual = 0.0;
    double sink = 0.0;
    for (std::size_t m = 0; m < kMechs.size(); ++m) {
        const LayerCosts c = isolateLayers(s, kMechs[m], tr, &sink);
        cost.translateNs += c.translateNs / n_mech;
        cost.opPointNs += c.opPointNs / n_mech;
        cost.getNs += c.getNs / n_mech;
        cost.pageProfileNs += c.pageProfileNs / n_mech;
        cost.planReadNs += c.planReadNs / n_mech;
        residual += tp.mech[m].runS -
                    1e-9 * c.perReadNs() *
                        static_cast<double>(tp.mech[m].st.retrySamples);
    }
    std::printf("isolated-layer checksum %.6g\n", sink);

    auto total = [&tp](auto ssd::RunStats::*field) {
        double v = 0.0;
        for (const MechRun &r : tp.mech)
            v += static_cast<double>(r.st.*field);
        return v;
    };
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    using S = ssd::RunStats;
    double steps = 0.0, fab_wait = 0.0, fab_msgs = 0.0, fab_busy = 0.0;
    double fab_maxq = 0.0, run_s = 0.0;
    for (const MechRun &r : tp.mech) {
        steps += r.st.avgRetrySteps * static_cast<double>(r.st.retrySamples);
        fab_wait += r.st.avgFabricWaitUs * static_cast<double>(r.st.reads);
        for (const S::FabricLinkStats &l : r.st.fabricLinks) {
            fab_msgs += static_cast<double>(l.messages);
            fab_busy += l.busyUs;
            fab_maxq = std::max<double>(fab_maxq, l.maxQueueDepth);
        }
        run_s += r.runS;
    }
    const double reads = total(&S::reads);
    const double writes = total(&S::writes);
    const double events = total(&S::executedEvents);
    const double win_run = total(&S::executorWindowsRun);
    const double win_skip = total(&S::executorWindowsSkipped);
    const double hits = total(&S::profileCacheHits);
    return {
        {"ftl.translate_ns", cost.translateNs, "ns"},
        {"ftl.op_point_ns", cost.opPointNs, "ns"},
        {"ftl.writes", writes + total(&S::parityWrites), "count"},
        {"ftl.gc_collections", total(&S::gcCollections), "count"},
        {"nand.profile_get_ns", cost.getNs, "ns"},
        {"nand.page_profile_ns", cost.pageProfileNs, "ns"},
        {"nand.profile_hit_ratio",
         ratio(hits, hits + total(&S::profileCacheMisses)), "ratio"},
        {"core.plan_read_ns", cost.planReadNs, "ns"},
        {"core.retry_steps_per_read", ratio(steps, total(&S::retrySamples)),
         "steps"},
        {"core.timing_fallbacks", total(&S::timingFallbacks), "count"},
        {"core.read_failures", total(&S::readFailures), "count"},
        {"sim.events", events, "count"},
        {"sim.events_per_read", ratio(events, reads), "ratio"},
        {"sim.run_ns_per_event", 1e9 * ratio(run_s, events), "ns"},
        {"sim.kernel_residual_s", residual, "s"},
        {"ssd.reads", reads, "count"},
        {"ssd.writes", writes, "count"},
        {"ssd.suspensions", total(&S::suspensions), "count"},
        {"ssd.channel_util", total(&S::channelUtilization) / n_mech, "ratio"},
        {"ssd.ecc_util", total(&S::eccUtilization) / n_mech, "ratio"},
        {"ssd.run_s.Baseline", tp.mech[0].runS, "s"},
        {"ssd.run_s.PnAR2", tp.mech[1].runS, "s"},
        {"sim.executor.windows_run", win_run, "count"},
        {"sim.executor.windows_skipped", win_skip, "count"},
        {"sim.executor.skip_ratio", ratio(win_skip, win_run), "ratio"},
        {"sim.executor.events_per_window", ratio(events, win_run), "ratio"},
        {"sim.executor.spins", total(&S::executorSpins), "count"},
        {"sim.executor.parks", total(&S::executorParks), "count"},
        {"fabric.wait_us_per_read", ratio(fab_wait, reads), "us"},
        {"fabric.messages", fab_msgs, "count"},
        {"fabric.busy_us", fab_busy, "us"},
        {"fabric.max_queue_depth", fab_maxq, "count"},
        {"host.timeouts", total(&S::hostTimeouts), "count"},
        {"host.retries", total(&S::hostRetries), "count"},
        {"host.failovers", total(&S::hostFailovers), "count"},
        {"host.uecc_reads", total(&S::ueccReads), "count"},
        {"host.failed_requests", total(&S::failedRequests), "count"},
        {"host.degraded_reads", total(&S::degradedReads), "count"},
        {"host.reconstruction_reads", total(&S::reconstructionReads),
         "count"},
        {"host.rebuild_reads", total(&S::rebuildReads), "count"},
        {"host.time_to_rebuild_ms", total(&S::timeToRebuildMs) / n_mech,
         "ms"},
    };
}

struct Options {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
    std::string workloadsDir;
    std::string spansPath;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "ssdrr_bench: %s\nusage: ssdrr_bench --workload NAME "
                 "--seed N --seconds S --trace 0|1 --workloads-dir DIR "
                 "[--spans FILE]\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        try {
            if (a == "--workload")
                o.workload = v;
            else if (a == "--seed")
                o.seed = std::stoull(v);
            else if (a == "--seconds")
                o.seconds = std::stod(v);
            else if (a == "--trace")
                o.trace = std::stoi(v);
            else if (a == "--workloads-dir")
                o.workloadsDir = v;
            else if (a == "--spans")
                o.spansPath = v;
            else
                usage(("unknown option " + a).c_str());
        } catch (const std::logic_error &) {
            usage(("bad value for " + a + ": " + v).c_str());
        }
    }
    if (o.workload.empty() || o.workloadsDir.empty())
        usage("--workload and --workloads-dir are required");
    if (o.trace != 0 && o.trace != 1)
        usage("--trace must be 0 or 1");
    if (!(o.seconds > 0.0))
        usage("--seconds must be > 0");
    return o;
}

std::string
readFile(const std::string &path)
{
    std::ifstream f(path);
    if (!f)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream ss;
    ss << f.rdbuf();
    return ss.str();
}

void
printRun(const char *what, const Pass &p)
{
    std::printf("%-8s setup %.4f s  wall %.4f s  cpu %.4f s ", what,
                p.setupS, p.wallS, p.cpuS);
    for (std::size_t m = 0; m < kMechs.size(); ++m)
        std::printf(" %s %.4f s", core::name(kMechs[m]), p.mech[m].runS);
    std::printf("\n");
}

int
realMain(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    const Workload *w = nullptr;
    for (const Workload &c : kWorkloads)
        if (opt.workload == c.name)
            w = &c;
    if (!w)
        usage(("unknown workload " + opt.workload).c_str());
    const std::string spec_text =
        readFile(opt.workloadsDir + "/" + w->name + ".json");
    Tracer tracer;
    Tracer *tr = opt.trace ? &tracer : nullptr;

    std::printf("workload %s, seed %" PRIu64 ", %.0f s, trace %d\n",
                w->name, opt.seed, opt.seconds, opt.trace);

    // Setup + pass iterations while the next one still fits in the
    // budget (at least two passes, so the repeat-digest check always
    // has something to compare). A traced run alternates untraced and
    // traced passes: the difference is the tracing overhead. The
    // reference kernel runs before the first iteration and after each
    // one, so iteration i runs between kernel runs i and i + 1.
    ReferenceKernel kernel;
    kernel.time(); // warm-up
    std::vector<double> kernel_s{kernel.time()};
    std::vector<Pass> passes, traced;
    std::vector<double> spec_load_s, gen_s;
    Setup first;
    const auto start = Clock::now();
    double longest = 0.0;
    while (passes.size() < 2 || traced.size() < (opt.trace ? 1u : 0u) ||
           secondsSince(start) + longest <= opt.seconds) {
        const auto it0 = Clock::now();
        const bool trace_this = opt.trace && passes.size() > traced.size();
        Tracer *t = trace_this ? tr : nullptr;
        Setup s = setUp(*w, spec_text, opt.seed, t);
        spec_load_s.push_back(s.specLoadS);
        gen_s.push_back(s.genS);
        Pass p = runPass(*w, s, t);
        p.setupS = s.total();
        p.iteration = kernel_s.size() - 1;
        kernel_s.push_back(kernel.time());
        printRun(trace_this ? "traced" : "pass", p);
        std::printf("kernel   %.4f s\n", kernel_s.back());
        (trace_this ? traced : passes).push_back(std::move(p));
        if (passes.size() + traced.size() == 1)
            first = std::move(s);
        longest = std::max(longest, secondsSince(it0));
    }
    // A pass's scale takes the median of the kernel runs from the one
    // before the previous iteration to the one after the next: a single
    // kernel run is short and sometimes spikes, while host-speed shifts
    // last far longer than three iterations.
    for (std::vector<Pass> *set : {&passes, &traced})
        for (Pass &p : *set) {
            const std::size_t lo = p.iteration > 0 ? p.iteration - 1 : 0;
            const std::size_t hi =
                std::min(p.iteration + 2, kernel_s.size() - 1);
            p.scale = kRefKernelS /
                      median({kernel_s.begin() + lo,
                              kernel_s.begin() + hi + 1});
        }
    // The kernel's table stays resident from before the first setup to
    // the end, so it adds exactly its own size to the peak.
    const double rss = peakRssMb() - ReferenceKernel::kTableMb;
    std::printf("reference kernel checksum %" PRIu64 "\n", kernel.sink());
    const Pass &ref = passes.front();

    // ---- correctness gate
    Checks chk;
    std::uint64_t attempted = 0, failed = 0;
    std::uint64_t submitted = 0, served = 0;
    for (const std::vector<Pass> *set : {&passes, &traced})
        for (const Pass &p : *set)
            for (std::size_t m = 0; m < kMechs.size(); ++m) {
                const Served sv = account(*w, first, p.mech[m], chk);
                attempted += sv.submitted;
                failed += sv.submitted - sv.ok;
                chk.require(p.mech[m].digest == ref.mech[m].digest,
                            std::string(core::name(kMechs[m])) +
                                " result digest changed between repeats");
                if (&p == &ref) {
                    submitted += sv.submitted;
                    served += sv.ok;
                }
            }
    const ssd::RunStats &base = ref.mech[0].st;
    const ssd::RunStats &pnar = ref.mech[1].st;
    chk.require(pnar.p50ReadResponseUs < base.p50ReadResponseUs,
                "PnAR2 p50 read latency not below Baseline");
    chk.require(pnar.p99ReadResponseUs < base.p99ReadResponseUs,
                "PnAR2 p99 read latency not below Baseline");

    for (std::size_t m = 0; m < kMechs.size(); ++m) {
        const ssd::RunStats &st = ref.mech[m].st;
        std::printf("%-8s reads %" PRIu64 " writes %" PRIu64
                    " p50 %.1f p99 %.1f p99.9 %.1f us  digest %016" PRIx64
                    "\n",
                    core::name(kMechs[m]), st.reads, st.writes,
                    st.p50ReadResponseUs, st.p99ReadResponseUs,
                    st.p999ReadResponseUs, ref.mech[m].digest);
    }

    std::vector<Metric> metrics;
    if (!opt.trace) {
        std::vector<double> rate, cpu, setup, raw_rate, scale;
        for (const Pass &p : passes) {
            double reads = 0.0;
            for (const MechRun &r : p.mech)
                reads += static_cast<double>(r.st.reads);
            rate.push_back(reads / (p.wallS * p.scale));
            cpu.push_back(p.cpuS * p.scale);
            setup.push_back(p.setupS * p.scale);
            raw_rate.push_back(reads / p.wallS);
            scale.push_back(p.scale);
        }
        std::printf("unscaled reads/host s %.1f, median scale %.4f\n",
                    median(raw_rate), median(scale));
        metrics = {
            {"reads_per_host_s", median(rate), "1/s"},
            {"cpu_s", median(cpu), "s"},
            {"setup_s", median(setup), "s"},
            {"peak_rss_mb", rss, "MB"},
            {"served_share",
             static_cast<double>(served) / static_cast<double>(submitted),
             "ratio"},
        };
        const std::pair<const char *, double ssd::RunStats::*> pcts[] = {
            {"p50", &ssd::RunStats::p50ReadResponseUs},
            {"p99", &ssd::RunStats::p99ReadResponseUs},
            {"p999", &ssd::RunStats::p999ReadResponseUs},
        };
        for (const auto &[pct, field] : pcts)
            for (std::size_t m = 0; m < kMechs.size(); ++m)
                metrics.push_back({std::string("sim_read_") + pct + "_us." +
                                       core::name(kMechs[m]),
                                   ref.mech[m].st.*field, "us"});
    } else {
        std::vector<double> untraced_wall, traced_wall;
        for (const Pass &p : passes)
            untraced_wall.push_back(p.wallS * p.scale);
        for (const Pass &p : traced)
            traced_wall.push_back(p.wallS * p.scale);
        metrics = layerMetrics(first, traced.front(), tr);
        metrics.insert(metrics.begin(),
                       {{"workload.gen_s", median(gen_s), "s"},
                        {"host.spec_load_s", median(spec_load_s), "s"}});
        metrics.push_back({"trace.overhead_s",
                           median(traced_wall) - median(untraced_wall), "s"});
        std::printf("%-34s %12s %12s\n", "span", "total[s]", "self[s]");
        for (const auto &[name, ts] : tracer.totals())
            std::printf("%-34s %12.6f %12.6f\n", name.c_str(), ts.first,
                        ts.second);
        if (!opt.spansPath.empty() && !tracer.write(opt.spansPath)) {
            std::fprintf(stderr, "cannot write %s\n",
                         opt.spansPath.c_str());
            chk.require(false, "span file written");
        }
    }
    for (const Metric &m : metrics)
        std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit);
    std::printf("%s\n", resultJson(chk.ok(), attempted, failed, metrics)
                            .c_str());
    std::fflush(stdout);
    return chk.ok() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return realMain(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "ssdrr_bench: %s\n", e.what());
        return 2;
    }
}
