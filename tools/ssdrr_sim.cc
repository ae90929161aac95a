/**
 * @file
 * ssdrr_sim — command-line driver for the SSD read-retry simulator.
 *
 * Runs one workload (a Table-2 synthetic spec by name, or an
 * MSR-Cambridge CSV file) against one or more mechanisms at a chosen
 * operating point, and prints a comparison table. This is the
 * day-to-day entry point for exploring configurations without
 * writing C++.
 *
 * Usage:
 *   ssdrr_sim [options]
 *     --workload NAME|PATH.csv   workload (default usr_1)
 *     --mechanisms A,B,...       comma list (default
 *                                Baseline,PR2,AR2,PnAR2,NoRR)
 *     --pec K                    kilo P/E cycles (default 1.0)
 *     --retention MONTHS         retention age (default 6.0)
 *     --temperature C            operating temperature (default 30)
 *     --requests N               synthetic trace length (default 2000)
 *     --iops RATE                override the spec's arrival rate
 *     --refresh MONTHS           read-reclaim threshold (default off)
 *     --no-suspension            disable program/erase suspension
 *     --paper-geometry           full 512-GiB-class SSD (slower)
 *     --seed N                   RNG seed (default 42)
 *     --profile                  print the trace profile and exit
 *     --list-workloads           print the Table-2 suite and exit
 *
 * Multi-tenant mode (host/array layer; enabled by --tenants):
 *     --tenants T                tenants, each on its own queue pair
 *     --queue-depth D            SQ depth / closed-loop QD (default 16)
 *     --arbitration rr|wrr       command-fetch arbitration (default rr;
 *                                wrr gives tenant i weight i+1; the
 *                                slo policy needs per-tenant sloUs
 *                                values, so it is scenario-file-only)
 *     --array N                  array of N drives
 *     --raid LEVEL               array layout: raid0 (striping,
 *                                default) or raid5 (rotating parity,
 *                                read-modify-write parity updates,
 *                                degraded-read reconstruction;
 *                                needs --array >= 3)
 *     --stripe-unit N            RAID-5 stripe-unit pages (default 1)
 *     --failed-drives A,B,...    failed member drives (RAID-5 serves
 *                                their data by reconstructing from
 *                                the surviving stripe mates)
 *     --open-loop                inject at trace arrival times instead
 *                                of closed-loop
 *     --host-link-us X           host dispatch/completion turnaround
 *                                in microseconds (default 0 =
 *                                instantaneous coupling on one shared
 *                                event queue; > 0 models the NVMe
 *                                doorbell/interrupt path and runs
 *                                drives on private event queues)
 *     --transfer-us-per-kb X     size-proportional link transfer cost
 *                                charged per host command on dispatch
 *                                and completion (default 0; sugar for
 *                                an implicit "xfer" filter)
 *     --cache-mb N               host-side DRAM read cache of N MiB
 *                                (a "cache" filter on the chain; hits
 *                                complete in DRAM latency without
 *                                touching the array)
 *     --readahead PAGES          prefetch PAGES pages beyond detected
 *                                sequential read streams (a
 *                                "readahead" filter, stacked above
 *                                the cache so prefetches fill it)
 *     --fault K=V,...            append a fault event to the run's
 *                                timeline (repeatable). Keys are the
 *                                scenario-file fields: type=failStop|
 *                                failSlow|uecc, drive=N, atUs=X, and
 *                                per-type untilUs=X, multiplier=X,
 *                                probability=X, rebuild=true|false,
 *                                rebuildRows=N
 *     --timeout-us X             per-subrequest deadline (scenario
 *                                host.timeoutUs; required by any
 *                                failStop fault)
 *     --fabric PRESET            storage-fabric preset between host
 *                                and drives (scenario "fabric"
 *                                object): "flat" = one direct link
 *                                per drive, "tree:SxD" = S switches
 *                                with D drives each (SxD must equal
 *                                --array). Mutually exclusive with
 *                                --host-link-us; adds a "fabric"
 *                                output row per mechanism
 *
 * Scenario files (declarative API v2; see README "Scenario files"
 * and docs/SCENARIOS.md):
 *     --scenario FILE.json       run a serialized ScenarioSpec; the
 *                                file defines geometry, mechanisms,
 *                                array shape, host options and
 *                                tenants (QoS, channel affinity,
 *                                time horizons)
 *     --dump-scenario            print the scenario the flags above
 *                                describe (or a canonicalized
 *                                --scenario file) as JSON and exit
 *
 * Compatibility (allowed with either mode; no effect):
 *     --threads N                accepted for compatibility; starts
 *                                no threads and never changes
 *                                results. Overrides a scenario
 *                                file's "threads" field, and like it
 *                                needs a positive host link
 *                                (--host-link-us or the scenario's
 *                                host.hostLinkUs) or a fabric for
 *                                any N but 1.
 *
 * A legacy multi-tenant invocation is sugar for a scenario: the
 * flags build a ScenarioSpec internally, so `--dump-scenario`'s JSON
 * rerun through `--scenario` produces bit-identical results.
 *
 * All flag-validation failures exit with status 2 and name the
 * offending flag.
 *
 * Perf trajectory:
 *     --bench-json PATH          also write a BENCH_sim_throughput
 *                                JSON (wall time, events/sec,
 *                                reads/sec and the deterministic
 *                                result digest, one entry per
 *                                mechanism) for the run
 */

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <limits>
#include <string>
#include <vector>

#include "fabric/topology.hh"
#include "host/scenario.hh"
#include "host/scenario_spec.hh"
#include "sim/bench_report.hh"
#include "ssd/ssd.hh"
#include "workload/export.hh"
#include "workload/msr_parser.hh"
#include "workload/suites.hh"
#include "workload/synthetic.hh"

using namespace ssdrr;

namespace {

struct Options {
    std::string workload = "usr_1";
    std::vector<std::string> mechanisms = {"Baseline", "PR2", "AR2",
                                           "PnAR2", "NoRR"};
    double pec = 1.0;
    double retention = 6.0;
    double temperature = 30.0;
    std::uint64_t requests = 2000;
    double iops = 0.0;
    double refresh = 0.0;
    bool suspension = true;
    bool paperGeometry = false;
    std::uint64_t seed = 42;
    bool profileOnly = false;
    std::uint32_t tenants = 0; ///< 0 = legacy single-replay mode
    std::uint32_t queueDepth = 16;
    std::string arbitration = "rr";
    std::uint32_t array = 1;
    std::string raid = "raid0";
    std::uint32_t stripeUnit = 1;
    std::vector<std::uint32_t> failedDrives;
    bool openLoop = false;
    double hostLinkUs = 0.0;
    double transferUsPerKb = 0.0;
    /** Fabric preset name ("flat", "tree:SxD"; "" = no fabric). */
    std::string fabricPreset;
    /** Host DRAM read cache in MiB (0 = no cache filter). */
    std::uint32_t cacheMb = 0;
    /** Readahead window in pages (0 = no readahead filter). */
    std::uint32_t readaheadPages = 0;
    /** Fault timeline from --fault flags (empty = faultless). */
    std::vector<host::FaultSpec> faults;
    /** Per-subrequest deadline in microseconds (0 = off). */
    double timeoutUs = 0.0;
    std::uint32_t threads = 1;
    bool threadsSet = false;
    /** Scenario-file mode (mutually exclusive with legacy flags). */
    std::string scenarioPath;
    bool dumpScenario = false;
    bool listWorkloads = false;
    /** Perf-trajectory JSON output path (empty = off). */
    std::string benchJson;
    /** Host-layer flags seen on the command line (for validation). */
    std::vector<std::string> hostFlags;
    /** Any legacy (non-scenario) flag seen, for --scenario checks. */
    std::vector<std::string> legacyFlags;
};

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--workload NAME|PATH.csv] "
                 "[--mechanisms A,B,...] [--pec K]\n"
                 "  [--retention MONTHS] [--temperature C] "
                 "[--requests N] [--iops RATE]\n"
                 "  [--refresh MONTHS] [--no-suspension] "
                 "[--paper-geometry] [--seed N] [--profile]\n"
                 "  [--tenants T] [--queue-depth D] "
                 "[--arbitration rr|wrr] [--array N] "
                 "[--open-loop]\n"
                 "  [--raid raid0|raid5] [--stripe-unit N] "
                 "[--failed-drives A,B,...]\n"
                 "  [--host-link-us X] [--transfer-us-per-kb X] "
                 "[--fabric flat|tree:SxD] [--threads N]\n"
                 "  [--cache-mb N] [--readahead PAGES] "
                 "[--fault K=V,...] [--timeout-us X]\n"
                 "  [--scenario FILE.json] [--dump-scenario] "
                 "[--list-workloads] [--bench-json PATH]\n",
                 argv0);
    std::exit(2);
}

/** Flag-validation failure: name the flag, explain, exit 2. */
[[noreturn]] void
flagError(const std::string &flag, const std::string &msg)
{
    std::fprintf(stderr, "ssdrr_sim: %s: %s\n", flag.c_str(),
                 msg.c_str());
    std::exit(2);
}

std::uint64_t
parseUint(const std::string &flag, const char *text)
{
    // strtoull accepts a sign and wraps negatives/overflow; both
    // must be rejected or they defeat every downstream range check.
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0' || text[0] == '-' ||
        errno == ERANGE)
        flagError(flag, std::string("expected a non-negative "
                                    "integer, got '") +
                            text + "'");
    return static_cast<std::uint64_t>(v);
}

std::uint32_t
parseUint32(const std::string &flag, const char *text)
{
    const std::uint64_t v = parseUint(flag, text);
    if (v > std::numeric_limits<std::uint32_t>::max())
        flagError(flag, std::string("value '") + text +
                            "' is out of range");
    return static_cast<std::uint32_t>(v);
}

double
parseDouble(const std::string &flag, const char *text)
{
    char *end = nullptr;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0' || !std::isfinite(v))
        flagError(flag,
                  std::string("expected a finite number, got '") +
                      text + "'");
    return v;
}

std::vector<std::string>
splitCommas(const std::string &s)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos < s.size()) {
        const std::size_t comma = s.find(',', pos);
        const std::size_t end = comma == std::string::npos ? s.size()
                                                           : comma;
        if (end > pos)
            out.push_back(s.substr(pos, end - pos));
        pos = end + 1;
    }
    return out;
}

/** Parse one --fault K=V,... value (keys = scenario-file fields). */
host::FaultSpec
parseFault(const std::string &flag, const char *text)
{
    host::FaultSpec f;
    for (const std::string &kv : splitCommas(text)) {
        const std::size_t eq = kv.find('=');
        if (eq == std::string::npos || eq == 0 ||
            eq + 1 == kv.size())
            flagError(flag,
                      "expected key=value, got '" + kv + "'");
        const std::string key = kv.substr(0, eq);
        const std::string val = kv.substr(eq + 1);
        if (key == "type") {
            f.type = val;
        } else if (key == "drive") {
            f.drive = parseUint32(flag, val.c_str());
        } else if (key == "atUs") {
            f.atUs = parseDouble(flag, val.c_str());
        } else if (key == "untilUs") {
            f.untilUs = parseDouble(flag, val.c_str());
        } else if (key == "multiplier") {
            f.multiplier = parseDouble(flag, val.c_str());
        } else if (key == "probability") {
            f.probability = parseDouble(flag, val.c_str());
        } else if (key == "rebuild") {
            if (val != "true" && val != "false")
                flagError(flag, "rebuild expects true or false, "
                                "got '" +
                                    val + "'");
            f.rebuild = val == "true";
        } else if (key == "rebuildRows") {
            f.rebuildRows = parseUint(flag, val.c_str());
        } else {
            flagError(flag, "unknown key '" + key +
                                "' (known: type, drive, atUs, "
                                "untilUs, multiplier, probability, "
                                "rebuild, rebuildRows)");
        }
    }
    return f;
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        auto legacy = [&] { opt.legacyFlags.push_back(arg); };
        if (arg == "--workload") {
            opt.workload = next();
            legacy();
        } else if (arg == "--mechanisms") {
            opt.mechanisms = splitCommas(next());
            legacy();
        } else if (arg == "--pec") {
            opt.pec = parseDouble(arg, next());
            legacy();
        } else if (arg == "--retention") {
            opt.retention = parseDouble(arg, next());
            legacy();
        } else if (arg == "--temperature") {
            opt.temperature = parseDouble(arg, next());
            legacy();
        } else if (arg == "--requests") {
            opt.requests = parseUint(arg, next());
            legacy();
        } else if (arg == "--iops") {
            opt.iops = parseDouble(arg, next());
            legacy();
        } else if (arg == "--refresh") {
            opt.refresh = parseDouble(arg, next());
            legacy();
        } else if (arg == "--no-suspension") {
            opt.suspension = false;
            legacy();
        } else if (arg == "--paper-geometry") {
            opt.paperGeometry = true;
            legacy();
        } else if (arg == "--seed") {
            opt.seed = parseUint(arg, next());
            legacy();
        } else if (arg == "--profile") {
            opt.profileOnly = true;
            legacy();
        } else if (arg == "--tenants") {
            opt.tenants =
                parseUint32(arg, next());
            legacy();
        } else if (arg == "--queue-depth") {
            opt.queueDepth =
                parseUint32(arg, next());
            opt.hostFlags.push_back(arg);
            legacy();
        } else if (arg == "--arbitration") {
            opt.arbitration = next();
            opt.hostFlags.push_back(arg);
            legacy();
        } else if (arg == "--array") {
            opt.array =
                parseUint32(arg, next());
            opt.hostFlags.push_back(arg);
            legacy();
        } else if (arg == "--raid") {
            opt.raid = next();
            opt.hostFlags.push_back(arg);
            legacy();
        } else if (arg == "--stripe-unit") {
            opt.stripeUnit = parseUint32(arg, next());
            opt.hostFlags.push_back(arg);
            legacy();
        } else if (arg == "--failed-drives") {
            opt.failedDrives.clear();
            for (const std::string &d : splitCommas(next()))
                opt.failedDrives.push_back(
                    parseUint32(arg, d.c_str()));
            opt.hostFlags.push_back(arg);
            legacy();
        } else if (arg == "--open-loop") {
            opt.openLoop = true;
            opt.hostFlags.push_back(arg);
            legacy();
        } else if (arg == "--transfer-us-per-kb") {
            opt.transferUsPerKb = parseDouble(arg, next());
            opt.hostFlags.push_back(arg);
            legacy();
        } else if (arg == "--host-link-us") {
            opt.hostLinkUs = parseDouble(arg, next());
            opt.hostFlags.push_back(arg);
            legacy();
        } else if (arg == "--fabric") {
            opt.fabricPreset = next();
            opt.hostFlags.push_back(arg);
            legacy();
        } else if (arg == "--cache-mb") {
            opt.cacheMb = parseUint32(arg, next());
            opt.hostFlags.push_back(arg);
            legacy();
        } else if (arg == "--readahead") {
            opt.readaheadPages = parseUint32(arg, next());
            opt.hostFlags.push_back(arg);
            legacy();
        } else if (arg == "--fault") {
            opt.faults.push_back(parseFault(arg, next()));
            opt.hostFlags.push_back(arg);
            legacy();
        } else if (arg == "--timeout-us") {
            opt.timeoutUs = parseDouble(arg, next());
            opt.hostFlags.push_back(arg);
            legacy();
        } else if (arg == "--threads") {
            // A compatibility knob, not a scenario property: legal
            // with --scenario too (it overrides the file's "threads")
            // and never changes simulation results.
            opt.threads = parseUint32(arg, next());
            opt.threadsSet = true;
        } else if (arg == "--scenario") {
            opt.scenarioPath = next();
        } else if (arg == "--dump-scenario") {
            opt.dumpScenario = true;
        } else if (arg == "--list-workloads") {
            opt.listWorkloads = true;
        } else if (arg == "--bench-json") {
            opt.benchJson = next();
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
        } else {
            std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
            usage(argv[0]);
        }
    }
    return opt;
}

/** Fold one mechanism's run into a perf-trajectory entry. */
sim::BenchRun
benchRunFrom(const std::string &name, const ssd::RunStats &st,
             double wall_seconds)
{
    sim::BenchRun run;
    run.name = name;
    run.wallSeconds = wall_seconds;
    run.executedEvents = st.executedEvents;
    run.reads = st.reads;
    run.writes = st.writes;
    run.retrySamples = st.retrySamples;
    run.avgRetrySteps = st.avgRetrySteps;
    run.suspensions = st.suspensions;
    run.gcCollections = st.gcCollections;
    run.readFailures = st.readFailures;
    run.refreshes = st.refreshes;
    run.simulatedMs = st.simulatedMs;
    run.p50ReadUs = st.p50ReadResponseUs;
    run.p99ReadUs = st.p99ReadResponseUs;
    run.p999ReadUs = st.p999ReadResponseUs;
    run.degradedReads = st.degradedReads;
    run.reconstructionReads = st.reconstructionReads;
    run.parityWrites = st.parityWrites;
    run.p99DegradedReadUs = st.p99DegradedReadUs;
    run.p999DegradedReadUs = st.p999DegradedReadUs;
    run.cacheHits = st.cacheHits;
    run.cacheMisses = st.cacheMisses;
    run.cacheEvictions = st.cacheEvictions;
    run.prefetchIssued = st.prefetchIssued;
    run.prefetchUseful = st.prefetchUseful;
    run.hostP99ReadUs = st.p99HostReadUs;
    run.hostTimeouts = st.hostTimeouts;
    run.hostRetries = st.hostRetries;
    run.hostFailovers = st.hostFailovers;
    run.ueccReads = st.ueccReads;
    run.failedRequests = st.failedRequests;
    run.rebuildReads = st.rebuildReads;
    run.timeToRebuildMs = st.timeToRebuildMs;
    run.avgFabricWaitUs = st.avgFabricWaitUs;
    run.windowsRun = st.executorWindowsRun;
    run.windowsSkipped = st.executorWindowsSkipped;
    for (const ssd::RunStats::FabricLinkStats &l : st.fabricLinks) {
        run.fabricBusyUs += l.busyUs;
        run.fabricBytes += l.bytesCarried;
        if (l.maxQueueDepth > run.fabricMaxQueueDepth)
            run.fabricMaxQueueDepth = l.maxQueueDepth;
    }
    if (wall_seconds > 0.0) {
        run.eventsPerSecond =
            static_cast<double>(st.executedEvents) / wall_seconds;
        run.readsPerSecond =
            static_cast<double>(st.reads) / wall_seconds;
    }
    return run;
}

/** Build the scenario a legacy multi-tenant invocation describes. */
host::ScenarioSpec
specFromFlags(const Options &opt)
{
    host::ScenarioSpec spec;
    spec.ssd.geometry = opt.paperGeometry ? "paper" : "small";
    spec.ssd.pecKilo = opt.pec;
    spec.ssd.retentionMonths = opt.retention;
    spec.ssd.temperatureC = opt.temperature;
    spec.ssd.refreshMonths = opt.refresh;
    spec.ssd.suspension = opt.suspension;
    spec.ssd.seed = opt.seed;
    spec.mechanisms = opt.mechanisms;
    spec.drives = opt.array;
    spec.raidLevel = opt.raid;
    spec.stripeUnitPages = opt.stripeUnit;
    spec.failedDrives = opt.failedDrives;
    spec.faults = opt.faults;
    spec.timeoutUs = opt.timeoutUs;
    spec.threads = opt.threads;
    spec.queueDepth = opt.queueDepth;
    spec.arbitration = opt.arbitration;
    spec.hostLinkUs = opt.hostLinkUs;
    spec.transferUsPerKb = opt.transferUsPerKb;
    if (!opt.fabricPreset.empty()) {
        try {
            spec.fabric =
                fabric::makePreset(opt.fabricPreset, opt.array);
        } catch (const fabric::TopologyError &e) {
            flagError("--fabric", e.what());
        }
    }
    // Readahead stacks above the cache (chain order = array order):
    // its prefetch completions travel up through the cache filter and
    // fill it, so the stream's next demand read hits in DRAM.
    if (opt.readaheadPages > 0) {
        host::filter::FilterSpec f;
        f.type = "readahead";
        f.windowPages = opt.readaheadPages;
        spec.filters.push_back(f);
    }
    if (opt.cacheMb > 0) {
        host::filter::FilterSpec f;
        f.type = "cache";
        f.sizeBytes = std::uint64_t{opt.cacheMb} << 20;
        spec.filters.push_back(f);
    }

    const bool wrr = opt.arbitration == "wrr";
    // Keep total work comparable to the single-replay mode: the
    // request budget is split across tenants.
    const std::uint64_t per_tenant =
        opt.requests / opt.tenants > 0 ? opt.requests / opt.tenants : 1;
    for (std::uint32_t t = 0; t < opt.tenants; ++t) {
        host::TenantSpec ts;
        ts.workload = opt.workload;
        ts.name = opt.workload + "#" + std::to_string(t);
        ts.requests = per_tenant;
        ts.iops = opt.iops;
        ts.mode = opt.openLoop ? host::InjectionMode::OpenLoop
                               : host::InjectionMode::ClosedLoop;
        ts.qdLimit = opt.queueDepth;
        ts.weight = wrr ? t + 1 : 1;
        spec.tenants.push_back(ts);
    }
    return spec;
}

/**
 * Host/array mode: run every mechanism of @p spec's sweep and print
 * the per-tenant comparison table. @p label names the bench-JSON
 * entry ("" = derive from the spec).
 */
int
runSpec(const host::ScenarioSpec &spec, const std::string &bench_json,
        const std::string &label)
{
    const host::TenantSpec &t0 = spec.tenants.front();
    bool homogeneous = true;
    for (const host::TenantSpec &ts : spec.tenants)
        if (ts.workload != t0.workload || ts.requests != t0.requests ||
            ts.mode != t0.mode)
            homogeneous = false;
    const std::uint32_t n_tenants =
        static_cast<std::uint32_t>(spec.tenants.size());
    const char *loop_name =
        t0.mode == host::InjectionMode::OpenLoop ? "open-loop"
                                                 : "closed-loop";
    if (homogeneous && host::looksLikeTracePath(t0.workload))
        std::printf("Multi-tenant: %u tenants splitting %s (%s), "
                    "QD %u, %s arbitration, %u-drive array\n",
                    n_tenants, t0.workload.c_str(), loop_name,
                    spec.queueDepth, spec.arbitration.c_str(),
                    spec.drives);
    else if (homogeneous)
        std::printf("Multi-tenant: %u tenants x %llu reqs (%s), "
                    "QD %u, %s arbitration, %u-drive array\n",
                    n_tenants,
                    static_cast<unsigned long long>(t0.requests),
                    loop_name, spec.queueDepth,
                    spec.arbitration.c_str(), spec.drives);
    else
        std::printf("Multi-tenant scenario%s%s: %u tenants, QD %u, "
                    "%s arbitration, %u-drive array\n",
                    spec.name.empty() ? "" : " ",
                    spec.name.c_str(), n_tenants, spec.queueDepth,
                    spec.arbitration.c_str(), spec.drives);
    std::printf("SSD: %s geometry per drive, %.1fK P/E, "
                "%.0f-month retention, %.0f C\n\n",
                spec.ssd.geometry.c_str(), spec.ssd.pecKilo,
                spec.ssd.retentionMonths, spec.ssd.temperatureC);
    std::printf("%-10s %-14s %3s %6s %10s %10s %10s %10s\n",
                "mechanism", "tenant", "w", "reqs", "avg[us]",
                "p50[us]", "p99[us]", "p99.9[us]");

    host::TraceCache trace_cache; // parse a CSV once for the sweep
    std::vector<sim::BenchRun> bench_runs;
    for (const std::string &mname : spec.mechanisms) {
        const core::Mechanism mech = core::parseMechanism(mname);
        const auto t0_wall = std::chrono::steady_clock::now();
        const host::ScenarioResult res =
            host::runScenario(spec, mech, &trace_cache);
        const double wall =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t0_wall)
                .count();
        bench_runs.push_back(benchRunFrom(mname, res.array, wall));
        for (std::size_t t = 0; t < res.tenants.size(); ++t) {
            const host::TenantStats &s = res.tenants[t];
            std::printf("%-10s %-14s %3u %6llu %10.1f %10.1f %10.1f "
                        "%10.1f\n",
                        mname.c_str(), s.name.c_str(),
                        spec.tenants[t].weight,
                        static_cast<unsigned long long>(s.completed),
                        s.avgUs, s.p50Us, s.p99Us, s.p999Us);
        }
        const ssd::RunStats &a = res.array;
        std::printf("%-10s %-14s %3s %6llu %10.1f %10.1f %10.1f "
                    "%10.1f\n",
                    mname.c_str(), "all(reads)", "-",
                    static_cast<unsigned long long>(a.reads),
                    a.avgReadResponseUs, a.p50ReadResponseUs,
                    a.p99ReadResponseUs, a.p999ReadResponseUs);
        // Degraded-mode accounting (RAID-5 with failed drives): the
        // per-class reconstruction tail next to the overall reads.
        if (a.degradedReads > 0)
            std::printf("%-10s %-14s %3s %6llu %10.1f %10.1f %10.1f "
                        "%10.1f\n",
                        mname.c_str(), "degraded(r)", "-",
                        static_cast<unsigned long long>(
                            a.degradedReads),
                        a.avgDegradedReadUs, a.p50DegradedReadUs,
                        a.p99DegradedReadUs, a.p999DegradedReadUs);
        // Host filter-chain accounting (host/filter/): the read
        // latency seen above the chain, plus per-filter counters.
        // All of this is zero — and silent — when the chain is empty.
        if (a.hostReads > 0)
            std::printf("%-10s %-14s %3s %6llu %10.1f %10.1f %10.1f "
                        "%10.1f\n",
                        mname.c_str(), "host(reads)", "-",
                        static_cast<unsigned long long>(a.hostReads),
                        a.avgHostReadUs, a.p50HostReadUs,
                        a.p99HostReadUs, a.p999HostReadUs);
        if (a.cacheHits + a.cacheMisses > 0)
            std::printf("%-10s %-14s     hits %llu/%llu (%.1f%%), "
                        "evictions %llu\n",
                        mname.c_str(), "cache",
                        static_cast<unsigned long long>(a.cacheHits),
                        static_cast<unsigned long long>(a.cacheHits +
                                                        a.cacheMisses),
                        100.0 * static_cast<double>(a.cacheHits) /
                            static_cast<double>(a.cacheHits +
                                                a.cacheMisses),
                        static_cast<unsigned long long>(
                            a.cacheEvictions));
        if (a.prefetchIssued > 0)
            std::printf("%-10s %-14s     issued %llu, useful %llu "
                        "(%.1f%%)\n",
                        mname.c_str(), "readahead",
                        static_cast<unsigned long long>(
                            a.prefetchIssued),
                        static_cast<unsigned long long>(
                            a.prefetchUseful),
                        100.0 *
                            static_cast<double>(a.prefetchUseful) /
                            static_cast<double>(a.prefetchIssued));
        if (a.splitRequests + a.coalescedRequests + a.delayedRequests +
                a.throttledRequests >
            0)
            std::printf("%-10s %-14s     split %llu, coalesced %llu, "
                        "delayed %llu, throttled %llu\n",
                        mname.c_str(), "shaping",
                        static_cast<unsigned long long>(
                            a.splitRequests),
                        static_cast<unsigned long long>(
                            a.coalescedRequests),
                        static_cast<unsigned long long>(
                            a.delayedRequests),
                        static_cast<unsigned long long>(
                            a.throttledRequests));
        // Fault-timeline accounting (sim/fault_injector.hh plus the
        // host's timeout/retry/failover machinery); all zero — and
        // silent — on a faultless run.
        if (a.hostTimeouts + a.hostRetries + a.hostFailovers +
                a.ueccReads + a.failedRequests >
            0)
            std::printf("%-10s %-14s     timeouts %llu, retries "
                        "%llu, failovers %llu, uecc %llu, "
                        "failed %llu\n",
                        mname.c_str(), "faults",
                        static_cast<unsigned long long>(
                            a.hostTimeouts),
                        static_cast<unsigned long long>(
                            a.hostRetries),
                        static_cast<unsigned long long>(
                            a.hostFailovers),
                        static_cast<unsigned long long>(a.ueccReads),
                        static_cast<unsigned long long>(
                            a.failedRequests));
        if (a.rebuildReads > 0)
            std::printf("%-10s %-14s     reads %llu, progress "
                        "%.1f%%, time-to-rebuild %.2f ms\n",
                        mname.c_str(), "rebuild",
                        static_cast<unsigned long long>(
                            a.rebuildReads),
                        100.0 * a.rebuildProgress,
                        a.timeToRebuildMs);
        // Storage-fabric accounting (fabric/): the per-read fabric
        // wait plus one row per link; empty — and silent — when the
        // scenario declares no fabric.
        if (!a.fabricLinks.empty()) {
            std::printf("%-10s %-14s     avg wait %.2f us/read\n",
                        mname.c_str(), "fabric", a.avgFabricWaitUs);
            for (const ssd::RunStats::FabricLinkStats &l :
                 a.fabricLinks)
                std::printf("%-10s   %-17s msgs %llu, KiB %llu, "
                            "busy %.1f us, maxQ %u\n",
                            mname.c_str(), l.link.c_str(),
                            static_cast<unsigned long long>(
                                l.messages),
                            static_cast<unsigned long long>(
                                l.bytesCarried >> 10),
                            l.busyUs, l.maxQueueDepth);
        }
    }
    if (!bench_json.empty()) {
        if (!sim::writeBenchJson(bench_json, label, bench_runs))
            return 1;
        std::printf("\nwrote %s\n", bench_json.c_str());
    }
    return 0;
}

/** Pre-validate legacy flags with their own names (exit 2). */
void
validateLegacyFlags(const Options &opt)
{
    for (const std::string &m : opt.mechanisms)
        if (!core::tryParseMechanism(m, nullptr))
            flagError("--mechanisms", "unknown mechanism '" + m + "'");
    if (opt.mechanisms.empty())
        flagError("--mechanisms", "needs at least one mechanism");
    if (!host::looksLikeTracePath(opt.workload) &&
        !workload::tryFindWorkload(opt.workload, nullptr))
        flagError("--workload", "unknown workload '" + opt.workload +
                                    "' (see --list-workloads, or "
                                    "name a .csv trace path)");
    if (opt.requests < 1)
        flagError("--requests", "needs at least 1 request");
    if (opt.pec < 0.0)
        flagError("--pec", "must be >= 0");
    if (opt.retention < 0.0)
        flagError("--retention", "must be >= 0");
    if (opt.refresh < 0.0)
        flagError("--refresh", "must be >= 0");
    if (opt.tenants > 0) {
        if (opt.profileOnly)
            flagError("--profile",
                      "not supported with --tenants (per-tenant "
                      "traces are generated inside the scenario); "
                      "drop --tenants to profile");
        if (opt.array < 1)
            flagError("--array", "needs at least 1 drive");
        if (opt.queueDepth < 1)
            flagError("--queue-depth", "needs at least 1");
        if (!host::tryParseArbitration(opt.arbitration, nullptr))
            flagError("--arbitration",
                      "unknown policy '" + opt.arbitration +
                          "' (expected rr or wrr)");
        if (opt.arbitration == "slo")
            // Legacy flags cannot express per-tenant SLOs, which the
            // policy requires; pointing at --scenario beats the
            // opaque "needs at least one tenant with sloUs" error.
            flagError("--arbitration",
                      "the slo policy needs per-tenant sloUs values, "
                      "which only scenario files express; use "
                      "--scenario (see README \"Scenario files\")");
        if (opt.iops > 0.0 && !opt.openLoop)
            // Closed-loop injection is completion-driven; trace
            // arrival times (and thus the requested rate) are never
            // consulted.
            flagError("--iops", "has no effect on closed-loop "
                                "tenants; add --open-loop");
        if (opt.iops < 0.0)
            flagError("--iops", "must be >= 0");
        if (!host::tryParseRaidLevel(opt.raid, nullptr))
            flagError("--raid", "unknown level '" + opt.raid +
                                    "' (expected raid0 or raid5)");
        if (opt.stripeUnit < 1)
            flagError("--stripe-unit", "needs at least 1 page");
        if (opt.hostLinkUs < 0.0)
            flagError("--host-link-us", "must be >= 0");
        if (opt.timeoutUs < 0.0)
            flagError("--timeout-us", "must be >= 0");
        if (opt.transferUsPerKb < 0.0)
            flagError("--transfer-us-per-kb", "must be >= 0");
        if (!opt.fabricPreset.empty() && opt.hostLinkUs > 0.0)
            flagError("--fabric",
                      "cannot be combined with --host-link-us (the "
                      "fabric's links replace the flat host link)");
        // Mirrors the spec's "threads" rule (ScenarioSpec::validate).
        if (opt.threads != 1 && opt.hostLinkUs <= 0.0 &&
            opt.fabricPreset.empty())
            flagError("--threads",
                      "accepted for compatibility (it starts no "
                      "threads), but values other than 1 need "
                      "--host-link-us > 0 or a --fabric");
    } else if (opt.threadsSet && opt.scenarioPath.empty()) {
        flagError("--threads", "requires --tenants or --scenario");
    } else if (!opt.hostFlags.empty()) {
        // Multi-tenant-only flags silently doing nothing would let a
        // single-replay run masquerade as an array experiment.
        flagError(opt.hostFlags.front(), "requires --tenants");
    }
}

int
realMain(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);

    if (opt.listWorkloads) {
        // The Table-2 suite: names scenario files and --workload use.
        std::printf("%-10s %6s %6s %8s %6s\n", "name", "read%",
                    "cold%", "iops", "theta");
        for (const workload::SyntheticSpec &s :
             workload::allWorkloads())
            std::printf("%-10s %6.0f %6.0f %8.0f %6.2f\n",
                        s.name.c_str(), 100.0 * s.readRatio,
                        100.0 * s.coldRatio, s.iops, s.zipfTheta);
        return 0;
    }

    if (!opt.scenarioPath.empty()) {
        if (!opt.legacyFlags.empty())
            flagError("--scenario",
                      "cannot be combined with " +
                          opt.legacyFlags.front() +
                          " (the scenario file defines the run)");
        host::ScenarioSpec spec;
        try {
            spec = host::ScenarioSpec::loadFile(opt.scenarioPath);
            if (opt.threadsSet) {
                spec.threads = opt.threads;
                spec.validate(); // threads != 1 still needs a link
            }
        } catch (const host::SpecError &e) {
            std::fprintf(stderr, "ssdrr_sim: --scenario: %s\n",
                         e.what());
            return 2;
        }
        if (opt.dumpScenario) {
            std::fputs(spec.toJsonText().c_str(), stdout);
            return 0;
        }
        const std::string label =
            "ssdrr_sim --scenario " + opt.scenarioPath;
        return runSpec(spec, opt.benchJson, label);
    }

    validateLegacyFlags(opt);

    if (opt.dumpScenario && opt.tenants == 0)
        flagError("--dump-scenario",
                  "requires --tenants or --scenario (single-replay "
                  "runs are not scenario-shaped)");

    if (opt.tenants > 0) {
        const host::ScenarioSpec spec = specFromFlags(opt);
        try {
            spec.validate();
        } catch (const host::SpecError &e) {
            std::fprintf(stderr, "ssdrr_sim: %s\n", e.what());
            return 2;
        }
        if (opt.dumpScenario) {
            std::fputs(spec.toJsonText().c_str(), stdout);
            return 0;
        }
        const std::string label =
            "ssdrr_sim --tenants " + std::to_string(opt.tenants) +
            " --array " + std::to_string(opt.array) + " (" +
            opt.workload + ")";
        return runSpec(spec, opt.benchJson, label);
    }

    ssd::Config cfg =
        opt.paperGeometry ? ssd::Config::paper() : ssd::Config::small();
    cfg.basePeKilo = opt.pec;
    cfg.baseRetentionMonths = opt.retention;
    cfg.temperatureC = opt.temperature;
    cfg.refreshThresholdMonths = opt.refresh;
    cfg.suspension = opt.suspension;
    cfg.seed = opt.seed;

    // Load or generate the workload.
    workload::Trace trace;
    if (host::looksLikeTracePath(opt.workload)) {
        workload::MsrParseOptions popt;
        popt.pageBytes = cfg.pageBytes;
        trace = workload::loadMsrTrace(opt.workload, popt);
        // Fold foreign LPNs into our logical space.
        std::vector<workload::TraceRecord> recs = trace.records();
        workload::Trace::foldIntoSpace(recs, cfg.logicalPages());
        trace = workload::Trace(trace.name(), std::move(recs));
    } else {
        workload::SyntheticSpec spec =
            workload::findWorkload(opt.workload);
        if (opt.iops > 0.0)
            spec.iops = opt.iops;
        trace = workload::generateSynthetic(spec, cfg.logicalPages(),
                                            opt.requests, opt.seed);
    }

    std::fputs(
        workload::formatProfile(workload::profileTrace(trace),
                                trace.name())
            .c_str(),
        stdout);
    if (opt.profileOnly)
        return 0;

    std::printf("\nSSD: %s geometry, %.1fK P/E, %.0f-month retention, "
                "%.0f C%s%s\n\n",
                opt.paperGeometry ? "paper" : "small", opt.pec,
                opt.retention, opt.temperature,
                opt.refresh > 0.0 ? ", refresh on" : "",
                opt.suspension ? "" : ", suspension off");
    std::printf("%-16s %10s %10s %10s %10s %10s %8s %9s %9s\n",
                "mechanism", "avg[us]", "read[us]", "p50r[us]",
                "p99[us]", "p99.9r[us]", "steps", "suspends",
                "refreshes");

    double baseline = 0.0;
    std::vector<sim::BenchRun> bench_runs;
    for (const std::string &name : opt.mechanisms) {
        const core::Mechanism mech = core::parseMechanism(name);
        ssd::Ssd ssd(cfg, mech);
        const auto t0 = std::chrono::steady_clock::now();
        const ssd::RunStats st = ssd.replay(trace);
        const double wall = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
        bench_runs.push_back(benchRunFrom(name, st, wall));
        if (baseline == 0.0)
            baseline = st.avgResponseUs;
        std::printf("%-16s %10.1f %10.1f %10.1f %10.1f %10.1f %8.2f "
                    "%9llu %9llu   (%+.1f%%)\n",
                    name.c_str(), st.avgResponseUs,
                    st.avgReadResponseUs, st.p50ReadResponseUs,
                    st.p99ResponseUs, st.p999ReadResponseUs,
                    st.avgRetrySteps,
                    static_cast<unsigned long long>(st.suspensions),
                    static_cast<unsigned long long>(st.refreshes),
                    100.0 * (st.avgResponseUs / baseline - 1.0));
    }
    if (!opt.benchJson.empty()) {
        const std::string label =
            "ssdrr_sim single-replay (" + opt.workload + ")";
        if (!sim::writeBenchJson(opt.benchJson, label, bench_runs))
            return 1;
        std::printf("\nwrote %s\n", opt.benchJson.c_str());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // Last-resort guard: no uncaught exception may escape as a raw
    // std::terminate — a scripted caller (CI, the bench harness)
    // gets a one-line diagnostic and the same exit code as every
    // other usage error.
    try {
        return realMain(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }
}
