#include "sim/bench_report.hh"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "sim/logging.hh"

namespace ssdrr::sim {

namespace {

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
fixed3(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f", v);
    return buf;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

} // namespace

std::string
benchDigestText(const std::vector<BenchRun> &runs)
{
    std::ostringstream os;
    for (const BenchRun &r : runs) {
        os << r.name << " events=" << r.executedEvents
           << " reads=" << r.reads << " writes=" << r.writes
           << " retrySamples=" << r.retrySamples
           << " suspensions=" << r.suspensions
           << " gc=" << r.gcCollections
           << " readFailures=" << r.readFailures
           << " refreshes=" << r.refreshes
           << " simMs=" << fixed3(r.simulatedMs)
           << " avgRetrySteps=" << fixed3(r.avgRetrySteps)
           << " p50r=" << fixed3(r.p50ReadUs)
           << " p99r=" << fixed3(r.p99ReadUs)
           << " p999r=" << fixed3(r.p999ReadUs) << "\n";
    }
    return os.str();
}

std::uint64_t
benchDigest(const std::vector<BenchRun> &runs)
{
    return fnv1a(benchDigestText(runs));
}

bool
writeBenchJson(const std::string &path, const std::string &label,
               const std::vector<BenchRun> &runs)
{
    std::ofstream f(path);
    if (!f) {
        SSDRR_WARN("cannot write bench JSON to ", path);
        return false;
    }
    char digest[32];
    std::snprintf(digest, sizeof(digest), "%016" PRIx64,
                  benchDigest(runs));
    f << "{\n";
    f << "  \"bench\": \"sim_throughput\",\n";
    f << "  \"scenario\": \"" << jsonEscape(label) << "\",\n";
    f << "  \"digest\": \"" << digest << "\",\n";
    f << "  \"runs\": [\n";
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const BenchRun &r = runs[i];
        f << "    {\n";
        f << "      \"name\": \"" << jsonEscape(r.name) << "\",\n";
        f << "      \"wall_seconds\": " << fixed3(r.wallSeconds) << ",\n";
        f << "      \"events_per_second\": " << fixed3(r.eventsPerSecond)
          << ",\n";
        f << "      \"reads_per_second\": " << fixed3(r.readsPerSecond)
          << ",\n";
        f << "      \"executed_events\": " << r.executedEvents << ",\n";
        f << "      \"reads\": " << r.reads << ",\n";
        f << "      \"writes\": " << r.writes << ",\n";
        f << "      \"retry_samples\": " << r.retrySamples << ",\n";
        f << "      \"avg_retry_steps\": " << fixed3(r.avgRetrySteps)
          << ",\n";
        f << "      \"suspensions\": " << r.suspensions << ",\n";
        f << "      \"gc_collections\": " << r.gcCollections << ",\n";
        f << "      \"read_failures\": " << r.readFailures << ",\n";
        f << "      \"refreshes\": " << r.refreshes << ",\n";
        f << "      \"simulated_ms\": " << fixed3(r.simulatedMs) << ",\n";
        f << "      \"p50_read_us\": " << fixed3(r.p50ReadUs) << ",\n";
        f << "      \"p99_read_us\": " << fixed3(r.p99ReadUs) << ",\n";
        f << "      \"p999_read_us\": " << fixed3(r.p999ReadUs) << ",\n";
        f << "      \"degraded_reads\": " << r.degradedReads << ",\n";
        f << "      \"reconstruction_reads\": "
          << r.reconstructionReads << ",\n";
        f << "      \"parity_writes\": " << r.parityWrites << ",\n";
        f << "      \"p99_degraded_read_us\": "
          << fixed3(r.p99DegradedReadUs) << ",\n";
        f << "      \"p999_degraded_read_us\": "
          << fixed3(r.p999DegradedReadUs) << ",\n";
        f << "      \"cache_hits\": " << r.cacheHits << ",\n";
        f << "      \"cache_misses\": " << r.cacheMisses << ",\n";
        f << "      \"cache_evictions\": " << r.cacheEvictions
          << ",\n";
        f << "      \"prefetch_issued\": " << r.prefetchIssued
          << ",\n";
        f << "      \"prefetch_useful\": " << r.prefetchUseful
          << ",\n";
        f << "      \"host_p99_read_us\": " << fixed3(r.hostP99ReadUs)
          << ",\n";
        f << "      \"host_timeouts\": " << r.hostTimeouts << ",\n";
        f << "      \"host_retries\": " << r.hostRetries << ",\n";
        f << "      \"host_failovers\": " << r.hostFailovers << ",\n";
        f << "      \"uecc_reads\": " << r.ueccReads << ",\n";
        f << "      \"failed_requests\": " << r.failedRequests << ",\n";
        f << "      \"rebuild_reads\": " << r.rebuildReads << ",\n";
        f << "      \"time_to_rebuild_ms\": "
          << fixed3(r.timeToRebuildMs) << ",\n";
        f << "      \"avg_fabric_wait_us\": "
          << fixed3(r.avgFabricWaitUs) << ",\n";
        f << "      \"fabric_busy_us\": " << fixed3(r.fabricBusyUs)
          << ",\n";
        f << "      \"fabric_bytes\": " << r.fabricBytes << ",\n";
        f << "      \"fabric_max_queue_depth\": "
          << r.fabricMaxQueueDepth << ",\n";
        f << "      \"windows_run\": " << r.windowsRun << ",\n";
        f << "      \"windows_skipped\": " << r.windowsSkipped << "\n";
        f << "    }" << (i + 1 < runs.size() ? "," : "") << "\n";
    }
    f << "  ]\n";
    f << "}\n";
    return static_cast<bool>(f);
}

int
checkBenchDigest(const std::string &golden_path,
                 const std::vector<BenchRun> &runs)
{
    std::ifstream f(golden_path);
    if (!f) {
        std::fprintf(stderr, "cannot read golden digest file %s\n",
                     golden_path.c_str());
        return 2;
    }
    std::string golden;
    f >> golden;
    char actual[32];
    std::snprintf(actual, sizeof(actual), "%016" PRIx64,
                  benchDigest(runs));
    if (golden == actual)
        return 0;
    std::fprintf(stderr,
                 "simulation-result digest mismatch:\n"
                 "  golden: %s (%s)\n"
                 "  actual: %s\n"
                 "results this digest covers:\n%s",
                 golden.c_str(), golden_path.c_str(), actual,
                 benchDigestText(runs).c_str());
    return 1;
}

bool
writeBenchGolden(const std::string &golden_path,
                 const std::vector<BenchRun> &runs)
{
    std::ofstream f(golden_path);
    if (!f) {
        SSDRR_WARN("cannot write golden digest to ", golden_path);
        return false;
    }
    char digest[32];
    std::snprintf(digest, sizeof(digest), "%016" PRIx64,
                  benchDigest(runs));
    f << digest << "\n\n"
      << "# FNV-1a over the canonical result serialization below.\n"
      << "# Regenerate with: bench_sim_throughput --short "
         "--update-golden <this file>\n\n"
      << benchDigestText(runs);
    return static_cast<bool>(f);
}

} // namespace ssdrr::sim
