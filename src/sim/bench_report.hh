/**
 * @file
 * Throughput-bench reporting: a JSON trajectory file and a stable
 * digest of the simulation results.
 *
 * Every perf run emits BENCH_sim_throughput.json so the repo keeps a
 * measured perf trajectory across PRs, and a digest of the
 * *deterministic* result fields (request/event counts, retry
 * statistics, latency percentiles) so CI can detect a simulation-
 * result change that sneaks in under a perf patch: perf work on the
 * kernel must never change what is simulated.
 */

#ifndef SSDRR_SIM_BENCH_REPORT_HH
#define SSDRR_SIM_BENCH_REPORT_HH

#include <cstdint>
#include <string>
#include <vector>

namespace ssdrr::sim {

/** One measured configuration (e.g. one mechanism) of a bench. */
struct BenchRun {
    std::string name;

    // ----- wall-clock measurements (excluded from the digest) -----
    double wallSeconds = 0.0;
    double eventsPerSecond = 0.0;
    double readsPerSecond = 0.0;

    // ----- deterministic simulation results (digested) -----
    std::uint64_t executedEvents = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t retrySamples = 0;
    std::uint64_t suspensions = 0;
    std::uint64_t gcCollections = 0;
    std::uint64_t readFailures = 0;
    std::uint64_t refreshes = 0;
    double simulatedMs = 0.0;
    double avgRetrySteps = 0.0;
    double p50ReadUs = 0.0;
    double p99ReadUs = 0.0;
    double p999ReadUs = 0.0;
    // ----- array-layout accounting (informational, not digested:
    // zero outside the RAID-5 sections, and the golden digest
    // predates them) -----
    std::uint64_t degradedReads = 0;
    std::uint64_t reconstructionReads = 0;
    std::uint64_t parityWrites = 0;
    double p99DegradedReadUs = 0.0;
    double p999DegradedReadUs = 0.0;
    // ----- host filter-chain accounting (informational, not
    // digested: zero outside the cached-workload sections, and the
    // golden digest predates the chain) -----
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    std::uint64_t cacheEvictions = 0;
    std::uint64_t prefetchIssued = 0;
    std::uint64_t prefetchUseful = 0;
    double hostP99ReadUs = 0.0;
    // ----- fault-timeline / robustness accounting (informational,
    // not digested: zero outside the fault sections, and the golden
    // digest predates the fault machinery) -----
    std::uint64_t hostTimeouts = 0;
    std::uint64_t hostRetries = 0;
    std::uint64_t hostFailovers = 0;
    std::uint64_t ueccReads = 0;
    std::uint64_t failedRequests = 0;
    std::uint64_t rebuildReads = 0;
    double timeToRebuildMs = 0.0;
    // ----- storage-fabric accounting (informational, not digested:
    // zero outside the fabric sections, and the golden digest
    // predates the fabric subsystem) -----
    double avgFabricWaitUs = 0.0;
    double fabricBusyUs = 0.0;
    std::uint64_t fabricBytes = 0;
    std::uint32_t fabricMaxQueueDepth = 0;
    // ----- window-executor accounting (informational, not
    // digested: zero on the legacy single-queue engine; deterministic,
    // but the golden digest predates the executor counters) -----
    std::uint64_t windowsRun = 0;
    std::uint64_t windowsSkipped = 0;
};

/**
 * FNV-1a digest over the runs' deterministic fields (doubles are
 * rounded to 1e-3 and serialized in fixed notation, so the digest is
 * stable against formatting but sensitive to any result change).
 */
std::uint64_t benchDigest(const std::vector<BenchRun> &runs);

/** Canonical serialization the digest is computed over (debugging). */
std::string benchDigestText(const std::vector<BenchRun> &runs);

/**
 * Write the JSON trajectory file. @p label names the scenario
 * ("multi_tenant_tail short" etc.).
 * @return false (with a warning) if the file cannot be written.
 */
bool writeBenchJson(const std::string &path, const std::string &label,
                    const std::vector<BenchRun> &runs);

/**
 * Compare the runs' digest against a golden digest file (first
 * whitespace-delimited token = hex digest; rest ignored).
 * @retval 0 match
 * @retval 1 mismatch (details on stderr)
 * @retval 2 golden file unreadable
 */
int checkBenchDigest(const std::string &golden_path,
                     const std::vector<BenchRun> &runs);

/** Write/overwrite the golden digest file (digest + breakdown). */
bool writeBenchGolden(const std::string &golden_path,
                      const std::vector<BenchRun> &runs);

} // namespace ssdrr::sim

#endif // SSDRR_SIM_BENCH_REPORT_HH
