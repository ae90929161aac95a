#include "host/scenario.hh"

#include <algorithm>
#include <map>
#include <memory>
#include <utility>

#include "host/rebuild.hh"
#include "sim/logging.hh"
#include "workload/msr_parser.hh"
#include "workload/suites.hh"
#include "workload/synthetic.hh"

namespace ssdrr::host {

bool
looksLikeTracePath(const std::string &workload)
{
    return workload.find('/') != std::string::npos ||
           (workload.size() > 4 &&
            workload.substr(workload.size() - 4) == ".csv");
}

workload::Trace
makeTenantTrace(const TenantSpec &spec, std::uint64_t slice_pages,
                std::uint64_t base_lpn, std::uint32_t page_bytes,
                std::uint64_t seed, std::uint32_t subsample_count,
                std::uint32_t subsample_index, TraceCache *cache)
{
    SSDRR_ASSERT(slice_pages > 0, "empty LPN slice");
    std::vector<workload::TraceRecord> recs;
    std::string name = spec.name.empty() ? spec.workload : spec.name;

    if (looksLikeTracePath(spec.workload)) {
        workload::MsrParseOptions popt;
        popt.pageBytes = page_bytes;
        workload::Trace loaded;
        const workload::Trace *full = &loaded;
        if (cache) {
            const auto key = std::make_pair(spec.workload, page_bytes);
            auto it = cache->find(key);
            if (it == cache->end())
                it = cache
                         ->emplace(key, workload::loadMsrTrace(
                                            spec.workload, popt))
                         .first;
            full = &it->second;
        } else {
            loaded = workload::loadMsrTrace(spec.workload, popt);
        }
        for (std::size_t i = subsample_index; i < full->size();
             i += subsample_count)
            recs.push_back(full->records()[i]);
    } else {
        workload::SyntheticSpec sspec =
            workload::findWorkload(spec.workload);
        if (spec.iops > 0.0)
            sspec.iops = spec.iops;
        const workload::Trace gen = workload::generateSynthetic(
            sspec, slice_pages, spec.requests, seed);
        recs = gen.records();
    }

    // Fold into the slice and relocate to the tenant's base.
    workload::Trace::foldIntoSpace(recs, slice_pages);
    for (auto &r : recs)
        r.lpn += base_lpn;
    return workload::Trace(std::move(name), std::move(recs));
}

namespace {

/** Planes of one drive whose channel is allowed by @p mask. */
std::vector<std::uint32_t>
allowedPlanes(const ftl::AddressLayout &layout,
              std::uint32_t channel_mask)
{
    std::vector<std::uint32_t> planes;
    for (std::uint32_t p = 0; p < layout.totalPlanes(); ++p)
        if (channel_mask & (1u << layout.channelOfPlane(p)))
            planes.push_back(p);
    return planes;
}

/**
 * The lattice repeats every drives * totalPlanes global LPNs: over
 * one period, local LPNs walk the P planes in order, dwelling
 * @p drives consecutive global LPNs on each. @p first_period is the
 * first period boundary at or after base_lpn.
 */
struct Lattice {
    std::uint64_t period = 0;
    std::uint64_t firstPeriod = 0;
    std::uint64_t fullPeriods = 0;
    std::vector<std::uint32_t> planes; ///< allowed plane residues
};

Lattice
latticeOf(std::uint64_t base_lpn, std::uint64_t slice_pages,
          std::uint32_t drives, const ftl::AddressLayout &layout,
          std::uint32_t channel_mask)
{
    Lattice lat;
    lat.period =
        static_cast<std::uint64_t>(drives) * layout.totalPlanes();
    lat.firstPeriod =
        (base_lpn + lat.period - 1) / lat.period * lat.period;
    const std::uint64_t end = base_lpn + slice_pages;
    lat.fullPeriods = end > lat.firstPeriod
                          ? (end - lat.firstPeriod) / lat.period
                          : 0;
    lat.planes = allowedPlanes(layout, channel_mask);
    return lat;
}

} // namespace

std::uint64_t
channelLatticePages(std::uint64_t base_lpn, std::uint64_t slice_pages,
                    std::uint32_t drives,
                    const ftl::AddressLayout &layout,
                    std::uint32_t channel_mask)
{
    const Lattice lat = latticeOf(base_lpn, slice_pages, drives,
                                  layout, channel_mask);
    return lat.fullPeriods * lat.planes.size() * drives;
}

workload::Trace
applyChannelAffinity(const workload::Trace &trace,
                     std::uint64_t base_lpn, std::uint64_t slice_pages,
                     std::uint32_t drives,
                     const ftl::AddressLayout &layout,
                     std::uint32_t channel_mask)
{
    const Lattice lat = latticeOf(base_lpn, slice_pages, drives,
                                  layout, channel_mask);
    const std::uint64_t per_plane = drives; ///< contiguous span length
    const std::uint64_t per_period = lat.planes.size() * per_plane;
    const std::uint64_t pages = lat.fullPeriods * per_period;
    SSDRR_ASSERT(pages > 0, "channel mask ", channel_mask,
                 " leaves no preconditioned pages in slice [",
                 base_lpn, ", ", base_lpn + slice_pages, ")");

    std::vector<workload::TraceRecord> recs = trace.records();
    for (workload::TraceRecord &r : recs) {
        SSDRR_ASSERT(r.lpn < pages, "lattice trace LPN ", r.lpn,
                     " beyond lattice capacity ", pages);
        const std::uint64_t q = r.lpn / per_period;
        const std::uint64_t t = r.lpn % per_period;
        const std::uint64_t plane = lat.planes[t / per_plane];
        const std::uint64_t j = t % per_plane;
        r.lpn = lat.firstPeriod + q * lat.period + plane * per_plane +
                j;
        // A request must stay inside its contiguous span: the next
        // global LPN after the span lives on a different channel (or
        // another tenant's slice).
        r.pages = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(r.pages, per_plane - j));
    }
    return workload::Trace(trace.name(), std::move(recs));
}

ScenarioResult
runScenario(const ScenarioConfig &cfg)
{
    SSDRR_ASSERT(!cfg.tenants.empty(), "scenario needs tenants");
    SSDRR_ASSERT(cfg.hostLinkUs >= 0.0, "negative host link");
    SsdArray::Options aopt;
    aopt.drives = cfg.drives;
    aopt.raid = cfg.raid;
    aopt.stripeUnitPages = cfg.stripeUnitPages;
    aopt.failedDrives = cfg.failedDrives;
    aopt.hostLink = sim::usec(cfg.hostLinkUs);
    aopt.batchMailbox = cfg.batchMailbox;
    aopt.fabric = cfg.fabric;
    aopt.faults = cfg.faults;
    aopt.faultSeed = cfg.ssd.seed;
    aopt.timeout = sim::usec(cfg.timeoutUs);
    aopt.retryMax = cfg.retryMax;
    aopt.retryBackoff = sim::usec(cfg.retryBackoffUs);
    SsdArray array(cfg.ssd, cfg.mech, aopt);
    array.precondition();
    HostInterface::Options hopt = cfg.host;
    if (cfg.transferUsPerKb > 0.0) {
        // Spec-level sugar: the transfer knob becomes an implicit
        // xfer filter at the bottom of the chain (closest to the
        // array, below any cache — a DRAM hit pays no link cost).
        filter::FilterSpec x;
        x.type = "xfer";
        x.usPerKb = cfg.transferUsPerKb;
        hopt.filters.push_back(x);
    }
    HostInterface hif(array, std::move(hopt));

    const std::uint64_t slice =
        array.logicalPages() / cfg.tenants.size();
    const ftl::AddressLayout layout = cfg.ssd.layout();
    const std::uint32_t all_channels = (1u << cfg.ssd.channels) - 1;

    // CSV tenants naming the same file split its record stream
    // between them; synthetic tenants generate independent traces.
    // Sharing is per file: tenant i's subsample index is its rank
    // among the tenants replaying that particular file.
    std::map<std::string, std::uint32_t> csv_sharers;
    for (const TenantSpec &ts : cfg.tenants)
        if (looksLikeTracePath(ts.workload))
            ++csv_sharers[ts.workload];
    std::map<std::string, std::uint32_t> csv_rank;

    std::vector<std::unique_ptr<Tenant>> tenants;
    for (std::size_t i = 0; i < cfg.tenants.size(); ++i) {
        const TenantSpec &ts = cfg.tenants[i];
        std::uint32_t sub_count = 1;
        std::uint32_t sub_index = 0;
        if (looksLikeTracePath(ts.workload)) {
            sub_count = csv_sharers[ts.workload];
            sub_index = csv_rank[ts.workload]++;
        }
        // A mask naming every channel is no restriction at all;
        // normalize so such specs stay bit-identical with legacy
        // unmasked runs.
        const std::uint32_t mask =
            (ts.channelMask & all_channels) == all_channels
                ? 0
                : ts.channelMask;
        workload::Trace trace;
        if (mask != 0) {
            // Channel affinity: generate over the lattice of slice
            // pages preconditioned on allowed channels, then remap
            // onto their global LPNs. Writes carry the mask, so
            // rewritten pages stay on the subset too.
            const std::uint64_t lattice = channelLatticePages(
                i * slice, slice, cfg.drives, layout, mask);
            SSDRR_ASSERT(lattice > 0, "tenant ", i, ": channel mask ",
                         mask, " leaves no pages in its slice");
            trace = applyChannelAffinity(
                makeTenantTrace(ts, lattice, 0, cfg.ssd.pageBytes,
                                cfg.ssd.seed + 7919 * (i + 1),
                                sub_count, sub_index, cfg.traceCache),
                i * slice, slice, cfg.drives, layout, mask);
        } else {
            trace = makeTenantTrace(
                ts, slice, i * slice, cfg.ssd.pageBytes,
                cfg.ssd.seed + 7919 * (i + 1), sub_count, sub_index,
                cfg.traceCache);
        }
        TenantOptions topt;
        topt.mode = ts.mode;
        topt.qdLimit = ts.qdLimit;
        topt.weight = ts.weight;
        topt.rateIops = ts.rateIops;
        topt.burst = ts.burst;
        topt.sloUs = ts.sloUs;
        topt.channelMask = mask;
        topt.horizonUs = ts.horizonUs;
        std::string tname = trace.name();
        tenants.push_back(std::make_unique<Tenant>(
            std::move(tname), std::move(trace), topt, hif));
    }
    // Rebuild-to-spare: a fail-stop fault flagged `rebuild` starts a
    // background reconstruction tenant when the host detects the
    // failure. Its queue pair is created after the tenants' so
    // foreground qids stay 0..n-1.
    std::unique_ptr<RebuildAgent> rebuild;
    for (const sim::FaultEvent &e : cfg.faults) {
        if (e.kind == sim::FaultEvent::Kind::FailStop && e.rebuild) {
            RebuildAgent::Options ropt;
            ropt.rows = e.rebuildRows;
            rebuild = std::make_unique<RebuildAgent>(hif, ropt);
            break;
        }
    }
    if (rebuild) {
        RebuildAgent *agent = rebuild.get();
        array.onDriveFailed(
            [agent](std::uint32_t d) { agent->start(d); });
    }

    for (auto &t : tenants)
        t->start();
    array.drain();

    ScenarioResult res;
    for (auto &t : tenants)
        res.tenants.push_back(t->stats());
    res.array = array.stats();
    if (rebuild)
        rebuild->collectStats(res.array);
    hif.collectFilterStats(res.array);
    for (std::uint32_t q = 0; q < hif.queuePairs(); ++q)
        res.fetchedPerQueue.push_back(hif.queuePair(q).totalFetched());
    return res;
}

} // namespace ssdrr::host
