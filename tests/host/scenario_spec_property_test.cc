/**
 * @file
 * Property tests for the scenario-spec layer: a seeded generator
 * composes randomized valid ScenarioSpecs through ScenarioBuilder
 * (tenant mixes, filter chains, fault timelines, fabric presets,
 * every engine), and asserts the codec's core contracts over a few
 * hundred of them:
 *
 *  - round trip: spec -> JSON text -> spec is identity (operator==),
 *    and text -> spec -> text is a byte fixed point;
 *  - validate() accepts everything the builder can legally produce;
 *  - mutation: renaming any single key anywhere in the document
 *    makes the load fail with a SpecError that names the mutated
 *    key — no typo is silently absorbed as a default.
 *
 * Everything here is serialization and validation — no scenario ever
 * runs — so hundreds of iterations cost milliseconds.
 */

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "host/scenario_spec.hh"
#include "sim/json.hh"

namespace ssdrr {
namespace {

using sim::json::Value;

constexpr int kIterations = 256;

/** Uniform integer in [lo, hi] from the iteration's RNG. */
std::uint64_t
pick(std::mt19937_64 &rng, std::uint64_t lo, std::uint64_t hi)
{
    return lo + rng() % (hi - lo + 1);
}

bool
chance(std::mt19937_64 &rng, double p)
{
    return std::uniform_real_distribution<double>(0, 1)(rng) < p;
}

const char *const kWorkloads[] = {"usr_1", "stg_0", "YCSB-C",
                                  "seq_scan", "hm_0", "proj_1"};
const char *const kMechanisms[] = {"Baseline", "PR2", "AR2", "PnAR2",
                                   "NoRR"};

host::filter::FilterSpec
randomFilter(std::mt19937_64 &rng)
{
    host::filter::FilterSpec f;
    switch (pick(rng, 0, 5)) {
    case 0:
        f.type = "cache";
        f.sizeBytes = (1ull << 20) << pick(rng, 0, 6);
        f.eviction = chance(rng, 0.5) ? "lru" : "fifo";
        f.admission = chance(rng, 0.5) ? "reads" : "all";
        f.hitLatencyUs = 0.5 * pick(rng, 0, 10);
        break;
    case 1:
        f.type = "readahead";
        f.windowPages = static_cast<std::uint32_t>(pick(rng, 1, 64));
        f.streams = static_cast<std::uint32_t>(pick(rng, 1, 32));
        break;
    case 2:
        f.type = "split";
        f.maxPages = static_cast<std::uint32_t>(pick(rng, 1, 16));
        f.coalesceWindowUs = chance(rng, 0.5) ? 0.0 : 5.0;
        break;
    case 3:
        f.type = "delay";
        f.delayUs = 0.5 * pick(rng, 0, 20);
        f.applies = chance(rng, 0.5)
                        ? "all"
                        : (chance(rng, 0.5) ? "reads" : "writes");
        break;
    case 4:
        f.type = "throttle";
        f.rateIops = 1000.0 * pick(rng, 1, 50);
        f.burst = static_cast<double>(pick(rng, 0, 16));
        break;
    default:
        f.type = "xfer";
        f.usPerKb = 0.05 * pick(rng, 1, 20);
        break;
    }
    return f;
}

/**
 * One random valid spec. Every constraint validate() enforces is
 * honoured by construction (raid5 needs >= 3 drives, failStop needs
 * a timeout, threads != 1 needs a window, qdLimit <= queueDepth,
 * ...), so build() accepting the result IS the property under test.
 */
host::ScenarioSpec
randomSpec(std::mt19937_64 &rng)
{
    host::ScenarioBuilder b;
    b.name("prop-" + std::to_string(rng() % 100000));
    b.geometry("small");
    b.pec(0.25 * pick(rng, 0, 20));
    b.retention(0.5 * pick(rng, 0, 48));
    b.temperature(static_cast<double>(pick(rng, 0, 85)));
    if (chance(rng, 0.3))
        b.refresh(static_cast<double>(pick(rng, 1, 24)));
    b.suspension(chance(rng, 0.8));
    // JSON numbers carry integers exactly only up to 2^53 - 1.
    b.seed(rng() & ((1ull << 53) - 1));

    for (const char *m : kMechanisms)
        if (chance(rng, 0.4))
            b.mechanism(m); // build() defaults an empty pick

    const std::uint32_t drives =
        static_cast<std::uint32_t>(pick(rng, 1, 6));
    b.drives(drives);
    const bool raid5 = drives >= 3 && chance(rng, 0.4);
    std::vector<std::uint32_t> failed;
    if (raid5) {
        b.raid("raid5");
        b.stripeUnitPages(
            static_cast<std::uint32_t>(pick(rng, 1, 8)));
        if (chance(rng, 0.4)) {
            failed = {static_cast<std::uint32_t>(
                pick(rng, 0, drives - 1))};
            b.failedDrives(failed);
        }
    }

    // Engine: legacy shared queue, flat host link, or a fabric.
    const int engine = static_cast<int>(pick(rng, 0, 2));
    bool windowed = false;
    if (engine == 1) {
        b.hostLinkUs(0.5 * pick(rng, 1, 40));
        windowed = true;
    } else if (engine == 2 && !raid5) {
        // Presets: flat always fits; tree:SxD needs S*D == drives.
        if (drives % 2 == 0 && chance(rng, 0.5))
            b.fabricPreset("tree:2x" + std::to_string(drives / 2));
        else
            b.fabricPreset("flat");
        windowed = true;
    }
    if (windowed && chance(rng, 0.5))
        b.threads(static_cast<std::uint32_t>(pick(rng, 2, 4)));

    // Fault timeline: never on an already-failed drive, at most one
    // failStop (and it demands a host timeout to be detectable).
    const auto live_drive = [&] {
        std::uint32_t d;
        do
            d = static_cast<std::uint32_t>(pick(rng, 0, drives - 1));
        while (!failed.empty() && d == failed[0]);
        return d;
    };
    bool need_timeout = false;
    if (drives > 1 && chance(rng, 0.3)) {
        const double at = 100.0 * pick(rng, 0, 50);
        b.failSlow(live_drive(), at, at + 100.0 * pick(rng, 1, 50),
                   1.5 + pick(rng, 0, 10));
    }
    if (drives > 1 && chance(rng, 0.3)) {
        const double at = 100.0 * pick(rng, 0, 50);
        b.ueccFault(live_drive(), at, at + 100.0 * pick(rng, 1, 50),
                    0.01 * pick(rng, 1, 100));
    }
    if (chance(rng, 0.2)) {
        const bool rebuild = raid5 && failed.empty();
        b.failStop(live_drive(), 100.0 * pick(rng, 1, 50), rebuild,
                   rebuild ? pick(rng, 0, 64) : 0);
        need_timeout = true;
    }
    if (need_timeout || chance(rng, 0.3))
        b.timeoutUs(500.0 * pick(rng, 1, 10));
    if (chance(rng, 0.3))
        b.retryMax(static_cast<std::uint32_t>(pick(rng, 0, 16)));
    if (chance(rng, 0.3))
        b.retryBackoffUs(static_cast<double>(pick(rng, 0, 1000)));

    const std::uint32_t qd =
        static_cast<std::uint32_t>(pick(rng, 4, 32));
    b.queueDepth(qd);
    b.arbitration(chance(rng, 0.5) ? "rr" : "wrr");
    if (chance(rng, 0.3))
        b.maxDeviceInflight(
            static_cast<std::uint32_t>(pick(rng, 1, 8)));
    if (chance(rng, 0.3))
        b.transferUsPerKb(0.05 * pick(rng, 1, 10));

    const int nfilters = static_cast<int>(pick(rng, 0, 3));
    for (int i = 0; i < nfilters; ++i)
        b.addFilter(randomFilter(rng));

    const int ntenants = static_cast<int>(pick(rng, 1, 4));
    for (int t = 0; t < ntenants; ++t) {
        b.tenant("t" + std::to_string(t),
                 kWorkloads[pick(rng, 0, 5)], pick(rng, 1, 500));
        const bool open = chance(rng, 0.3);
        if (open) {
            b.openLoop();
            if (chance(rng, 0.5))
                b.iops(500.0 * pick(rng, 1, 20));
        }
        // A closed-loop window must fit its queue pair.
        b.qdLimit(static_cast<std::uint32_t>(
            open ? pick(rng, 1, 64) : pick(rng, 1, qd)));
        b.weight(static_cast<std::uint32_t>(pick(rng, 1, 5)));
        if (chance(rng, 0.3)) {
            b.rateIops(1000.0 * pick(rng, 1, 20));
            if (chance(rng, 0.5))
                b.burst(static_cast<double>(pick(rng, 1, 16)));
        }
    }
    return b.build();
}

TEST(ScenarioSpecProperty, RoundTripIsIdentityAndTextIsFixedPoint)
{
    std::mt19937_64 seed_rng(20260808);
    for (int i = 0; i < kIterations; ++i) {
        std::mt19937_64 rng(seed_rng());
        SCOPED_TRACE("iteration " + std::to_string(i));
        const host::ScenarioSpec spec = randomSpec(rng);
        // build() already ran validate(); it must also hold after a
        // round trip through text.
        const std::string text = spec.toJsonText();
        host::ScenarioSpec loaded;
        ASSERT_NO_THROW(loaded =
                            host::ScenarioSpec::fromJsonText(text))
            << text;
        EXPECT_TRUE(loaded == spec) << text;
        EXPECT_EQ(loaded.toJsonText(), text);
    }
}

/**
 * Collect every object key in the document (depth-first, member
 * order), so a mutation can target any of them uniformly.
 */
void
collectKeys(const Value &v, std::vector<const std::string *> &keys)
{
    if (v.isObject()) {
        for (const auto &[k, child] : v.members()) {
            keys.push_back(&k);
            collectKeys(child, keys);
        }
    } else if (v.isArray()) {
        for (const Value &e : v.elements())
            collectKeys(e, keys);
    }
}

TEST(ScenarioSpecProperty, RenamingAnyKeyIsRejectedNamingTheKey)
{
    std::mt19937_64 seed_rng(20260809);
    for (int i = 0; i < kIterations; ++i) {
        std::mt19937_64 rng(seed_rng());
        SCOPED_TRACE("iteration " + std::to_string(i));
        const host::ScenarioSpec spec = randomSpec(rng);
        std::string err;
        Value doc = sim::json::parse(spec.toJsonText(), &err);
        ASSERT_TRUE(err.empty()) << err;

        std::vector<const std::string *> keys;
        collectKeys(doc, keys);
        ASSERT_FALSE(keys.empty());
        // The pointers alias the document's own member keys, so the
        // rename mutates the tree in place.
        const std::string *slot =
            keys[pick(rng, 0, keys.size() - 1)];
        const std::string original = *slot;
        const_cast<std::string &>(*slot) = original + "Typo";

        const std::string mutated = doc.dump(2);
        try {
            (void)host::ScenarioSpec::fromJsonText(mutated);
            FAIL() << "renaming \"" << original
                   << "\" was silently accepted:\n"
                   << mutated;
        } catch (const host::SpecError &e) {
            // Either the unknown new key is named, or (when the
            // schema misses the original as a required field first)
            // the original is — both identify the mutated key, and
            // the mutated name contains the original by
            // construction.
            EXPECT_NE(std::string(e.what()).find(original),
                      std::string::npos)
                << "renamed \"" << original << "\" but got: "
                << e.what();
        }
    }
}

} // namespace
} // namespace ssdrr
