/**
 * @file
 * SSD configuration (paper Section 7.1).
 *
 * The paper simulates a 512-GiB SSD: 4 channels, 4 dies/channel,
 * 2 planes/die, 1,888 blocks/plane, 576 pages/block, 16-KiB pages,
 * with Table 1 timing, a 72 b / 1 KiB ECC engine (tECC = 20 us) and
 * a 1 Gb/s channel (tDMA = 16 us).
 */

#ifndef SSDRR_SSD_CONFIG_HH
#define SSDRR_SSD_CONFIG_HH

#include <cstdint>

#include "ftl/address.hh"
#include "nand/timing.hh"
#include "nand/types.hh"

namespace ssdrr::ssd {

struct Config {
    std::uint32_t channels = 4;
    std::uint32_t diesPerChannel = 4;
    std::uint32_t planesPerDie = 2;
    std::uint32_t blocksPerPlane = 1888;
    std::uint32_t pagesPerBlock = 576;
    std::uint32_t pageBytes = 16 * 1024;

    nand::TimingParams timing;

    /** Correctable errors per 1-KiB codeword. */
    double eccCapability = 72.0;

    /** Ambient temperature at which the SSD operates. */
    double temperatureC = 30.0;

    /** Preconditioned wear in kilo-P/E-cycles (evaluation knob). */
    double basePeKilo = 0.0;
    /** Preconditioned retention age in months (evaluation knob). */
    double baseRetentionMonths = 0.0;

    /** Fraction of physical pages exported as logical capacity. */
    double userFraction = 0.88;
    /** Free blocks per plane below which GC kicks in. */
    std::size_t gcThreshold = 4;
    /** Program/erase suspension for reads (Baseline feature [50,91]). */
    bool suspension = true;

    /**
     * Read-reclaim refresh threshold in months (0 = off): after a
     * host read of a page whose retention age is at or above the
     * threshold, the controller rewrites the page to reset its
     * retention age. Models the refresh-based read-retry mitigation
     * the paper compares against in Section 9 [14, 15, 28]; it
     * trades write bandwidth and wear for fewer retry steps.
     */
    double refreshThresholdMonths = 0.0;

    /**
     * Slot count of a nand::PageProfileCache. The drive no longer
     * has one (each read computes its page profile directly); this
     * is read only by perfbench's isolated layer replay, which sizes
     * its cache from it.
     */
    std::size_t profileCacheSlots = 1 << 14;

    std::uint64_t seed = 42;

    /** Full-size configuration from the paper. */
    static Config paper() { return Config{}; }

    /**
     * Down-scaled SSD (same channel/die/plane parallelism, fewer
     * blocks) for fast tests and benches; logical working sets scale
     * with it.
     */
    static Config small();

    ftl::AddressLayout layout() const;
    nand::Geometry chipGeometry() const;
    std::uint64_t totalPages() const;
    std::uint64_t logicalPages() const;
    std::uint32_t totalDies() const { return channels * diesPerChannel; }

    void validate() const;
};

} // namespace ssdrr::ssd

#endif // SSDRR_SSD_CONFIG_HH
