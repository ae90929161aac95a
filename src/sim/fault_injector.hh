/**
 * @file
 * Deterministic fault-injection timeline.
 *
 * A FaultInjector owns a declared timeline of seeded fault events
 * and answers pure queries about it:
 *  - fail-stop: drive d stops completing at tick T (permanent),
 *  - fail-slow: drive d's completions stretch by a latency
 *    multiplier over a [at, until) window,
 *  - transient UECC: reads of drive d inside a [at, until) window
 *    complete uncorrectable with a seeded probability.
 *
 * Determinism contract: the injector holds no mutable state and no
 * sequential RNG. UECC draws hash (seed, drive, token) with a
 * splitmix64-style finalizer, so a draw depends only on its inputs —
 * never on how many draws other drives made before it. All queries
 * are made from the host domain (host/array.cc), which keeps replay
 * bit-identical: the same timeline and seed give the same faults,
 * and an empty timeline changes nothing at all.
 */

#ifndef SSDRR_SIM_FAULT_INJECTOR_HH
#define SSDRR_SIM_FAULT_INJECTOR_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace ssdrr::sim {

/** One declared fault on the timeline. */
struct FaultEvent {
    enum class Kind : std::uint8_t {
        FailStop, ///< drive stops completing at tick `at` (permanent)
        FailSlow, ///< completions stretch by `multiplier` in [at, until)
        Uecc,     ///< reads fail uncorrectable w.p. `probability` in
                  ///< [at, until)
    };

    Kind kind = Kind::FailStop;
    std::uint32_t drive = 0;
    Tick at = 0;
    /** Window end (exclusive) for FailSlow/Uecc; kTickNever means
     *  open-ended. Ignored by FailStop (always permanent). */
    Tick until = kTickNever;
    /** FailSlow: device-latency multiplier (> 1). */
    double multiplier = 1.0;
    /** Uecc: per-read probability in (0, 1]. */
    double probability = 0.0;
    /** FailStop: start a rebuild-to-spare when the host detects the
     *  failure. */
    bool rebuild = false;
    /** FailStop + rebuild: stripe rows to rebuild (bounds the
     *  modeled rebuild region; 0 = the whole array). */
    std::uint64_t rebuildRows = 0;
};

class FaultInjector
{
  public:
    /**
     * @param timeline declared fault events (any order)
     * @param seed array-level seed for UECC draws
     * @param drives member-drive count (events must name drives
     *               below it)
     */
    FaultInjector(std::vector<FaultEvent> timeline, std::uint64_t seed,
                  std::uint32_t drives);

    bool empty() const { return timeline_.empty(); }
    const std::vector<FaultEvent> &timeline() const { return timeline_; }

    /** Earliest fail-stop tick of @p drive (kTickNever if it never
     *  fail-stops). */
    Tick failStopTick(std::uint32_t drive) const
    {
        return fail_stop_[drive];
    }

    /** True when @p drive has stopped completing at tick @p t. */
    bool failStopped(std::uint32_t drive, Tick t) const
    {
        return t >= fail_stop_[drive];
    }

    /** True when any fail-stop event exists on the timeline. */
    bool anyFailStop() const { return any_fail_stop_; }

    /** Latency multiplier active on @p drive at tick @p t (>= 1;
     *  overlapping windows compound). */
    double slowdownAt(std::uint32_t drive, Tick t) const;

    /**
     * Seeded UECC draw: does a read of @p drive at tick @p t complete
     * uncorrectable? @p token must be unique per attempt (the
     * subrequest id) so retries re-draw; the result is a pure
     * function of (seed, drive, event, token).
     */
    bool ueccAt(std::uint32_t drive, Tick t, std::uint64_t token) const;

  private:
    std::vector<FaultEvent> timeline_;
    std::uint64_t seed_;
    /** Per-drive earliest fail-stop tick (kTickNever = none). */
    std::vector<Tick> fail_stop_;
    bool any_fail_stop_ = false;
};

} // namespace ssdrr::sim

#endif // SSDRR_SIM_FAULT_INJECTOR_HH
