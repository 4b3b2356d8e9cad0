/**
 * @file
 * Seeded fault-injection layer perturbing the simulated substrate
 * through well-defined hooks:
 *
 *  - mid-experiment VRT mode flips on rows the host reads (a profiled
 *    row's retention jumps by the VRT factor after Row Scout accepted
 *    it),
 *  - slow retention drift of the whole module (temperature walk),
 *  - sporadic read-back bit noise (bus corruption, not stored-state
 *    change),
 *  - REF-interval jitter when refreshing at the default rate,
 *  - dropped DDR commands at the host/module boundary (REF, WR, and
 *    hammer ACT+PRE cycles; the command occupies the bus but the module
 *    ignores it).
 *
 * The injector draws exclusively from its own *named* RNG sub-streams
 * (Rng::fork(name)), so attaching an injector with every rate at zero
 * is bit-identical to not attaching one at all — the invariant the
 * determinism tests pin down. All fault events are counted, exported to
 * an attached MetricsRegistry under "fault.*", and recorded in the
 * host's command trace as instant FAULT events.
 */

#ifndef UTRR_FAULT_FAULT_INJECTOR_HH
#define UTRR_FAULT_FAULT_INJECTOR_HH

#include <cstdint>
#include <set>
#include <utility>

#include "common/rng.hh"
#include "common/types.hh"
#include "dram/module.hh"
#include "dram/row.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace utrr
{

/**
 * Per-hook fault rates. Every rate defaults to zero (= hook disabled);
 * chaosDefaults() returns the documented rates under which the full
 * 45-module identification must still succeed (EXPERIMENTS.md).
 */
struct FaultConfig
{
    /** Chance per host RD that the read row's VRT mode flips. */
    double vrtFlipChancePerRead = 0.0;
    /** Retention multiplier applied on a VRT mode flip (toggles). */
    double vrtScaleFactor = 3.0;

    /** Chance per host RD that the readout is corrupted on the bus. */
    double readNoiseChancePerRead = 0.0;
    /** Max corrupted bits per noisy readout (uniform in [1, max]). */
    int readNoiseMaxBits = 2;

    /** Chance per default-rate REF interval of timing jitter. */
    double refJitterChance = 0.0;
    /** Jitter magnitude bound (ns, uniform in [-max, +max]). */
    Time refJitterMaxNs = 200;

    /** Chance a REF command is ignored by the module. */
    double dropRefChance = 0.0;
    /** Chance a WR burst is ignored by the module. */
    double dropWrChance = 0.0;
    /** Chance one hammer ACT+PRE cycle is ignored by the module. */
    double dropHammerActChance = 0.0;

    /** Simulated time between temperature-drift steps (0 disables). */
    Time tempStepIntervalNs = 0;
    /** Per-step retention-scale bound (step uniform in [1/b, b]). */
    double tempStepMaxFactor = 1.002;
    /** Cumulative drift clamp: scale stays in [1/c, c]. */
    double tempMaxDrift = 1.05;

    /** Any hook active? Consumers gate behaviour changes on this. */
    bool anyEnabled() const;

    /** Documented default chaos rates (DESIGN.md). */
    static FaultConfig chaosDefaults();
};

/**
 * The injector. Attach to a SoftMcHost (not owned); the host consults
 * it on every REF/WR/RD, hammer cycle, and bulk time advance.
 */
class FaultInjector
{
  public:
    /** Fault-event tallies (mirrored into "fault.*" counters). */
    struct Stats
    {
        std::uint64_t vrtFlips = 0;
        std::uint64_t noiseBits = 0;
        std::uint64_t jitteredRefs = 0;
        std::uint64_t droppedRefs = 0;
        std::uint64_t droppedWrs = 0;
        std::uint64_t droppedHammerActs = 0;
        std::uint64_t tempSteps = 0;

        std::uint64_t droppedCommands() const
        {
            return droppedRefs + droppedWrs + droppedHammerActs;
        }
    };

    FaultInjector(const FaultConfig &config, std::uint64_t seed);

    const FaultConfig &config() const { return cfg; }

    /** True iff any hook can fire (rate-0 injectors are inert). */
    bool enabled() const { return cfg.anyEnabled(); }

    // --- host hooks ----------------------------------------------------

    /** Should this REF command be dropped? */
    bool shouldDropRef(Time now);

    /** Should this WR burst be dropped? */
    bool shouldDropWr(Bank bank, Time now);

    /** Should this hammer ACT+PRE cycle be dropped? */
    bool shouldDropHammerAct(Bank bank, Row row, Time now);

    /** Signed jitter (ns) to add to one default-rate REF interval. */
    Time refJitter(Time now);

    /**
     * Called when the host reads physical row @p phys_row of @p bank:
     * may flip the row's VRT mode (toggling its retention scale by the
     * configured factor).
     */
    void onRowRead(DramModule &dram, Bank bank, Row phys_row, Time now);

    /** May inject bit noise into a readout (bus corruption). */
    void corruptReadout(RowReadout &readout, Bank bank, Time now);

    /**
     * Called after bulk time advances (wait / waitWithRefresh /
     * refAtDefaultRate): walks the module-wide retention scale one
     * temperature step per elapsed interval.
     */
    void onTimeAdvance(DramModule &dram, Time from, Time to);

    // --- observability -------------------------------------------------

    const Stats &stats() const { return tallies; }

    /** Rows whose VRT mode is currently flipped high. */
    std::size_t vrtFlippedRowCount() const { return vrtFlipped.size(); }

    /** Cumulative temperature-drift retention scale (1.0 = nominal). */
    double temperatureScale() const { return tempScale; }

    /**
     * Attach a metrics registry (not owned; nullptr detaches). Fault
     * events land as "fault.vrt_flips", "fault.read_noise_bits",
     * "fault.jittered_refs", "fault.dropped_refs", "fault.dropped_wrs",
     * "fault.dropped_hammer_acts", "fault.temp_steps".
     */
    void attachMetrics(MetricsRegistry *registry);

    /**
     * Attach a command trace (not owned; nullptr detaches). Every fired
     * fault is recorded as an instant FAULT event ("drop_ref",
     * "vrt_flip", "read_noise", "ref_jitter", "temp_step", ...).
     */
    void attachTrace(CommandTrace *command_trace) { trace = command_trace; }

  private:
    void traceFault(const char *what, Bank bank, Row row, Time now);

    FaultConfig cfg;
    Rng vrtRng;
    Rng noiseRng;
    Rng jitterRng;
    Rng dropRng;
    Rng tempRng;

    /** (bank, physical row) pairs currently scaled by vrtScaleFactor. */
    std::set<std::pair<Bank, Row>> vrtFlipped;
    double tempScale = 1.0;
    Time tempAccum = 0;

    Stats tallies;

    MetricsRegistry *metrics = nullptr;
    CommandTrace *trace = nullptr;
    Counter *ctrVrtFlips = nullptr;
    Counter *ctrNoiseBits = nullptr;
    Counter *ctrJitteredRefs = nullptr;
    Counter *ctrDroppedRefs = nullptr;
    Counter *ctrDroppedWrs = nullptr;
    Counter *ctrDroppedHammerActs = nullptr;
    Counter *ctrTempSteps = nullptr;
    Gauge *gaugeTempScale = nullptr;
};

} // namespace utrr

#endif // UTRR_FAULT_FAULT_INJECTOR_HH
