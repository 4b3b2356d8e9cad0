#include "fault/fault_injector.hh"

#include "common/logging.hh"

namespace utrr
{

bool
FaultConfig::anyEnabled() const
{
    return vrtFlipChancePerRead > 0.0 || readNoiseChancePerRead > 0.0 ||
           refJitterChance > 0.0 || dropRefChance > 0.0 ||
           dropWrChance > 0.0 || dropHammerActChance > 0.0 ||
           tempStepIntervalNs > 0;
}

FaultConfig
FaultConfig::chaosDefaults()
{
    // Default chaos rates: frequent enough that a full reverse_engineer
    // run sees every fault class fire, rare enough that the self-healing
    // consumers (Row Scout re-validation, TRR Analyzer quorum voting and
    // retries) keep all 45 module identifications correct. Documented in
    // DESIGN.md; changing them requires re-running `reverse_engineer
    // --chaos`.
    FaultConfig cfg;
    cfg.vrtFlipChancePerRead = 3e-4;
    cfg.vrtScaleFactor = 3.0;
    cfg.readNoiseChancePerRead = 5e-4;
    cfg.readNoiseMaxBits = 2;
    cfg.refJitterChance = 0.02;
    cfg.refJitterMaxNs = 200;
    cfg.dropRefChance = 2e-4;
    cfg.dropWrChance = 1e-4;
    cfg.dropHammerActChance = 1e-4;
    // Temperature drift is deliberately gentle: U-TRR experiments run
    // under controlled temperature (the paper heats modules to a fixed
    // point), and the retention side channel itself — not just this
    // pipeline — breaks physically once retention moves past a
    // profiled row's margin within one experiment. Retention roughly
    // halves per 10 °C, so the ±0.5% ceiling here corresponds to the
    // sub-0.1 °C regulation a real retention testbed needs; larger
    // drift destroys the information (refreshed rows decay past their
    // threshold anyway), which no amount of self-healing can recover —
    // empirically, a ±2% walk makes most TRR fires on single-pair-row
    // vendor-C modules invisible for runs of 4-6 fires at a stretch.
    cfg.tempStepIntervalNs = msToNs(50);
    cfg.tempStepMaxFactor = 1.0002;
    cfg.tempMaxDrift = 1.005;
    return cfg;
}

FaultInjector::FaultInjector(const FaultConfig &config, std::uint64_t seed)
    : cfg(config)
{
    // Each hook draws from its own named sub-stream so the firing of one
    // fault class never shifts another's sequence (and none of them can
    // shift the substrate's streams).
    Rng base(seed);
    vrtRng = base.fork("fault.vrt");
    noiseRng = base.fork("fault.noise");
    jitterRng = base.fork("fault.jitter");
    dropRng = base.fork("fault.drop");
    tempRng = base.fork("fault.temp");
}

void
FaultInjector::traceFault(const char *what, Bank bank, Row row, Time now)
{
    if (trace != nullptr)
        trace->recordFault(what, bank, row, now);
}

bool
FaultInjector::shouldDropRef(Time now)
{
    if (!dropRng.chance(cfg.dropRefChance))
        return false;
    ++tallies.droppedRefs;
    if (ctrDroppedRefs != nullptr)
        ctrDroppedRefs->inc();
    traceFault("drop_ref", 0, kInvalidRow, now);
    return true;
}

bool
FaultInjector::shouldDropWr(Bank bank, Time now)
{
    if (!dropRng.chance(cfg.dropWrChance))
        return false;
    ++tallies.droppedWrs;
    if (ctrDroppedWrs != nullptr)
        ctrDroppedWrs->inc();
    traceFault("drop_wr", bank, kInvalidRow, now);
    return true;
}

bool
FaultInjector::shouldDropHammerAct(Bank bank, Row row, Time now)
{
    if (hammerActsBeforeDrop(1) != 0)
        return false;
    dropHammerAct(bank, row, now);
    return true;
}

std::int64_t
FaultInjector::hammerActsBeforeDrop(std::int64_t limit)
{
    const double p = cfg.dropHammerActChance;
    if (p <= 0.0)
        return limit; // chance() draws nothing at rate zero
    if (p >= 1.0)
        return limit > 0 ? 0 : limit; // nor at rate one: cycle 0 drops
    // chance(p)'s draws, each compared as an integer (Rng::chanceCut),
    // on a local copy of the stream.
    const std::uint64_t cut = Rng::chanceCut(p);
    Rng stream = dropRng;
    std::int64_t k = 0;
    while (k < limit && stream.next() >= cut)
        ++k;
    dropRng = stream;
    return k;
}

void
FaultInjector::dropHammerAct(Bank bank, Row row, Time now)
{
    ++tallies.droppedHammerActs;
    if (ctrDroppedHammerActs != nullptr)
        ctrDroppedHammerActs->inc();
    traceFault("drop_hammer_act", bank, row, now);
}

Time
FaultInjector::refJitter(Time now)
{
    if (!jitterRng.chance(cfg.refJitterChance))
        return 0;
    ++tallies.jitteredRefs;
    if (ctrJitteredRefs != nullptr)
        ctrJitteredRefs->inc();
    traceFault("ref_jitter", 0, kInvalidRow, now);
    return jitterRng.uniformInt(-cfg.refJitterMaxNs, cfg.refJitterMaxNs);
}

void
FaultInjector::onRowRead(DramModule &dram, Bank bank, Row phys_row,
                         Time now)
{
    if (!vrtRng.chance(cfg.vrtFlipChancePerRead))
        return;
    UTRR_ASSERT(cfg.vrtScaleFactor > 0.0,
                "VRT scale factor must be positive");
    const auto key = std::make_pair(bank, phys_row);
    const auto it = vrtFlipped.find(key);
    if (it == vrtFlipped.end()) {
        dram.scaleRowRetention(bank, phys_row, cfg.vrtScaleFactor, now);
        vrtFlipped.insert(key);
    } else {
        dram.scaleRowRetention(bank, phys_row, 1.0 / cfg.vrtScaleFactor,
                               now);
        vrtFlipped.erase(it);
    }
    ++tallies.vrtFlips;
    if (ctrVrtFlips != nullptr)
        ctrVrtFlips->inc();
    traceFault("vrt_flip", bank, phys_row, now);
}

void
FaultInjector::corruptReadout(RowReadout &readout, Bank bank, Time now)
{
    if (!noiseRng.chance(cfg.readNoiseChancePerRead))
        return;
    const int row_bits = readout.words() * 64;
    if (row_bits <= 0)
        return;
    const auto bits = static_cast<int>(noiseRng.uniformInt(
        1, cfg.readNoiseMaxBits < 1 ? 1 : cfg.readNoiseMaxBits));
    for (int i = 0; i < bits; ++i) {
        readout.injectFlip(
            static_cast<Col>(noiseRng.uniformInt(0, row_bits - 1)));
        ++tallies.noiseBits;
        if (ctrNoiseBits != nullptr)
            ctrNoiseBits->inc();
    }
    traceFault("read_noise", bank, kInvalidRow, now);
}

void
FaultInjector::onTimeAdvance(DramModule &dram, Time from, Time to)
{
    if (cfg.tempStepIntervalNs <= 0 || to <= from)
        return;
    tempAccum += to - from;
    while (tempAccum >= cfg.tempStepIntervalNs) {
        tempAccum -= cfg.tempStepIntervalNs;
        const double bound = cfg.tempStepMaxFactor;
        double step = tempRng.uniformReal(1.0 / bound, bound);
        // Clamp the cumulative walk so drift never outruns the T-step
        // granularity Row Scout profiles at.
        const double lo = 1.0 / cfg.tempMaxDrift;
        const double hi = cfg.tempMaxDrift;
        if (tempScale * step > hi)
            step = hi / tempScale;
        else if (tempScale * step < lo)
            step = lo / tempScale;
        tempScale *= step;
        dram.scaleAllRetention(step);
        ++tallies.tempSteps;
        if (ctrTempSteps != nullptr)
            ctrTempSteps->inc();
        if (gaugeTempScale != nullptr)
            gaugeTempScale->set(tempScale);
        traceFault("temp_step", 0, kInvalidRow, to);
    }
}

void
FaultInjector::attachMetrics(MetricsRegistry *registry)
{
    metrics = registry;
    if (registry == nullptr) {
        ctrVrtFlips = nullptr;
        ctrNoiseBits = nullptr;
        ctrJitteredRefs = nullptr;
        ctrDroppedRefs = nullptr;
        ctrDroppedWrs = nullptr;
        ctrDroppedHammerActs = nullptr;
        ctrTempSteps = nullptr;
        gaugeTempScale = nullptr;
        return;
    }
    ctrVrtFlips = &registry->counter("fault.vrt_flips");
    ctrNoiseBits = &registry->counter("fault.read_noise_bits");
    ctrJitteredRefs = &registry->counter("fault.jittered_refs");
    ctrDroppedRefs = &registry->counter("fault.dropped_refs");
    ctrDroppedWrs = &registry->counter("fault.dropped_wrs");
    ctrDroppedHammerActs =
        &registry->counter("fault.dropped_hammer_acts");
    ctrTempSteps = &registry->counter("fault.temp_steps");
    gaugeTempScale = &registry->gauge("fault.temp_scale");
    // Seed existing tallies so late attachment still reports totals.
    ctrVrtFlips->value = tallies.vrtFlips;
    ctrNoiseBits->value = tallies.noiseBits;
    ctrJitteredRefs->value = tallies.jitteredRefs;
    ctrDroppedRefs->value = tallies.droppedRefs;
    ctrDroppedWrs->value = tallies.droppedWrs;
    ctrDroppedHammerActs->value = tallies.droppedHammerActs;
    ctrTempSteps->value = tallies.tempSteps;
    gaugeTempScale->set(tempScale);
}

} // namespace utrr
