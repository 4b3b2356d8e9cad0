#include "dram/physics.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.hh"

namespace utrr
{

double
RetentionModelConfig::tempScale() const
{
    // Retention roughly halves for every +10 C.
    return std::pow(2.0, (refTempCelsius - tempCelsius) / 10.0);
}

double
RowPhysics::minHammerThreshold() const
{
    if (hammerCells.empty())
        return std::numeric_limits<double>::infinity();
    return hammerCells.front().threshold;
}

PhysicsGenerator::PhysicsGenerator(RetentionModelConfig ret_cfg,
                                   HammerModelConfig ham_cfg,
                                   std::uint64_t module_seed, int row_bits)
    : retCfg(ret_cfg), hamCfg(ham_cfg), seed(module_seed), bits(row_bits)
{
    UTRR_ASSERT(bits > 0 && bits % 64 == 0, "row bits must be 64-aligned");
}

Rng
PhysicsGenerator::rowRng(Bank bank, Row phys_row) const
{
    const std::uint64_t stream =
        (static_cast<std::uint64_t>(bank) << 40) ^
        static_cast<std::uint64_t>(phys_row);
    return Rng(hashMix(seed ^ hashMix(stream)));
}

void
PhysicsGenerator::fillRetention(RowPhysics &phys, Rng &rng) const
{
    const double scale = retCfg.tempScale();
    const bool weak = rng.chance(retCfg.weakRowFraction);

    double base_ms;
    int cells;
    if (weak) {
        base_ms = std::clamp(
            retCfg.weakRetMedianMs *
                rng.logNormal(0.0, retCfg.weakRetSigma),
            retCfg.weakRetMinMs, retCfg.weakRetMaxMs);
        cells = static_cast<int>(
            rng.uniformInt(1, std::max(1, retCfg.maxWeakCellsPerRow)));
    } else {
        base_ms =
            rng.uniformReal(retCfg.strongRetMinMs, retCfg.strongRetMaxMs);
        cells = 1;
    }

    const bool has_vrt = weak && rng.chance(retCfg.vrtRowFraction);

    phys.weakCells.reserve(static_cast<std::size_t>(cells));
    for (int i = 0; i < cells; ++i) {
        WeakCell cell;
        cell.col = static_cast<Col>(rng.uniformInt(0, bits - 1));
        const double ms = i == 0
            ? base_ms
            : base_ms * (1.0 + retCfg.weakCellSpread * rng.uniform());
        cell.retention = msToNs(ms * scale);
        cell.chargedValue = rng.chance(0.5);
        // If the row has a VRT cell, it is the weakest one: that is the
        // case Row Scout's consistency check must catch.
        cell.vrt = has_vrt && i == 0;
        phys.weakCells.push_back(cell);
    }
    std::sort(phys.weakCells.begin(), phys.weakCells.end(),
              [](const WeakCell &a, const WeakCell &b) {
                  return a.retention < b.retention;
              });
}

double
PhysicsGenerator::drawHammerBase(Rng &rng) const
{
    // Per-row base threshold: the module's weakest rows flip at
    // HC_first per-aggressor ACTs of interleaved double-sided
    // hammering. With normal coupling the victim collects 2 units per
    // hammer pair (one from each side); in the paired organization it
    // couples to a single aggressor whose repeated ACTs carry the
    // repeat-discounted weight, so HC_first hammers deliver
    // ~0.5 * HC_first units.
    //
    // This single draw sits between the retention draws and the
    // hammer-cell draws, so generate() and generateRetention() consume
    // identical RNG prefixes and lazy hammer-cell attachment stays
    // bit-identical to eager generation.
    const double hc_units =
        (hamCfg.paired ? hamCfg.repeatWeight : 2.0) * hamCfg.hcFirst;
    return hc_units * (1.0 + std::abs(rng.gaussian(0.0, hamCfg.rowSigma)));
}

void
PhysicsGenerator::fillHammer(RowPhysics &phys, Rng &rng, double base) const
{
    // Hammer-vulnerable cells cluster in a limited set of words: the
    // paper observes up to 7 RowHammer bit flips within a single
    // 8-byte dataword (§7.4), which requires spatial locality of the
    // vulnerable cells.
    const int word_pool_size =
        std::max(1, hamCfg.cellsPerRow / 4);
    std::vector<int> word_pool;
    word_pool.reserve(static_cast<std::size_t>(word_pool_size));
    for (int i = 0; i < word_pool_size; ++i) {
        word_pool.push_back(
            static_cast<int>(rng.uniformInt(0, bits / 64 - 1)));
    }

    phys.hammerCells.reserve(static_cast<std::size_t>(hamCfg.cellsPerRow));
    for (int i = 0; i < hamCfg.cellsPerRow; ++i) {
        HammerCell cell;
        // Spread cell thresholds from the row base upward so that the
        // number of flips grows as accumulated charge exceeds the base.
        const double frac =
            static_cast<double>(i) /
            std::max(1, hamCfg.cellsPerRow - 1);
        const double jitter = 1.0 + 0.1 * rng.uniform();
        cell.threshold =
            base * (1.0 + hamCfg.cellSpreadMax * frac * frac) * jitter;
        const int word = word_pool[static_cast<std::size_t>(
            rng.uniformInt(0, word_pool_size - 1))];
        cell.col = static_cast<Col>(word) * 64 +
            static_cast<Col>(rng.uniformInt(0, 63));
        cell.chargedValue = rng.chance(0.5);
        phys.hammerCells.push_back(cell);
    }
    std::sort(phys.hammerCells.begin(), phys.hammerCells.end(),
              [](const HammerCell &a, const HammerCell &b) {
                  return a.threshold < b.threshold;
              });
}

RowPhysics
PhysicsGenerator::generate(Bank bank, Row phys_row) const
{
    RowPhysics phys;
    Rng rng = rowRng(bank, phys_row);
    fillRetention(phys, rng);
    phys.hammerBaseThreshold = drawHammerBase(rng);
    fillHammer(phys, rng, phys.hammerBaseThreshold);
    return phys;
}

RowPhysics
PhysicsGenerator::generateRetention(Bank bank, Row phys_row) const
{
    RowPhysics phys;
    Rng rng = rowRng(bank, phys_row);
    fillRetention(phys, rng);
    phys.hammerBaseThreshold = drawHammerBase(rng);
    return phys;
}

} // namespace utrr
