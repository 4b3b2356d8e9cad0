#include "core/mapping_reveng.hh"

#include <algorithm>
#include <array>

#include "common/logging.hh"

namespace utrr
{

DiscoveredMapping::DiscoveredMapping(RowScramble scheme, Row rows,
                                     std::set<Row> anomalies)
    : scrambleScheme(scheme), rowCount(rows),
      anomalousRows(std::move(anomalies))
{
}

DiscoveredMapping
DiscoveredMapping::identity(Row rows)
{
    return DiscoveredMapping(RowScramble::kSequential, rows);
}

Row
DiscoveredMapping::toPhysical(Row logical) const
{
    return applyScramble(scrambleScheme, logical);
}

Row
DiscoveredMapping::toLogical(Row physical) const
{
    // All modelled schemes are involutions.
    return applyScramble(scrambleScheme, physical);
}

MappingReveng::MappingReveng(SoftMcHost &host, Config config)
    : host(host), cfg(config)
{
}

MappingReveng::ProbeResult
MappingReveng::probe(Row logical_row)
{
    const Bank bank = cfg.bank;
    ProbeResult result;
    result.probeRow = logical_row;

    // Surround the probe with a known pattern; the probe row stores the
    // inverse to maximize disturbance coupling.
    const DataPattern victim_pattern = DataPattern::allOnes();
    const DataPattern aggressor_pattern = DataPattern::allZeros();

    int hammers = cfg.hammersStart;
    while (hammers <= cfg.hammersMax) {
        for (Row r = logical_row - cfg.windowRadius;
             r <= logical_row + cfg.windowRadius; ++r) {
            if (r < 0)
                continue;
            host.writeRow(bank, r,
                          r == logical_row ? aggressor_pattern
                                           : victim_pattern);
        }
        host.hammer(bank, logical_row, hammers);

        result.flippedNeighbours.clear();
        for (Row r = logical_row - cfg.windowRadius;
             r <= logical_row + cfg.windowRadius; ++r) {
            if (r < 0 || r == logical_row)
                continue;
            const RowReadout readout = host.readRow(bank, r);
            if (readout.countFlipsVs(victim_pattern, r) > 0)
                result.flippedNeighbours.push_back(r);
        }
        // Keep escalating until both direct neighbours have flipped
        // (their thresholds differ row to row); settle for one if the
        // budget runs out.
        if (result.flippedNeighbours.size() >= 2 ||
            (!result.flippedNeighbours.empty() &&
             hammers * 2 > cfg.hammersMax)) {
            result.hammersUsed = hammers;
            return result;
        }
        hammers *= 2;
    }
    result.hammersUsed = 0; // nothing flipped: likely remapped
    return result;
}

double
MappingReveng::scoreScheme(RowScramble scheme,
                           const std::vector<ProbeResult> &results) const
{
    int matched = 0;
    int considered = 0;
    for (const ProbeResult &r : results) {
        if (r.flippedNeighbours.empty())
            continue; // anomalies don't vote
        ++considered;
        // Predicted strongest victims: logical rows whose physical
        // location is adjacent to the probe's physical location.
        const Row phys = applyScramble(scheme, r.probeRow);
        std::vector<Row> predicted;
        for (Row p : {phys - 1, phys + 1}) {
            if (p >= 0)
                predicted.push_back(applyScramble(scheme, p));
        }
        // The observed set must contain every prediction that falls
        // within the probe window (distance-2 extras are tolerated).
        bool ok = true;
        for (Row p : predicted) {
            if (std::abs(p - r.probeRow) > cfg.windowRadius)
                continue;
            if (std::find(r.flippedNeighbours.begin(),
                          r.flippedNeighbours.end(),
                          p) == r.flippedNeighbours.end()) {
                ok = false;
                break;
            }
        }
        if (ok)
            ++matched;
    }
    if (considered == 0)
        return 0.0;
    return static_cast<double>(matched) /
        static_cast<double>(considered);
}

DiscoveredMapping
MappingReveng::discover()
{
    const Row rows = host.module().spec().rowsPerBank;

    std::vector<ProbeResult> results;
    std::set<Row> anomalies;
    for (int i = 0; i < cfg.probes; ++i) {
        Row r = cfg.probeStart + static_cast<Row>(i) * cfg.probeStride;
        if (r >= rows - cfg.windowRadius)
            r = r % (rows - 2 * cfg.windowRadius) + cfg.windowRadius;
        ProbeResult result = probe(r);
        if (result.flippedNeighbours.empty()) {
            anomalies.insert(r);
            inform(logFmt("mapping probe row ", r,
                          " produced no flips; flagged as remapped"));
        }
        results.push_back(std::move(result));
    }

    constexpr std::array<RowScramble, 3> kSchemes = {
        RowScramble::kSequential,
        RowScramble::kSwapHalfPairs,
        RowScramble::kBitSwap01,
    };
    RowScramble best = RowScramble::kSequential;
    double best_score = -1.0;
    for (RowScramble scheme : kSchemes) {
        const double score = scoreScheme(scheme, results);
        UTRR_DEBUG("scheme ", scrambleName(scheme), " score ", score);
        if (score > best_score) {
            best_score = score;
            best = scheme;
        }
    }
    inform(logFmt("discovered row scramble: ", scrambleName(best),
                  " (score ", best_score, ")"));
    return DiscoveredMapping(best, rows, std::move(anomalies));
}

} // namespace utrr
