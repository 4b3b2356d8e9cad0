/**
 * @file
 * Black-box reverse engineering of the logical-to-physical row mapping
 * (paper §5.3).
 *
 * A TRR mechanism refreshes rows that are *physically* adjacent to a
 * detected aggressor, so every U-TRR experiment needs the decoder
 * scramble and any repair remaps uncovered first. The procedure follows
 * the paper: disable refresh, hammer a probe row a large number of
 * times, and observe which logical rows develop RowHammer bit flips —
 * those are the probe's physical neighbours. Classifying the observed
 * adjacency against candidate decoder schemes yields the mapping;
 * probes whose neighbourhood shows no flips at all are flagged as
 * anomalies (likely victims of post-manufacturing repair remapping).
 */

#ifndef UTRR_CORE_MAPPING_REVENG_HH
#define UTRR_CORE_MAPPING_REVENG_HH

#include <set>
#include <string>
#include <vector>

#include "common/types.hh"
#include "dram/mapping.hh"
#include "softmc/host.hh"

namespace utrr
{

/**
 * The result of mapping reverse engineering: a believed scramble scheme
 * plus the set of anomalous (probably remapped) logical rows.
 */
class DiscoveredMapping
{
  public:
    DiscoveredMapping() = default;
    DiscoveredMapping(RowScramble scheme, Row rows,
                      std::set<Row> anomalies = {});

    /** Identity mapping over @p rows rows (for tests/uninitialized). */
    static DiscoveredMapping identity(Row rows);

    /** Believed physical location of a logical row. */
    Row toPhysical(Row logical) const;

    /** Believed logical address selecting a physical row. */
    Row toLogical(Row physical) const;

    RowScramble scheme() const { return scrambleScheme; }
    Row rows() const { return rowCount; }

    /** Logical rows that did not behave per the scheme. */
    const std::set<Row> &anomalies() const { return anomalousRows; }
    bool isAnomalous(Row logical) const
    {
        return anomalousRows.count(logical) != 0;
    }

  private:
    RowScramble scrambleScheme = RowScramble::kSequential;
    Row rowCount = 0;
    std::set<Row> anomalousRows;
};

/**
 * Runs the §5.3 discovery procedure on one bank.
 */
class MappingReveng
{
  public:
    struct Config
    {
        Bank bank = 0;
        /** Number of probe rows to hammer. */
        int probes = 12;
        /** First probe row and spacing between probes. */
        Row probeStart = 64;
        Row probeStride = 997;
        /** Neighbourhood radius inspected for flips. */
        int windowRadius = 4;
        /** Hammer-count escalation: start, factor, max. */
        int hammersStart = 128 * 1024;
        int hammersMax = 8 * 1024 * 1024;
    };

    MappingReveng(SoftMcHost &host, Config config);

    /** Result of one probe. */
    struct ProbeResult
    {
        Row probeRow = kInvalidRow;
        /** Logical rows (within the window) that developed flips. */
        std::vector<Row> flippedNeighbours;
        /** Hammers needed before the first flip appeared. */
        int hammersUsed = 0;
    };

    /** Hammer one probe row and report which neighbours flipped. */
    ProbeResult probe(Row logical_row);

    /** Full discovery: probe, classify, flag anomalies. */
    DiscoveredMapping discover();

  private:
    /** Fraction of probes a scheme's prediction explains. */
    double scoreScheme(RowScramble scheme,
                       const std::vector<ProbeResult> &results) const;

    SoftMcHost &host;
    Config cfg;
};

} // namespace utrr

#endif // UTRR_CORE_MAPPING_REVENG_HH
