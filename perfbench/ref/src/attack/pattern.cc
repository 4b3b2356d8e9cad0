#include "attack/pattern.hh"

#include <algorithm>

#include "common/logging.hh"

namespace utrr
{

SingleSidedPattern::SingleSidedPattern(Bank bank, Row aggressor_logical,
                                       int hammers_per_slot)
    : bank(bank), aggressor(aggressor_logical), hammers(hammers_per_slot)
{
}

void
SingleSidedPattern::runSlot(SoftMcHost &host, std::uint64_t /*slot*/)
{
    host.hammer(bank, aggressor, hammers);
}

std::vector<std::pair<Bank, Row>>
SingleSidedPattern::aggressorRows() const
{
    return {{bank, aggressor}};
}

DoubleSidedPattern::DoubleSidedPattern(Bank bank, Row aggr0_logical,
                                       Row aggr1_logical,
                                       int hammers_per_aggr_per_slot)
    : bank(bank), aggr0(aggr0_logical), aggr1(aggr1_logical),
      hammers(hammers_per_aggr_per_slot)
{
}

void
DoubleSidedPattern::runSlot(SoftMcHost &host, std::uint64_t /*slot*/)
{
    host.hammerInterleaved({{bank, aggr0}, {bank, aggr1}},
                           {hammers, hammers});
}

std::vector<std::pair<Bank, Row>>
DoubleSidedPattern::aggressorRows() const
{
    return {{bank, aggr0}, {bank, aggr1}};
}

ManySidedPattern::ManySidedPattern(Bank bank,
                                   std::vector<Row> aggressors_logical,
                                   int hammers_per_aggr_per_slot)
    : bank(bank), aggressors(std::move(aggressors_logical)),
      hammers(hammers_per_aggr_per_slot)
{
    UTRR_ASSERT(!aggressors.empty(), "need aggressors");
}

std::string
ManySidedPattern::name() const
{
    return logFmt(aggressors.size(), "-sided");
}

void
ManySidedPattern::runSlot(SoftMcHost &host, std::uint64_t /*slot*/)
{
    std::vector<std::pair<Bank, Row>> rows;
    std::vector<int> counts;
    for (Row aggr : aggressors) {
        rows.emplace_back(bank, aggr);
        counts.push_back(hammers);
    }
    host.hammerInterleaved(rows, counts);
}

std::vector<std::pair<Bank, Row>>
ManySidedPattern::aggressorRows() const
{
    std::vector<std::pair<Bank, Row>> rows;
    for (Row aggr : aggressors)
        rows.emplace_back(bank, aggr);
    return rows;
}

VendorAPattern::VendorAPattern(Bank bank, Row aggr0, Row aggr1,
                               std::vector<Row> dummies,
                               int hammers_per_aggr, Timing timing)
    : bank(bank), aggr0(aggr0), aggr1(aggr1),
      dummies(std::move(dummies)), aggrHammers(hammers_per_aggr)
{
    UTRR_ASSERT(!this->dummies.empty(), "vendor A pattern needs dummies");
    // Use the whole remaining slot budget for dummy hammers so the
    // low-count aggressor table entries are evicted before each
    // TRR-capable REF.
    const int budget = timing.hammersPerRefi();
    dummyHammers = std::max(
        0, (budget - 2 * aggrHammers) /
               static_cast<int>(this->dummies.size()));
}

void
VendorAPattern::runSlot(SoftMcHost &host, std::uint64_t /*slot*/)
{
    host.hammerInterleaved({{bank, aggr0}, {bank, aggr1}},
                           {aggrHammers, aggrHammers});
    for (Row dummy : dummies)
        host.hammer(bank, dummy, dummyHammers);
}

std::vector<std::pair<Bank, Row>>
VendorAPattern::aggressorRows() const
{
    return {{bank, aggr0}, {bank, aggr1}};
}

VendorBPattern::VendorBPattern(
    Bank bank, Row aggr0, Row aggr1,
    std::vector<std::pair<Bank, Row>> dummy_rows,
    int hammers_per_aggr_per_window, int trr_period, Timing timing)
    : bank(bank), aggr0(aggr0), aggr1(aggr1),
      dummyRows(std::move(dummy_rows)),
      aggrPerWindow(hammers_per_aggr_per_window), trrPeriod(trr_period),
      timing(timing)
{
    UTRR_ASSERT(trrPeriod > 0, "need the TRR-to-REF period");
    UTRR_ASSERT(!dummyRows.empty(), "vendor B pattern needs dummies");
}

void
VendorBPattern::begin(SoftMcHost &)
{
    aggrLeftInWindow = aggrPerWindow;
}

void
VendorBPattern::runSlot(SoftMcHost &host, std::uint64_t slot)
{
    // Slot 0 of each window is the first interval after a TRR-capable
    // REF: hammer the aggressors early, dummies late, so the sampler
    // holds a dummy when the next TRR-capable REF arrives.
    const int window_pos =
        static_cast<int>(slot % static_cast<std::uint64_t>(trrPeriod));
    if (window_pos == 0)
        aggrLeftInWindow = aggrPerWindow;

    const Time slot_budget = timing.tREFI - timing.tRFC;
    const Time slot_start = host.now();

    const int slot_capacity = timing.hammersPerRefi();
    const int aggr_now =
        std::min(aggrLeftInWindow, slot_capacity / 2);
    if (aggr_now > 0) {
        host.hammerInterleaved({{bank, aggr0}, {bank, aggr1}},
                               {aggr_now, aggr_now});
        aggrLeftInWindow -= aggr_now;
    }

    // Fill the remaining slot time with parallel dummy hammering
    // (bounded by tFAW across banks, footnote 12).
    const Time remaining = slot_budget - (host.now() - slot_start);
    if (remaining <= 0)
        return;
    const auto banks = static_cast<Time>(dummyRows.size());
    const Time per_round =
        std::max(timing.hammerCycle(), banks * timing.tFAW / 4);
    const int rounds = static_cast<int>(remaining / per_round);
    if (rounds > 0)
        host.hammerMultiBank(dummyRows, rounds);
}

std::vector<std::pair<Bank, Row>>
VendorBPattern::aggressorRows() const
{
    return {{bank, aggr0}, {bank, aggr1}};
}

VendorCPattern::VendorCPattern(Bank bank, Row aggr0, Row aggr1,
                               Row dummy, int window_acts,
                               int trr_period, Timing timing)
    : bank(bank), aggr0(aggr0), aggr1(aggr1), dummy(dummy),
      windowActs(window_acts), trrPeriod(trr_period), timing(timing)
{
    UTRR_ASSERT(trrPeriod > 0, "need the TRR-to-REF period");
}

void
VendorCPattern::begin(SoftMcHost &)
{
    burstLeftInWindow = windowActs;
}

void
VendorCPattern::runSlot(SoftMcHost &host, std::uint64_t slot)
{
    // Right after each TRR-induced refresh, the detection window
    // reopens: fill it entirely with dummy activations so the
    // aggressors stay invisible, then hammer them for the rest of the
    // window (Obs. C2).
    const int window_pos =
        static_cast<int>(slot % static_cast<std::uint64_t>(trrPeriod));
    if (window_pos == 0)
        burstLeftInWindow = windowActs;

    int budget = timing.hammersPerRefi();
    if (burstLeftInWindow > 0) {
        const int burst = std::min(burstLeftInWindow, budget);
        host.hammer(bank, dummy, burst);
        burstLeftInWindow -= burst;
        budget -= burst;
    }
    if (budget >= 2) {
        host.hammerInterleaved({{bank, aggr0}, {bank, aggr1}},
                               {budget / 2, budget / 2});
    }
}

std::vector<std::pair<Bank, Row>>
VendorCPattern::aggressorRows() const
{
    return {{bank, aggr0}, {bank, aggr1}};
}

namespace
{

/** Pick a dummy logical row far away from the victim neighbourhood. */
Row
farDummy(const DiscoveredMapping &mapping, Row victim_phys, int index)
{
    const Row rows = mapping.rows();
    Row phys = (victim_phys + 5'000 + 4 * index) % rows;
    // Stay >= 100 physical rows away from the victim neighbourhood.
    while (std::abs(phys - victim_phys) < 100)
        phys = (phys + 128) % rows;
    return mapping.toLogical(phys);
}

} // namespace

std::vector<Row>
customPatternVictims(const CustomPatternParams &params,
                     const DiscoveredMapping &mapping, Row victim_phys)
{
    std::vector<Row> victims;
    if (params.paired) {
        // Aggressors are the pair rows of victim_phys and victim_phys+2.
        victims.push_back(mapping.toLogical(victim_phys));
        victims.push_back(mapping.toLogical(victim_phys + 2));
    } else {
        victims.push_back(mapping.toLogical(victim_phys));
    }
    return victims;
}

std::unique_ptr<AccessPattern>
makeCustomPattern(const CustomPatternParams &params, SoftMcHost &host,
                  const DiscoveredMapping &mapping, Bank bank,
                  Row victim_phys)
{
    const Timing timing = host.timing();
    Row aggr0_phys;
    Row aggr1_phys;
    if (params.paired) {
        // Paired-row modules: hammering R only disturbs its pair row,
        // so target the pair rows of two victims (§7.3: only
        // odd-numbered aggressor pairs produce flips).
        aggr0_phys = victim_phys ^ 1;
        aggr1_phys = (victim_phys + 2) ^ 1;
    } else {
        aggr0_phys = victim_phys - 1;
        aggr1_phys = victim_phys + 1;
    }
    const Row aggr0 = mapping.toLogical(aggr0_phys);
    const Row aggr1 = mapping.toLogical(aggr1_phys);

    switch (params.vendor) {
      case 'A': {
        std::vector<Row> dummies;
        for (int i = 0; i < params.dummyCount; ++i)
            dummies.push_back(farDummy(mapping, victim_phys, i));
        return std::make_unique<VendorAPattern>(
            bank, aggr0, aggr1, std::move(dummies),
            params.aggressorHammers, timing);
      }
      case 'B': {
        std::vector<std::pair<Bank, Row>> dummy_rows;
        if (params.perBankSampler) {
            // B_TRR3 samples per bank: the dummy must share the
            // aggressors' bank (footnote 13).
            dummy_rows.emplace_back(bank,
                                    farDummy(mapping, victim_phys, 0));
        } else {
            const int total_banks = host.module().spec().banks;
            for (int i = 0; i < params.dummyBanks; ++i) {
                const Bank dummy_bank =
                    (bank + 1 + i) % total_banks;
                dummy_rows.emplace_back(
                    dummy_bank, farDummy(mapping, victim_phys, i));
            }
        }
        return std::make_unique<VendorBPattern>(
            bank, aggr0, aggr1, std::move(dummy_rows),
            params.aggressorHammers, params.trrPeriod, timing);
      }
      case 'C': {
        // The dummy burst fills the whole TRR window except the time
        // reserved for the aggressor hammers, hiding the aggressors
        // from the detection window regardless of its exact length.
        const int aggr_hammers =
            params.aggressorHammers > 0 ? params.aggressorHammers : 80;
        const int burst = std::max(
            0, params.trrPeriod * timing.hammersPerRefi() -
                   2 * aggr_hammers);
        return std::make_unique<VendorCPattern>(
            bank, aggr0, aggr1, farDummy(mapping, victim_phys, 0),
            burst, params.trrPeriod, timing);
      }
      default:
        panic(logFmt("unknown vendor '", params.vendor, "'"));
    }
}

} // namespace utrr
