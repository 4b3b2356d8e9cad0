#include "attack/hammer_pattern.hh"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "common/logging.hh"

namespace utrr
{

namespace
{

/**
 * A decoy row far from the victim, so the synthesized and the §7.1
 * patterns feed the sampler from one row population.
 */
Row
farDummyRow(const DiscoveredMapping &mapping, Row victim_phys,
            int index)
{
    const Row rows = mapping.rows();
    Row phys = (victim_phys + 5'000 + 4 * index) % rows;
    while (std::abs(phys - victim_phys) < 100)
        phys = (phys + 128) % rows;
    return mapping.toLogical(phys);
}

const char *
kindName(ElementKind kind)
{
    return kind == ElementKind::kAggressors ? "aggr" : "dummy";
}

} // namespace

bool
HammerPattern::activeAt(const PatternElement &element,
                        std::uint64_t slot) const
{
    const int period = std::max(basePeriod, 1);
    const int pos =
        static_cast<int>(slot % static_cast<std::uint64_t>(period));
    if (pos < element.phase)
        return false;
    const int frequency = std::max(element.frequency, 1);
    return (pos - element.phase) % frequency < element.span;
}

int
HammerPattern::aggressorRowCount() const
{
    int rows = 1;
    for (const PatternElement &e : elements) {
        if (e.kind == ElementKind::kAggressors)
            rows = std::max(rows, e.rows);
    }
    return rows;
}

int
HammerPattern::dummyRowCount() const
{
    int rows = 0;
    for (const PatternElement &e : elements) {
        if (e.kind == ElementKind::kDummies)
            rows = std::max(rows, std::max(e.rows, e.banks));
    }
    return rows;
}

int
HammerPattern::dummyBankCount() const
{
    int banks = 0;
    for (const PatternElement &e : elements) {
        if (e.kind == ElementKind::kDummies)
            banks = std::max(banks, e.banks);
    }
    return banks;
}

std::string
validatePattern(const HammerPattern &pattern)
{
    if (pattern.basePeriod < 1 ||
        pattern.basePeriod > PatternLimits::kMaxBasePeriod)
        return "basePeriod out of range";
    if (pattern.elements.empty())
        return "pattern has no elements";
    if (pattern.elements.size() > PatternLimits::kMaxElements)
        return "too many elements";
    bool any_aggr = false;
    for (std::size_t i = 0; i < pattern.elements.size(); ++i) {
        const PatternElement &e = pattern.elements[i];
        const std::string where =
            "element " + std::to_string(i) + ": ";
        if (e.kind == ElementKind::kAggressors) {
            any_aggr = true;
            if (e.rows < 1 || e.rows > PatternLimits::kMaxAggressorRows)
                return where + "aggressor rows out of range";
            if (e.banks != 1)
                return where + "aggressors are single-bank";
        } else {
            if (e.rows < 1 || e.rows > PatternLimits::kMaxDummyRows)
                return where + "dummy rows out of range";
            if (e.banks < 1 || e.banks > PatternLimits::kMaxDummyBanks)
                return where + "dummy banks out of range";
        }
        if (e.frequency < 1 ||
            e.frequency > PatternLimits::kMaxBasePeriod)
            return where + "frequency out of range";
        if (e.phase < 0 || e.phase >= pattern.basePeriod)
            return where + "phase outside the base period";
        if (e.span < 1 || e.span > pattern.basePeriod)
            return where + "span out of range";
        if (e.amplitude < 0 ||
            e.amplitude > PatternLimits::kMaxAmplitude)
            return where + "amplitude out of range";
    }
    if (!any_aggr)
        return "pattern has no aggressor element";
    return "";
}

std::string
patternClass(const HammerPattern &pattern)
{
    bool any_dummy = false;
    for (const PatternElement &e : pattern.elements)
        any_dummy |= e.kind == ElementKind::kDummies;
    if (!any_dummy)
        return "uniform";

    // The vendor-C shape: emission starts with a phase-0 dummy burst
    // and every aggressor burst waits for a later phase.
    int min_aggr_phase = pattern.basePeriod;
    for (const PatternElement &e : pattern.elements) {
        if (e.kind == ElementKind::kAggressors)
            min_aggr_phase = std::min(min_aggr_phase, e.phase);
    }
    const PatternElement &first = pattern.elements.front();
    if (first.kind == ElementKind::kDummies && first.phase == 0 &&
        min_aggr_phase > 0)
        return "window-fill";

    // Partial-period aggressors (the vendor-B shape) vs aggressors in
    // every slot alongside the decoys (the vendor-A shape).
    int aggr_slots = 0;
    for (int pos = 0; pos < pattern.basePeriod; ++pos) {
        for (const PatternElement &e : pattern.elements) {
            if (e.kind == ElementKind::kAggressors &&
                pattern.activeAt(e, static_cast<std::uint64_t>(pos))) {
                ++aggr_slots;
                break;
            }
        }
    }
    return aggr_slots < pattern.basePeriod ? "early-aggr"
                                           : "decoy-evict";
}

HammerPattern
uniformPattern(int rows, int amplitude)
{
    HammerPattern pattern;
    PatternElement aggr;
    aggr.kind = ElementKind::kAggressors;
    aggr.rows = rows;
    aggr.amplitude = amplitude;
    pattern.elements = {aggr};
    return pattern;
}

std::string
serializeHammerPattern(const HammerPattern &pattern)
{
    std::ostringstream oss;
    oss << "hammer-pattern v1\n";
    oss << "period " << pattern.basePeriod << "\n";
    for (const PatternElement &e : pattern.elements) {
        oss << "elem kind=" << kindName(e.kind) << " rows=" << e.rows
            << " banks=" << e.banks << " freq=" << e.frequency
            << " phase=" << e.phase << " span=" << e.span
            << " amp=" << e.amplitude << "\n";
    }
    return oss.str();
}

std::string
parseHammerPattern(const std::string &text, HammerPattern &out)
{
    HammerPattern pattern;
    pattern.elements.clear();
    std::istringstream iss(text);
    std::string line;
    bool saw_magic = false;
    bool saw_period = false;
    int lineno = 0;
    while (std::getline(iss, line)) {
        ++lineno;
        const std::string where =
            "line " + std::to_string(lineno) + ": ";
        // Strip comments and surrounding whitespace.
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        std::istringstream ls(line);
        std::string word;
        if (!(ls >> word))
            continue; // blank / comment-only
        if (!saw_magic) {
            std::string version;
            if (word != "hammer-pattern" || !(ls >> version) ||
                version != "v1")
                return where + "expected 'hammer-pattern v1'";
            saw_magic = true;
            continue;
        }
        if (word == "period") {
            if (!(ls >> pattern.basePeriod))
                return where + "bad period";
            saw_period = true;
            continue;
        }
        if (word != "elem")
            return where + "unknown directive '" + word + "'";
        PatternElement elem;
        bool saw_kind = false;
        std::string field;
        while (ls >> field) {
            const std::size_t eq = field.find('=');
            if (eq == std::string::npos)
                return where + "expected key=value, got '" + field +
                    "'";
            const std::string key = field.substr(0, eq);
            const std::string value = field.substr(eq + 1);
            if (key == "kind") {
                if (value == "aggr")
                    elem.kind = ElementKind::kAggressors;
                else if (value == "dummy")
                    elem.kind = ElementKind::kDummies;
                else
                    return where + "unknown kind '" + value + "'";
                saw_kind = true;
                continue;
            }
            int parsed = 0;
            try {
                parsed = std::stoi(value);
            } catch (const std::exception &) {
                return where + "bad integer for '" + key + "'";
            }
            if (key == "rows")
                elem.rows = parsed;
            else if (key == "banks")
                elem.banks = parsed;
            else if (key == "freq")
                elem.frequency = parsed;
            else if (key == "phase")
                elem.phase = parsed;
            else if (key == "span")
                elem.span = parsed;
            else if (key == "amp")
                elem.amplitude = parsed;
            else
                return where + "unknown key '" + key + "'";
        }
        if (!saw_kind)
            return where + "elem without kind=";
        pattern.elements.push_back(elem);
    }
    if (!saw_magic)
        return "missing 'hammer-pattern v1' header";
    if (!saw_period)
        return "missing 'period' directive";
    const std::string invalid = validatePattern(pattern);
    if (!invalid.empty())
        return invalid;
    out = std::move(pattern);
    return "";
}

PatternBinding
bindPattern(const HammerPattern &pattern, const ModuleSpec &spec,
            const DiscoveredMapping &mapping, Bank bank,
            Row victim_phys)
{
    PatternBinding binding;
    binding.bank = bank;

    // On paired-row modules the only row that disturbs victim V is its
    // remap partner V^1 (DESIGN.md §4), so the "double-sided" second
    // aggressor is the partner of the next even victim V+2.
    for (int i = 0; i < pattern.aggressorRowCount(); ++i) {
        const Row phys = spec.paired() ? (victim_phys + 2 * i) ^ 1
                                       : victim_phys - 1 + 2 * i;
        binding.aggressors.push_back(mapping.toLogical(phys));
    }

    const int dummy_rows = pattern.dummyRowCount();
    for (int i = 0; i < dummy_rows; ++i)
        binding.dummies.push_back(
            farDummyRow(mapping, victim_phys, i));

    const int dummy_banks = std::max(pattern.dummyBankCount(), 1);
    for (int i = 0; i < dummy_banks; ++i) {
        binding.dummyBanks.push_back(
            i == 0 ? bank
                   : static_cast<Bank>((bank + i) % spec.banks));
    }
    return binding;
}

PatternBinding
bindComb(const DiscoveredMapping &mapping, Bank bank, Row first_phys,
         int rows, int stride)
{
    PatternBinding binding;
    binding.bank = bank;
    for (int i = 0; i < rows; ++i)
        binding.aggressors.push_back(
            mapping.toLogical(first_phys + i * stride));
    return binding;
}

std::vector<std::pair<Bank, Row>>
patternVictims(const HammerPattern &pattern, const ModuleSpec &spec,
               const DiscoveredMapping &mapping, Bank bank,
               Row victim_phys)
{
    std::vector<std::pair<Bank, Row>> victims;
    victims.emplace_back(bank, mapping.toLogical(victim_phys));
    if (spec.paired() && pattern.aggressorRowCount() >= 2)
        victims.emplace_back(bank, mapping.toLogical(victim_phys + 2));
    return victims;
}

SlotPlan
planSlot(const HammerPattern &pattern, std::uint64_t slot,
         const Timing &timing)
{
    SlotPlan plan;
    planSlotInto(pattern, slot, timing, plan);
    return plan;
}

void
planSlotInto(const HammerPattern &pattern, std::uint64_t slot,
             const Timing &timing, SlotPlan &plan)
{
    plan.bursts.clear();
    plan.actsOwnBank = 0;
    plan.timePlanned = 0;
    const Time slot_budget = timing.tREFI - timing.tRFC;
    int acts_left = timing.hammersPerRefi();
    Time time_used = 0;

    for (std::size_t i = 0; i < pattern.elements.size(); ++i) {
        const PatternElement &e = pattern.elements[i];
        if (!pattern.activeAt(e, slot))
            continue;
        if (e.kind != ElementKind::kDummies || e.banks <= 1) {
            // Same-bank burst: bounded by the slot's ACT budget.
            if (acts_left < e.rows)
                continue;
            int per = acts_left / e.rows;
            if (e.amplitude > 0)
                per = std::min(per, e.amplitude);
            if (per <= 0)
                continue;
            BurstPlan burst;
            burst.element = i;
            burst.hammersPerRow = per;
            plan.bursts.push_back(burst);
            acts_left -= per * e.rows;
            plan.actsOwnBank += per * e.rows;
            time_used += static_cast<Time>(per) * e.rows *
                timing.hammerCycle();
        } else {
            // Multi-bank fill: bounded by the remaining slot *time*
            // (banks hammer in parallel, limited by tFAW).
            const Time per_round =
                std::max(timing.hammerCycle(),
                         static_cast<Time>(e.banks) * timing.tFAW / 4);
            const Time remaining = slot_budget - time_used;
            int rounds = static_cast<int>(remaining / per_round);
            if (e.amplitude > 0)
                rounds = std::min(rounds, e.amplitude);
            if (rounds <= 0)
                continue;
            BurstPlan burst;
            burst.element = i;
            burst.rounds = rounds;
            plan.bursts.push_back(burst);
            time_used += static_cast<Time>(rounds) * per_round;
            plan.actsOwnBank += rounds; // one own-bank ACT per round
            acts_left = std::max(
                0,
                std::min(acts_left - rounds,
                         static_cast<int>((slot_budget - time_used) /
                                          timing.hammerCycle())));
        }
    }
    plan.timePlanned = time_used;
}

Program
lowerToProgram(const HammerPattern &pattern,
               const PatternBinding &binding, const Timing &timing,
               int slots)
{
    UTRR_ASSERT(validatePattern(pattern).empty(),
                "cannot lower an invalid pattern");
    UTRR_ASSERT(binding.aggressors.size() >=
                    static_cast<std::size_t>(pattern.aggressorRowCount()),
                "binding has fewer aggressors than the pattern hammers");
    Program prog;
    const Time slot_budget = timing.tREFI - timing.tRFC;
    for (int slot = 0; slot < slots; ++slot) {
        const SlotPlan plan =
            planSlot(pattern, static_cast<std::uint64_t>(slot), timing);
        // The program ISA is strictly serial (every ACT/PRE pair costs
        // one hammerCycle), while the live host's hammerMultiBank
        // overlaps banks. Account the compiled commands at their
        // serial cost and truncate multi-bank fills so the slot still
        // meets its REF on time.
        Time serial_used = 0;
        for (const BurstPlan &burst : plan.bursts) {
            const PatternElement &e = pattern.elements[burst.element];
            if (e.kind == ElementKind::kAggressors) {
                if (e.rows >= 2) {
                    // Round robin, same order as
                    // SoftMcHost::hammerInterleaved.
                    for (int h = 0; h < burst.hammersPerRow; ++h) {
                        for (int r = 0; r < e.rows; ++r) {
                            prog.act(binding.bank,
                                     binding.aggressors[r]);
                            prog.pre(binding.bank);
                        }
                    }
                    serial_used += static_cast<Time>(e.rows) *
                        burst.hammersPerRow * timing.hammerCycle();
                } else {
                    prog.hammer(binding.bank, binding.aggressors[0],
                                burst.hammersPerRow);
                    serial_used += static_cast<Time>(
                                       burst.hammersPerRow) *
                        timing.hammerCycle();
                }
            } else if (e.banks <= 1) {
                for (int r = 0; r < e.rows; ++r) {
                    prog.hammer(
                        binding.bank,
                        binding.dummies[r % binding.dummies.size()],
                        burst.hammersPerRow);
                }
                serial_used += static_cast<Time>(e.rows) *
                    burst.hammersPerRow * timing.hammerCycle();
            } else {
                const Time per_round = static_cast<Time>(e.banks) *
                    timing.hammerCycle();
                const int rounds = std::min<int>(
                    burst.rounds,
                    static_cast<int>((slot_budget - serial_used) /
                                     per_round));
                for (int round = 0; round < rounds; ++round) {
                    for (int b = 0; b < e.banks; ++b) {
                        const Bank bank =
                            binding
                                .dummyBanks[b % binding.dummyBanks
                                                    .size()];
                        prog.act(
                            bank,
                            binding.dummies[b % binding.dummies.size()]);
                        prog.pre(bank);
                    }
                }
                serial_used += static_cast<Time>(rounds) * per_round;
            }
        }
        if (serial_used < slot_budget)
            prog.wait(slot_budget - serial_used);
        prog.ref();
    }
    return prog;
}

} // namespace utrr
