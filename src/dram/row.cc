#include "dram/row.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/logging.hh"
#include "trr/trr.hh"

namespace utrr
{

namespace
{

const std::vector<Col> kNoFlips;

constexpr std::uint64_t kHiddenBit = std::uint64_t{1} << 52;
constexpr std::uint64_t kMantissaMask = kHiddenBit - 1;
constexpr std::uint64_t kExponentInfNan = 0x7ff;

/**
 * @p c + adds[0] + ... + adds[m-1], repeated @p rounds times, one
 * double-precision add at a time in that order — bit for bit, but at a
 * cost that grows with the binades the sum crosses, not with the adds.
 *
 * While c stays in one binade [2^e, 2^(e+1)) it is a multiple of its
 * ulp u = 2^(e-52), and so is every partial sum; an addend a < 2^e
 * then rounds to c + round(a/u)·u whatever c is, unless a/u sits
 * exactly half-way (ties-to-even reads c's last bit). So k rounds that
 * stay inside the binade add exactly k·Σ round(aᵢ/u) ulps, an integer
 * step on c's significand. Real adds remain for the round that leaves
 * the binade, for exact ties, for an addend of 2^e or more, for a zero
 * or subnormal c, and for negative or non-finite values (which the
 * simulator never produces). A round of real adds that leaves c as it
 * was is a fixed point: every later round would too.
 */
double
accumulateRounds(double c, const double *adds, int m, std::int64_t rounds)
{
    while (rounds > 0) {
        const auto cb = std::bit_cast<std::uint64_t>(c);
        // Sign and biased exponent: a zero or subnormal c reads 0, a
        // negative or non-finite one 0x7ff or more. Both take real adds.
        const std::uint64_t ec = cb >> 52;
        bool stepping = ec != 0 && ec < kExponentInfNan;
        std::uint64_t step = 0; // ulps one steady round adds
        for (int i = 0; stepping && i < m; ++i) {
            const auto ab = std::bit_cast<std::uint64_t>(adds[i]);
            const std::uint64_t ea = ab >> 52;
            if (ea >= ec) {
                // a >= 2^e leaves the binade at once; a negative or
                // non-finite a reads 0x7ff or more here too.
                stepping = false;
                break;
            }
            // a = sig·2^(max(ea,1)-1075), u = 2^(ec-1075): a/u = sig/2^d.
            const std::uint64_t sig =
                (ab & kMantissaMask) | (ea != 0 ? kHiddenBit : 0);
            const std::uint64_t d = ec - std::max<std::uint64_t>(ea, 1);
            if (d == 0) {
                step += sig;
                continue;
            }
            if (d > 53)
                continue; // a < u/2: rounds away to nothing
            const std::uint64_t half = std::uint64_t{1} << (d - 1);
            const std::uint64_t rem = sig & ((half << 1) - 1);
            if (rem == half) {
                stepping = false; // exact tie: depends on c's parity
                break;
            }
            step += (sig >> d) + (rem > half ? 1 : 0);
        }
        if (stepping) {
            if (step == 0)
                return c; // every add rounds back to c: a fixed point
            const std::uint64_t sig = (cb & kMantissaMask) | kHiddenBit;
            const std::uint64_t fit =
                (2 * kHiddenBit - 1 - sig) / step; // rounds left in binade
            const auto k =
                std::min(static_cast<std::uint64_t>(rounds), fit);
            c = std::bit_cast<double>((ec << 52) |
                                      ((sig + k * step) & kMantissaMask));
            rounds -= static_cast<std::int64_t>(k);
            if (rounds == 0)
                break;
        }
        // The round that leaves the binade (or a tie, a large addend,
        // a zero, subnormal, negative or non-finite value): real adds.
        const double before = c;
        for (int i = 0; i < m; ++i)
            c += adds[i];
        --rounds;
        if (std::bit_cast<std::uint64_t>(c) ==
            std::bit_cast<std::uint64_t>(before))
            break;
    }
    return c;
}

} // namespace

RowReadout::RowReadout(
    DataPattern pattern, Row pattern_row,
    std::shared_ptr<const std::unordered_map<int, std::uint64_t>>
        overrides,
    std::shared_ptr<const std::vector<Col>> flips, int row_bits)
    : pattern(pattern), patternRow(pattern_row),
      overrides(std::move(overrides)), flips(std::move(flips)),
      bits(row_bits)
{
}

std::uint64_t
RowReadout::storedWord(int word_idx) const
{
    if (overrides) {
        const auto it = overrides->find(word_idx);
        if (it != overrides->end())
            return it->second;
    }
    return pattern.word(patternRow, word_idx);
}

const std::vector<Col> &
RowReadout::rawFlips() const
{
    return flips ? *flips : kNoFlips;
}

bool
RowReadout::bit(Col col) const
{
    const std::uint64_t w = storedWord(col / 64);
    const bool stored = ((w >> (col % 64)) & 1) != 0;
    const auto &f = rawFlips();
    const bool is_flipped = std::binary_search(f.begin(), f.end(), col);
    return stored ^ is_flipped;
}

std::uint64_t
RowReadout::word(int word_idx) const
{
    std::uint64_t w = storedWord(word_idx);
    // Apply flips within this word.
    const auto &f = rawFlips();
    const Col lo = static_cast<Col>(word_idx) * 64;
    auto it = std::lower_bound(f.begin(), f.end(), lo);
    for (; it != f.end() && *it < lo + 64; ++it)
        w ^= 1ULL << (*it - lo);
    return w;
}

void
RowReadout::injectFlip(Col col)
{
    UTRR_ASSERT(col >= 0 && col < bits,
                logFmt("injected flip column ", col, " out of range"));
    // The flip list may be shared with the row that produced this
    // readout: mutate a private copy.
    auto copy = flips ? std::make_shared<std::vector<Col>>(*flips)
                      : std::make_shared<std::vector<Col>>();
    const auto it = std::lower_bound(copy->begin(), copy->end(), col);
    if (it != copy->end() && *it == col)
        copy->erase(it); // double fault cancels out
    else
        copy->insert(it, col);
    flips = std::move(copy);
}

std::vector<Col>
RowReadout::flipsVs(const DataPattern &expected, Row expected_row) const
{
    // Fast path: the expectation is exactly what was last written, so
    // the committed flips are the answer (modulo word overrides).
    if (!hasOverrides() && expected == pattern &&
        expected_row == patternRow) {
        return rawFlips();
    }
    return diffReadout(*this, expected, expected_row);
}

int
RowReadout::countFlipsVs(const DataPattern &expected,
                         Row expected_row) const
{
    if (!hasOverrides() && expected == pattern &&
        expected_row == patternRow) {
        return static_cast<int>(rawFlips().size());
    }
    return diffReadoutCount(*this, expected, expected_row);
}

std::vector<Col>
diffReadout(const RowReadout &readout, const DataPattern &expected,
            Row expected_row)
{
    std::vector<Col> result;
    const int bits = readout.rowBits();
    const int full = bits / 64;
    for (int w = 0; w < full; ++w) {
        std::uint64_t diff =
            readout.word(w) ^ expected.word(expected_row, w);
        while (diff != 0) {
            const int b = __builtin_ctzll(diff);
            result.push_back(static_cast<Col>(w) * 64 + b);
            diff &= diff - 1;
        }
    }
    const int tail = bits % 64;
    if (tail != 0) {
        const std::uint64_t mask = (1ULL << tail) - 1;
        std::uint64_t diff =
            (readout.word(full) ^ expected.word(expected_row, full)) &
            mask;
        while (diff != 0) {
            const int b = __builtin_ctzll(diff);
            result.push_back(static_cast<Col>(full) * 64 + b);
            diff &= diff - 1;
        }
    }
    return result;
}

int
diffReadoutCount(const RowReadout &readout, const DataPattern &expected,
                 Row expected_row)
{
    int count = 0;
    const int bits = readout.rowBits();
    const int full = bits / 64;
    for (int w = 0; w < full; ++w) {
        count += __builtin_popcountll(
            readout.word(w) ^ expected.word(expected_row, w));
    }
    const int tail = bits % 64;
    if (tail != 0) {
        const std::uint64_t mask = (1ULL << tail) - 1;
        count += __builtin_popcountll(
            (readout.word(full) ^ expected.word(expected_row, full)) &
            mask);
    }
    return count;
}

RowState::RowState(RowPhysics physics, Time now, Rng vrt_rng, int row_bits,
                   Time vrt_dwell, double vrt_high_factor)
    : phys(std::move(physics)), bits(row_bits), lastRestore(now),
      vrtRng(vrt_rng), lastVrtCheck(now), vrtDwell(vrt_dwell),
      vrtHighFactor(vrt_high_factor)
{
    for (const WeakCell &cell : phys.weakCells)
        vrtRow = vrtRow || cell.vrt;
    weakSorted = std::is_sorted(
        phys.weakCells.begin(), phys.weakCells.end(),
        [](const WeakCell &a, const WeakCell &b) {
            return a.retention < b.retention;
        });
    refreshMinRetention();
    if (!phys.hammerCells.empty()) {
        // Hammer cells supplied up front (hand-built physics): behave
        // exactly as if they had just been attached.
        hammerAttached = true;
        hammerFloor = std::numeric_limits<double>::infinity();
        for (const HammerCell &cell : phys.hammerCells)
            hammerFloor = std::min(hammerFloor, cell.threshold);
    } else {
        hammerFloor = phys.hammerBaseThreshold;
    }
}

void
RowState::refreshMinRetention()
{
    if (phys.weakCells.empty()) {
        minRetCache = std::numeric_limits<Time>::max();
        return;
    }
    Time min_ret = phys.weakCells.front().retention;
    if (!weakSorted) {
        for (const WeakCell &cell : phys.weakCells)
            min_ret = std::min(min_ret, cell.retention);
    }
    // Mirror effectiveRetention()'s arithmetic exactly: the scaled value
    // is monotone in the raw retention, so the weakest cell's scaled
    // retention bounds every cell's.
    minRetCache = retScale == 1.0
        ? min_ret
        : static_cast<Time>(static_cast<double>(min_ret) * retScale);
}

void
RowState::adoptBankScale()
{
    retScale = bank->retentionScale;
    scaleStep = bank->retentionSteps;
    refreshMinRetention();
}

std::unordered_map<int, std::uint64_t> &
RowState::mutableOverrides()
{
    if (!overrides) {
        overrides =
            std::make_shared<std::unordered_map<int, std::uint64_t>>();
    } else if (overrides.use_count() > 1) {
        overrides =
            std::make_shared<std::unordered_map<int, std::uint64_t>>(
                *overrides);
        if (bank != nullptr)
            ++bank->perf.readoutCowCopies;
    }
    return *overrides;
}

std::vector<Col> &
RowState::mutableFlips()
{
    if (!flips) {
        flips = std::make_shared<std::vector<Col>>();
    } else if (flips.use_count() > 1) {
        flips = std::make_shared<std::vector<Col>>(*flips);
        if (bank != nullptr)
            ++bank->perf.readoutCowCopies;
    }
    return *flips;
}

bool
RowState::storedBit(Col col) const
{
    if (overrides) {
        const auto it = overrides->find(col / 64);
        if (it != overrides->end())
            return ((it->second >> (col % 64)) & 1) != 0;
    }
    return pattern.bit(patRow, col);
}

Time
RowState::effectiveRetention(const WeakCell &cell, Time now)
{
    // Injected retention scaling (VRT mode flips, temperature drift).
    // The scale-1.0 fast path keeps the unfaulted simulation bit-exact.
    const Time retention = retScale == 1.0
        ? cell.retention
        : static_cast<Time>(static_cast<double>(cell.retention) *
                            retScale);
    if (!cell.vrt)
        return retention;

    // Symmetric random-telegraph process: probability the state differs
    // after dt is (1 - exp(-2 dt / dwell)) / 2.
    const Time dt = now - lastVrtCheck;
    if (dt > 0 && vrtDwell > 0) {
        const double p_switch =
            0.5 * (1.0 -
                   std::exp(-2.0 * static_cast<double>(dt) /
                            static_cast<double>(vrtDwell)));
        if (vrtRng.chance(p_switch))
            vrtHigh = !vrtHigh;
        lastVrtCheck = now;
    }
    if (!vrtHigh)
        return retention;
    return static_cast<Time>(
        static_cast<double>(retention) * vrtHighFactor);
}

void
RowState::commitFlip(Col col)
{
    std::vector<Col> &f = mutableFlips();
    const auto it = std::lower_bound(f.begin(), f.end(), col);
    if (it == f.end() || *it != col)
        f.insert(it, col);
}

void
RowState::commitDueFlips(Time now)
{
    const Time elapsed = now - lastRestore;

    // Retention failures: a charged cell decays once elapsed exceeds its
    // (VRT-adjusted) retention time. The cells are sorted by retention,
    // so on a VRT-free row the first surviving cell ends the scan (a VRT
    // cell's retention draw is visible state and must always happen).
    for (const WeakCell &cell : phys.weakCells) {
        if (elapsed <= effectiveRetention(cell, now)) {
            if (weakSorted && !vrtRow)
                break;
            continue;
        }
        if (storedBit(cell.col) != cell.chargedValue)
            continue; // already in the discharged state
        commitFlip(cell.col);
    }

    // RowHammer failures: cells whose threshold has been crossed by the
    // accumulated disturbance charge flip. hammerCells is sorted by
    // threshold, so we stop at the first cell that survives.
    for (const HammerCell &cell : phys.hammerCells) {
        if (cell.threshold > charge)
            break;
        if (storedBit(cell.col) != cell.chargedValue)
            continue;
        commitFlip(cell.col);
    }
}

void
RowState::addDisturbanceRoundRobin(const Row *aggrs, const double *w_first,
                                   const double *w_repeat, int m,
                                   int rounds)
{
    UTRR_ASSERT(m <= TrrMechanism::kMaxRoundRobinRows,
                "round-robin accumulation takes at most 8 aggressors");
    if (rounds <= 0 || m <= 0)
        return;
    // The first pass resolves each weight against the live
    // lastDisturber, which may still be a pre-burst row.
    double c = charge;
    Row last = lastAggressor;
    for (int i = 0; i < m; ++i) {
        c += last == aggrs[i] ? w_repeat[i] : w_first[i];
        last = aggrs[i];
    }
    // From the second pass on every add follows the previous aggressor
    // of the same round robin (a single-aggressor victim follows itself
    // and takes the repeat weight), so the schedule is fixed.
    double steady[TrrMechanism::kMaxRoundRobinRows];
    for (int i = 0; i < m; ++i) {
        const Row prev = aggrs[i == 0 ? m - 1 : i - 1];
        steady[i] = prev == aggrs[i] ? w_repeat[i] : w_first[i];
    }
    charge = accumulateRounds(c, steady, m, rounds - 1);
    lastAggressor = last;
}

void
RowState::fastForwardRestores(Time last_now, std::uint64_t n)
{
    if (bank != nullptr)
        bank->perf.restoreFastPath += n;
    lastRestore = last_now;
    charge = 0.0;
    lastAggressor = kInvalidRow;
}

void
RowState::writePattern(const DataPattern &new_pattern, Row pattern_row,
                       Time now)
{
    pattern = new_pattern;
    word0 = new_pattern.word(pattern_row, 0);
    patRow = pattern_row;
    overrides.reset();
    flips.reset();
    lastRestore = now;
}

void
RowState::writeWord(int word_idx, std::uint64_t value)
{
    mutableOverrides()[word_idx] = value;
#ifdef UTRR_MUTATION_STALE_COUPLING_WORD
    // Deliberate mutation (-DUTRR_MUTATION=ON): the cached coupling
    // word goes stale, so later plans weigh word 0's old value. The
    // differential fuzzing oracle must flag this (mutation sanity
    // test); never enable it in a real build.
#else
    if (word_idx == 0)
        word0 = value;
#endif
    // Writing a word recharges exactly its cells: drop flips within it.
    if (!flips || flips->empty())
        return;
    const Col lo = static_cast<Col>(word_idx) * 64;
    auto first = std::lower_bound(flips->begin(), flips->end(), lo);
    if (first == flips->end() || *first >= lo + 64)
        return; // nothing to drop: leave the shared list untouched
    std::vector<Col> &f = mutableFlips();
    const auto begin = std::lower_bound(f.begin(), f.end(), lo);
    const auto end = std::lower_bound(begin, f.end(), lo + 64);
    f.erase(begin, end);
}

RowReadout
RowState::read() const
{
    if (bank != nullptr)
        ++bank->perf.readoutShares;
    return RowReadout(pattern, patRow, overrides, flips, bits);
}

int
RowState::readFlipCount(const DataPattern &expected, Row expected_row) const
{
    if (bank != nullptr)
        ++bank->perf.readoutShares;
    if ((!overrides || overrides->empty()) && expected == pattern &&
        expected_row == patRow) {
        return static_cast<int>(committedFlipCount());
    }
    return diffReadoutCount(
        RowReadout(pattern, patRow, overrides, flips, bits), expected,
        expected_row);
}

void
RowState::setHammerCells(std::vector<HammerCell> cells)
{
    phys.hammerCells = std::move(cells);
    hammerAttached = true;
    hammerFloor = std::numeric_limits<double>::infinity();
    for (const HammerCell &cell : phys.hammerCells)
        hammerFloor = std::min(hammerFloor, cell.threshold);
}

} // namespace utrr
