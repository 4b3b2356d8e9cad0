#include "softmc/timing_checker.hh"

#include "common/logging.hh"

namespace utrr
{

TimingChecker::TimingChecker(Timing timing, int bank_count)
    : timing(timing)
{
    UTRR_ASSERT(bank_count > 0, "need banks");
    banks.resize(static_cast<std::size_t>(bank_count));
}

void
TimingChecker::violate(Time when, const std::string &rule,
                       const std::string &detail)
{
    log.push_back({when, rule, detail});
}

void
TimingChecker::checkFaw(Time when)
{
    while (!recentActs.empty() &&
           recentActs.front() <= when - timing.tFAW) {
        recentActs.pop_front();
    }
    if (static_cast<int>(recentActs.size()) >= 4) {
        violate(when, "tFAW",
                logFmt("5th ACT within ", timing.tFAW, " ns"));
    }
    recentActs.push_back(when);
}

void
TimingChecker::onAct(Bank bank, Row /*row*/, Time when)
{
    auto &state = banks.at(static_cast<std::size_t>(bank));
    if (state.open)
        violate(when, "state", logFmt("ACT to open bank ", bank));
    if (state.lastPre != kInvalidTime &&
        when - state.lastPre < timing.tRP) {
        violate(when, "tRP",
                logFmt("ACT ", when - state.lastPre,
                       " ns after PRE on bank ", bank));
    }
    if (lastRef != kInvalidTime && when - lastRef < timing.tRFC)
        violate(when, "tRFC", "ACT during refresh");
    checkFaw(when);
    state.open = true;
    state.lastAct = when;
    lastActAnyBank = when;
}

void
TimingChecker::onPre(Bank bank, Time when)
{
    auto &state = banks.at(static_cast<std::size_t>(bank));
    // PRE to a precharged bank is legal (a NOP), so only timing checks.
    if (state.open && state.lastAct != kInvalidTime &&
        when - state.lastAct < timing.tRAS) {
        violate(when, "tRAS",
                logFmt("PRE ", when - state.lastAct,
                       " ns after ACT on bank ", bank));
    }
    state.open = false;
    state.lastPre = when;
}

void
TimingChecker::onRead(Bank bank, Time when)
{
    auto &state = banks.at(static_cast<std::size_t>(bank));
    if (!state.open) {
        violate(when, "state", logFmt("RD to closed bank ", bank));
        return;
    }
    if (state.lastAct != kInvalidTime &&
        when - state.lastAct < timing.tRCD) {
        violate(when, "tRCD",
                logFmt("RD ", when - state.lastAct,
                       " ns after ACT on bank ", bank));
    }
}

void
TimingChecker::onWrite(Bank bank, Time when)
{
    auto &state = banks.at(static_cast<std::size_t>(bank));
    if (!state.open) {
        violate(when, "state", logFmt("WR to closed bank ", bank));
        return;
    }
    if (state.lastAct != kInvalidTime &&
        when - state.lastAct < timing.tRCD) {
        violate(when, "tRCD",
                logFmt("WR ", when - state.lastAct,
                       " ns after ACT on bank ", bank));
    }
}

void
TimingChecker::onRef(Time when)
{
    for (std::size_t b = 0; b < banks.size(); ++b) {
        if (banks[b].open) {
            violate(when, "state",
                    logFmt("REF with bank ", b, " open"));
        }
    }
    if (lastRef != kInvalidTime && when - lastRef < timing.tRFC)
        violate(when, "tRFC", "REF during refresh");
    lastRef = when;
}

} // namespace utrr
