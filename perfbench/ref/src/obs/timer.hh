/**
 * @file
 * RAII instrumentation helpers for the experiment harnesses:
 *
 *  - ScopedTimer measures wall-clock time of a scope and records it
 *    into a MetricsRegistry histogram ("<name>.us") plus a call counter
 *    ("<name>.calls");
 *  - SimPhase brackets a scope with begin/end phase markers in a
 *    CommandTrace, stamped with *simulated* time supplied by a clock
 *    callback (the host's now()).
 *
 * Both are null-safe: constructed with a null registry/trace they cost
 * one branch and do nothing, so call sites need no conditionals.
 */

#ifndef UTRR_OBS_TIMER_HH
#define UTRR_OBS_TIMER_HH

#include <chrono>
#include <functional>
#include <string>
#include <utility>

#include "common/types.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace utrr
{

/** Wall-clock scope timer feeding a metrics registry. */
class ScopedTimer
{
  public:
    ScopedTimer(MetricsRegistry *registry, std::string name)
        : registry(registry), name(std::move(name)),
          begin(std::chrono::steady_clock::now())
    {
    }

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

    /** Microseconds elapsed since construction. */
    double
    elapsedUs() const
    {
        const auto delta = std::chrono::steady_clock::now() - begin;
        return std::chrono::duration<double, std::micro>(delta).count();
    }

    /** Record now instead of at destruction (idempotent). */
    void
    stop()
    {
        if (registry == nullptr || stopped)
            return;
        stopped = true;
        registry->histogram(name + ".us")
            .add(static_cast<std::int64_t>(elapsedUs()));
        registry->counter(name + ".calls").inc();
    }

    ~ScopedTimer() { stop(); }

  private:
    MetricsRegistry *registry;
    std::string name;
    std::chrono::steady_clock::time_point begin;
    bool stopped = false;
};

/** Simulated-time phase bracket in a command trace. */
class SimPhase
{
  public:
    SimPhase(CommandTrace *trace, std::string name,
             std::function<Time()> sim_now)
        : trace(trace), name(std::move(name)), simNow(std::move(sim_now))
    {
        if (trace != nullptr && trace->enabled())
            trace->beginPhase(this->name, simNow());
    }

    SimPhase(const SimPhase &) = delete;
    SimPhase &operator=(const SimPhase &) = delete;

    ~SimPhase()
    {
        if (trace != nullptr && trace->enabled())
            trace->endPhase(name, simNow());
    }

  private:
    CommandTrace *trace;
    std::string name;
    std::function<Time()> simNow;
};

} // namespace utrr

#endif // UTRR_OBS_TIMER_HH
