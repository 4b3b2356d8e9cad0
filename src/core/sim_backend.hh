/**
 * @file
 * The production simulator behind the DeviceBackend seam.
 *
 * SimBackend builds and owns a DramModule and the SoftMcHost driving
 * it (conformance tests, oracles, recording sessions; DESIGN.md §16).
 */

#ifndef UTRR_CORE_SIM_BACKEND_HH
#define UTRR_CORE_SIM_BACKEND_HH

#include <memory>

#include "core/device_backend.hh"
#include "dram/module.hh"
#include "softmc/host.hh"

namespace utrr
{

class SimBackend : public DeviceBackend
{
  public:
    /** Build a fresh module + host. */
    SimBackend(const ModuleSpec &spec, std::uint64_t seed,
               const RetentionModelConfig *retention_overrides = nullptr,
               Timing timing = {});

    std::string name() const override { return "sim"; }
    const ModuleSpec &spec() const override { return mod->spec(); }
    BackendResult execute(const Program &program) override;
    Time now() const override { return mc->now(); }
    BackendAccounting accounting() const override;
    std::vector<TraceEvent> traceEvents() const override
    {
        return mc->trace().events();
    }

    /**
     * Select the execution tier (DESIGN.md §17): kCompiled folds
     * hammer bursts, a program's runs of ACT+PRE pairs on one row
     * included, kInterpreted runs one command at a time. Both are
     * bit-identical; new backends start in
     * SoftMcHost::defaultExecMode().
     */
    void setExecMode(ExecMode mode) { mc->setExecMode(mode); }
    ExecMode execMode() const { return mc->execMode(); }

    // --- escape hatch ---------------------------------------------------
    // The immediate host API (hammer, refBurst, multi-bank timing)
    // cannot be expressed as a serial Program; harnesses that need it
    // reach through here. Conformance applies to the Program surface.
    DramModule &module() { return *mod; }
    SoftMcHost &host() { return *mc; }
    const SoftMcHost &host() const { return *mc; }

  private:
    std::unique_ptr<DramModule> mod;
    std::unique_ptr<SoftMcHost> mc;
};

} // namespace utrr

#endif // UTRR_CORE_SIM_BACKEND_HH
