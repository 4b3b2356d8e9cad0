/**
 * @file
 * The production simulator behind the DeviceBackend seam.
 *
 * SimBackend builds and owns a DramModule and the SoftMcHost driving
 * it (conformance tests, oracles, recording sessions). Snapshots
 * combine DramModule::snapshot() with SoftMcHost::snapshotState(), so
 * a token rewinds the full device — bank state, TRR mechanism,
 * refresh-engine position, clock, command counters and trace — and
 * fork() stamps a snapshot into a freshly built module (DESIGN.md §16).
 */

#ifndef UTRR_CORE_SIM_BACKEND_HH
#define UTRR_CORE_SIM_BACKEND_HH

#include <map>
#include <memory>

#include "core/device_backend.hh"
#include "dram/module.hh"
#include "softmc/host.hh"

namespace utrr
{

/** A full-device snapshot: module and host state taken together. */
struct DeviceSnapshot
{
    DramModule::Snapshot module;
    SoftMcHost::Snapshot host;
};

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

    bool supportsSnapshot() const override { return true; }
    std::uint64_t snapshot() override;
    void restore(std::uint64_t token) override;
    void dropSnapshot(std::uint64_t token) override;

    /**
     * Capture the device state as a standalone snapshot (not tracked
     * by a token). Restorable onto this backend or onto any SimBackend
     * built from the same (spec, seed, retention model) — the fork
     * path.
     */
    DeviceSnapshot captureDevice() const;

    /** Restore a standalone snapshot (see DramModule::restore). */
    void restoreDevice(const DeviceSnapshot &snap);

    /**
     * Fork: a new owning SimBackend over a fresh module built from
     * this backend's (spec, seed, retention model), rewound to
     * @p snap. Mutating the fork never perturbs this backend (and vice
     * versa) — row contents are shared copy-on-write, everything else
     * is per-instance.
     */
    std::unique_ptr<SimBackend> fork(const DeviceSnapshot &snap) const;

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
    std::map<std::uint64_t, DeviceSnapshot> snapshots;
    std::uint64_t nextToken = 1;
};

} // namespace utrr

#endif // UTRR_CORE_SIM_BACKEND_HH
