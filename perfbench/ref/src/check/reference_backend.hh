/**
 * @file
 * DeviceBackend adapter over the naive ReferenceModule interpreter.
 *
 * Gives the shadow model the same seam as the production simulator so
 * the oracle suite and the backend conformance battery can drive both
 * through one interface. The reference interpreter records no command
 * trace (contract point 3: traceEvents() stays empty) — timing-legality
 * checks apply to the backends that do.
 */

#ifndef UTRR_CHECK_REFERENCE_BACKEND_HH
#define UTRR_CHECK_REFERENCE_BACKEND_HH

#include <map>

#include "check/reference_module.hh"
#include "core/device_backend.hh"

namespace utrr
{

class ReferenceBackend : public DeviceBackend
{
  public:
    ReferenceBackend(const ModuleSpec &spec, std::uint64_t seed,
                     const RetentionModelConfig *retention_overrides =
                         nullptr,
                     Timing timing = {});

    std::string name() const override { return "reference"; }
    const ModuleSpec &spec() const override { return moduleSpec; }
    BackendResult execute(const Program &program) override;
    Time now() const override { return ref.now(); }
    BackendAccounting accounting() const override;

    bool supportsSnapshot() const override { return true; }
    std::uint64_t snapshot() override;
    void restore(std::uint64_t token) override;
    void dropSnapshot(std::uint64_t token) override;

    /** The wrapped interpreter (oracle harness escape hatch). */
    ReferenceModule &interpreter() { return ref; }

  private:
    ModuleSpec moduleSpec;
    ReferenceModule ref;
    std::map<std::uint64_t, ReferenceModule::Snapshot> snapshots;
    std::uint64_t nextToken = 1;
};

} // namespace utrr

#endif // UTRR_CHECK_REFERENCE_BACKEND_HH
