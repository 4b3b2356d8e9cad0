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

    /** The wrapped interpreter (oracle harness escape hatch). */
    ReferenceModule &interpreter() { return ref; }

  private:
    ModuleSpec moduleSpec;
    ReferenceModule ref;
};

} // namespace utrr

#endif // UTRR_CHECK_REFERENCE_BACKEND_HH
