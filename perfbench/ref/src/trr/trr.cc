#include "trr/trr.hh"

#include "common/logging.hh"
#include "trr/vendor_a.hh"
#include "trr/vendor_b.hh"
#include "trr/vendor_c.hh"

namespace utrr
{

std::string
trrVersionName(TrrVersion version)
{
    switch (version) {
      case TrrVersion::kNone:
        return "none";
      case TrrVersion::kATrr1:
        return "A_TRR1";
      case TrrVersion::kATrr2:
        return "A_TRR2";
      case TrrVersion::kBTrr1:
        return "B_TRR1";
      case TrrVersion::kBTrr2:
        return "B_TRR2";
      case TrrVersion::kBTrr3:
        return "B_TRR3";
      case TrrVersion::kCTrr1:
        return "C_TRR1";
      case TrrVersion::kCTrr2:
        return "C_TRR2";
      case TrrVersion::kCTrr3:
        return "C_TRR3";
    }
    return "?";
}

std::unique_ptr<TrrMechanism>
makeTrr(TrrVersion version, int banks, std::uint64_t seed)
{
    switch (version) {
      case TrrVersion::kNone:
        return std::make_unique<NoTrr>();
      case TrrVersion::kATrr1:
      case TrrVersion::kATrr2:
        return std::make_unique<VendorATrr>(
            banks, VendorATrr::Params{16, 9});
      // The chip-wide samplers of B_TRR1/B_TRR2 sample sparsely; the
      // per-bank sampler of B_TRR3 samples aggressively. The split is
      // calibrated so each version reproduces the paper's attack
      // behaviour (see DESIGN.md).
      case TrrVersion::kBTrr1:
        return std::make_unique<VendorBTrr>(
            banks, VendorBTrr::Params{4, false, 1.0 / 115.0}, seed);
      case TrrVersion::kBTrr2:
        return std::make_unique<VendorBTrr>(
            banks, VendorBTrr::Params{9, false, 1.0 / 115.0}, seed);
      case TrrVersion::kBTrr3:
        return std::make_unique<VendorBTrr>(
            banks, VendorBTrr::Params{2, true, 1.0 / 24.0}, seed);
      case TrrVersion::kCTrr1:
        return std::make_unique<VendorCTrr>(
            banks, VendorCTrr::Params{17, 2'048, 1.0 / 128.0}, seed);
      case TrrVersion::kCTrr2:
        return std::make_unique<VendorCTrr>(
            banks, VendorCTrr::Params{9, 2'048, 1.0 / 128.0}, seed);
      case TrrVersion::kCTrr3:
        return std::make_unique<VendorCTrr>(
            banks, VendorCTrr::Params{8, 1'024, 1.0 / 128.0}, seed);
    }
    panic("unknown TRR version");
}

TrrTraits
trrTraits(TrrVersion version)
{
    switch (version) {
      case TrrVersion::kNone:
        return {0, 0, 0, false, "none"};
      case TrrVersion::kATrr1:
        return {9, 4, 16, true, "counter-based"};
      case TrrVersion::kATrr2:
        return {9, 2, 16, true, "counter-based"};
      case TrrVersion::kBTrr1:
        return {4, 2, 1, false, "sampling-based"};
      case TrrVersion::kBTrr2:
        return {9, 2, 1, false, "sampling-based"};
      case TrrVersion::kBTrr3:
        return {2, 4, 1, true, "sampling-based"};
      case TrrVersion::kCTrr1:
        return {17, 2, -1, true, "mix"};
      case TrrVersion::kCTrr2:
        return {9, 2, -1, true, "mix"};
      case TrrVersion::kCTrr3:
        return {8, 2, -1, true, "mix"};
    }
    panic("unknown TRR version");
}

} // namespace utrr
