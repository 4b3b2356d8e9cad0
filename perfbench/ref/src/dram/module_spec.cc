#include "dram/module_spec.hh"

#include "common/logging.hh"

namespace utrr
{

namespace
{

/** Vendor A refreshes internally faster than spec (Obs. A8). */
constexpr int kVendorARefreshPeriod = 3'758;
constexpr int kNominalRefreshPeriod = 8'192;

ModuleSpec
base(std::string name, char vendor, std::string date, int density,
     int ranks, int banks, int pins, double hc_first, TrrVersion trr)
{
    ModuleSpec spec;
    spec.name = std::move(name);
    spec.vendor = vendor;
    spec.date = std::move(date);
    spec.chipDensityGbit = density;
    spec.ranks = ranks;
    spec.banks = banks;
    spec.pins = pins;
    // The paper notes 16-bank modules have 32K-row banks and 8-bank
    // modules 64K-row banks (§7.3).
    spec.rowsPerBank = banks == 16 ? 32 * 1024 : 64 * 1024;
    spec.hcFirst = hc_first;
    spec.trr = trr;
    spec.refreshPeriodRefs =
        vendor == 'A' ? kVendorARefreshPeriod : kNominalRefreshPeriod;
    // Vendor A modules use a scrambled decoder; B sequential; C swaps
    // address bits 0/1 (arbitrary but fixed choices exercising §5.3).
    switch (vendor) {
      case 'A':
        spec.scramble = RowScramble::kSwapHalfPairs;
        break;
      case 'B':
        spec.scramble = RowScramble::kSequential;
        break;
      default:
        spec.scramble = RowScramble::kBitSwap01;
        break;
    }
    return spec;
}

ModuleSpec
withPaper(ModuleSpec spec, double vulnerable_pct, double max_flips)
{
    spec.paperVulnerableRowsPct = vulnerable_pct;
    spec.paperMaxFlipsPerHammer = max_flips;
    return spec;
}

std::vector<ModuleSpec>
buildSpecs()
{
    std::vector<ModuleSpec> specs;

    // --- Vendor A --------------------------------------------------
    specs.push_back(withPaper(
        base("A0", 'A', "19-50", 8, 1, 16, 8, 16'000, TrrVersion::kATrr1),
        73.3, 1.16));
    // A1-5: HC_first 13K-15K, 8 banks, x16. A5 is the most vulnerable
    // module of the group (used in Fig. 8), so it gets the low end.
    const double a15_hc[] = {15'000, 14'500, 14'000, 13'500, 13'000};
    const double a15_vuln[] = {99.2, 99.2, 99.3, 99.3, 99.4};
    const double a15_flips[] = {2.32, 2.9, 3.5, 4.1, 4.73};
    for (int i = 0; i < 5; ++i) {
        specs.push_back(withPaper(
            base(logFmt("A", 1 + i), 'A', "19-36", 8, 1, 8, 16,
                 a15_hc[i], TrrVersion::kATrr1),
            a15_vuln[i], a15_flips[i]));
    }
    specs.push_back(withPaper(
        base("A6", 'A', "19-45", 8, 1, 8, 16, 13'000,
             TrrVersion::kATrr1),
        99.4, 3.86));
    specs.push_back(withPaper(
        base("A7", 'A', "19-45", 8, 1, 8, 16, 15'000,
             TrrVersion::kATrr1),
        99.3, 2.12));
    specs.push_back(withPaper(
        base("A8", 'A', "20-07", 8, 1, 16, 8, 12'000,
             TrrVersion::kATrr1),
        75.0, 2.96));
    specs.push_back(withPaper(
        base("A9", 'A', "20-07", 8, 1, 16, 8, 14'000,
             TrrVersion::kATrr1),
        74.6, 1.96));
    const double a1012_hc[] = {12'000, 12'500, 13'000};
    const double a1012_flips[] = {2.86, 2.2, 1.48};
    for (int i = 0; i < 3; ++i) {
        specs.push_back(withPaper(
            base(logFmt("A", 10 + i), 'A', "19-51", 8, 1, 16, 8,
                 a1012_hc[i], TrrVersion::kATrr1),
            74.8, a1012_flips[i]));
    }
    specs.push_back(withPaper(
        base("A13", 'A', "20-31", 8, 1, 8, 16, 11'000,
             TrrVersion::kATrr2),
        98.6, 2.78));
    specs.push_back(withPaper(
        base("A14", 'A', "20-31", 8, 1, 8, 16, 14'000,
             TrrVersion::kATrr2),
        94.3, 1.53));

    // --- Vendor B --------------------------------------------------
    specs.push_back(withPaper(
        base("B0", 'B', "18-22", 4, 1, 16, 8, 44'000,
             TrrVersion::kBTrr1),
        99.9, 2.13));
    // B1-4: much stronger rows (HC_first 159K-192K).
    const double b14_hc[] = {159'000, 170'000, 181'000, 192'000};
    const double b14_vuln[] = {51.2, 42.0, 31.5, 23.3};
    const double b14_flips[] = {0.11, 0.09, 0.07, 0.06};
    for (int i = 0; i < 4; ++i) {
        specs.push_back(withPaper(
            base(logFmt("B", 1 + i), 'B', "20-17", 4, 1, 16, 8,
                 b14_hc[i], TrrVersion::kBTrr1),
            b14_vuln[i], b14_flips[i]));
    }
    specs.push_back(withPaper(
        base("B5", 'B', "16-48", 4, 1, 16, 8, 44'000,
             TrrVersion::kBTrr1),
        99.9, 2.03));
    specs.push_back(withPaper(
        base("B6", 'B', "16-48", 4, 1, 16, 8, 50'000,
             TrrVersion::kBTrr1),
        99.9, 1.85));
    specs.push_back(withPaper(
        base("B7", 'B', "19-06", 8, 2, 16, 8, 20'000,
             TrrVersion::kBTrr1),
        99.9, 31.14));
    specs.push_back(withPaper(
        base("B8", 'B', "18-03", 4, 1, 16, 8, 43'000,
             TrrVersion::kBTrr1),
        99.9, 2.57));
    const double b912_hc[] = {42'000, 50'000, 57'000, 65'000};
    const double b912_flips[] = {24.26, 21.5, 19.0, 16.83};
    for (int i = 0; i < 4; ++i) {
        specs.push_back(withPaper(
            base(logFmt("B", 9 + i), 'B', "19-48", 8, 1, 16, 8,
                 b912_hc[i], TrrVersion::kBTrr2),
            37.5, b912_flips[i]));
    }
    specs.push_back(withPaper(
        base("B13", 'B', "20-08", 4, 1, 16, 8, 11'000,
             TrrVersion::kBTrr3),
        99.9, 18.12));
    specs.push_back(withPaper(
        base("B14", 'B', "20-08", 4, 1, 16, 8, 14'000,
             TrrVersion::kBTrr3),
        99.9, 16.20));

    // --- Vendor C --------------------------------------------------
    const double c03_hc[] = {137'000, 156'000, 175'000, 194'000};
    const double c03_vuln[] = {23.2, 15.0, 7.0, 1.0};
    const double c03_flips[] = {0.15, 0.12, 0.08, 0.05};
    for (int i = 0; i < 4; ++i) {
        specs.push_back(withPaper(
            base(logFmt("C", i), 'C', "16-48", 4, 1, 16, 8,
                 c03_hc[i], TrrVersion::kCTrr1),
            c03_vuln[i], c03_flips[i]));
    }
    const double c46_hc[] = {130'000, 140'000, 150'000};
    const double c46_vuln[] = {12.0, 9.9, 7.8};
    const double c46_flips[] = {0.08, 0.07, 0.06};
    for (int i = 0; i < 3; ++i) {
        specs.push_back(withPaper(
            base(logFmt("C", 4 + i), 'C', "17-12", 8, 1, 16, 8,
                 c46_hc[i], TrrVersion::kCTrr1),
            c46_vuln[i], c46_flips[i]));
    }
    specs.push_back(withPaper(
        base("C7", 'C', "20-31", 8, 1, 8, 16, 40'000,
             TrrVersion::kCTrr1),
        41.8, 14.56));
    specs.push_back(withPaper(
        base("C8", 'C', "20-31", 8, 1, 8, 16, 44'000,
             TrrVersion::kCTrr1),
        39.8, 9.66));
    const double c911_hc[] = {42'000, 47'000, 53'000};
    const double c911_flips[] = {32.04, 20.0, 9.30};
    for (int i = 0; i < 3; ++i) {
        specs.push_back(withPaper(
            base(logFmt("C", 9 + i), 'C', "20-31", 8, 1, 8, 16,
                 c911_hc[i], TrrVersion::kCTrr2),
            99.7, c911_flips[i]));
    }
    const double c1214_hc[] = {6'000, 6'500, 7'000};
    const double c1214_flips[] = {12.64, 8.5, 4.91};
    for (int i = 0; i < 3; ++i) {
        specs.push_back(withPaper(
            base(logFmt("C", 12 + i), 'C', "20-46", 16, 1, 8, 16,
                 c1214_hc[i], TrrVersion::kCTrr3),
            99.9, c1214_flips[i]));
    }

    UTRR_ASSERT(specs.size() == 45, "Table 1 lists 45 modules");
    return specs;
}

} // namespace

const std::vector<ModuleSpec> &
allModuleSpecs()
{
    static const std::vector<ModuleSpec> specs = buildSpecs();
    return specs;
}

std::optional<ModuleSpec>
findModuleSpec(const std::string &name)
{
    for (const ModuleSpec &spec : allModuleSpecs()) {
        if (spec.name == name)
            return spec;
    }
    return std::nullopt;
}

} // namespace utrr
