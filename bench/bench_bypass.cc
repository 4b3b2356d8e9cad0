/**
 * @file
 * Per-TRR bypass table: the synthesizer pitted against every module.
 *
 * Extends the paper's TRRespass comparison (§1, §8): the uniform
 * fuzzer beats only a fraction of the modules, the hand-crafted §7.1
 * patterns beat most, and the non-uniform synthesizer (attack/synth)
 * closes the loop automatically. The deliverable is the bypass table —
 * for every TRR version, which pattern class beats the mechanism and
 * at what per-aggressor hammer budget — written to BENCH_bypass.json
 * as the bypass_table section of an ExperimentReport.
 *
 * Default run: all 45 modules (minutes on a few cores; --quick drops
 * to one module per Table-1 group, --module/--vendor narrow further).
 * The bypass table and the per-module verdicts are pure functions of
 * (seed, silicon seed, config) — byte-identical for any core count. The
 * report's deterministic projection also records the worker count
 * (results.jobs and the campaign.workers gauge), so two reports
 * recorded with different worker counts differ there and only there.
 */

#include <iostream>

#include "attack/synth.hh"
#include "bench_common.hh"
#include "obs/report.hh"
#include "trr/trr.hh"

using namespace utrr;
using namespace utrr::bench;

int
main(int argc, char **argv)
{
    const BenchArgs args = BenchArgs::parse(argc, argv);
    setLogLevel(LogLevel::kSilent);

    std::vector<ModuleSpec> specs;
    if (args.quick && args.module.empty()) {
        // One representative per Table-1 group (bench_trrespass's
        // selection), filtered by --vendor if given.
        for (const char *name : {"A0", "A5", "A13", "B0", "B1", "B7",
                                 "B9", "B13", "C0", "C7", "C9", "C12"}) {
            const ModuleSpec spec = *findModuleSpec(name);
            if (args.vendor == 0 || spec.vendor == args.vendor)
                specs.push_back(spec);
        }
    } else {
        specs = args.selectedModules();
    }

    SynthCampaignConfig cfg;
    cfg.jobs = 0; // all cores; the table and verdicts are jobs-invariant
    cfg.seed = 1;
    cfg.synth.moduleSeed = args.seed;
    if (args.quick)
        cfg.synth.attempts = 32;
    if (args.positions > 0)
        cfg.synth.positions = args.positions;

    std::cerr << "synthesizing for " << specs.size()
              << " module(s)...\n";
    const CampaignResult result = runSynthCampaign(specs, cfg);
    const Json table = bypassTable(result, specs);

    TextTable text("Per-TRR bypass table (synthesized patterns)");
    text.header({"TRR", "Beaten", "Pattern classes",
                 "Hammers/aggr/period", "Example", "Flips"});
    const Json *by_trr = table.find("by_trr");
    for (std::size_t i = 0; by_trr != nullptr && i < by_trr->size();
         ++i) {
        const Json &row = by_trr->at(i);
        std::string classes;
        if (const Json *cls = row.find("pattern_classes")) {
            for (std::size_t c = 0; c < cls->size(); ++c) {
                classes += (c == 0 ? "" : ", ");
                classes += cls->at(c).asString();
            }
        }
        std::string budget = "-";
        if (const Json *lo =
                row.find("min_hammers_per_aggr_per_period")) {
            budget = std::to_string(lo->asInt()) + "-" +
                std::to_string(
                    row.find("max_hammers_per_aggr_per_period")
                        ->asInt());
        }
        const Json *example = row.find("example_module");
        const Json *flips = row.find("example_flips");
        text.addRow(row.find("trr")->asString(),
                    std::to_string(row.find("beaten")->asInt()) + "/" +
                        std::to_string(row.find("modules")->asInt()),
                    classes.empty() ? "-" : classes, budget,
                    example != nullptr ? example->asString() : "-",
                    flips != nullptr ? flips->asInt() : 0);
    }
    text.print(std::cout);

    int beaten = 0;
    for (const ModuleResult &m : result.modules) {
        const Json *flag = m.verdict.find("beaten");
        beaten += (m.completed && flag != nullptr && flag->asBool())
            ? 1 : 0;
    }
    std::cout << "\nModules beaten: " << beaten << "/" << specs.size()
              << ".  (Paper: TRRespass 13/42, U-TRR custom 45/45.)\n";

    ExperimentReport report("bench_bypass");
    fillBypassReport(report, result, specs, cfg);
    const bool wrote = report.writeFile("BENCH_bypass.json");
    std::cout << (wrote ? "wrote" : "FAILED to write")
              << " BENCH_bypass.json\n";
    return wrote ? 0 : 1;
}
