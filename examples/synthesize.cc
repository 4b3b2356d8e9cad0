/**
 * @file
 * Non-uniform pattern synthesis CLI.
 *
 * Searches the Blacksmith-style pattern space per module (attack/synth)
 * and emits the per-TRR **bypass table**: which pattern class beats
 * which mechanism at what per-aggressor hammer budget. The search runs
 * on CampaignRunner jobs, so it parallelizes, journals and resumes
 * exactly like the fuzz CLI.
 *
 *   synthesize --modules all --jobs 0 --report bypass.json
 *   synthesize --modules A0,B0,C0 --budget 32 --emit-table table.json
 *   synthesize --modules all --journal synth.wal --resume
 *
 * The --emit-table artifact and the per-module verdicts are
 * bit-identical for any --jobs N. The report's deterministic projection
 * also records the worker count (results.jobs and the
 * campaign.workers gauge), so it matches only at equal --jobs.
 *
 * Exit status: 0 when every selected module was beaten, 1 when some
 * module resisted every candidate, 2 on usage errors, 3 when a job
 * exhausted its watchdog retry ladder, 4 when interrupted
 * (SIGINT/SIGTERM) — resumable with --journal FILE --resume.
 */

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "attack/synth.hh"
#include "dram/module_spec.hh"
#include "runner/cancellation.hh"
#include "trr/trr.hh"

using namespace utrr;

namespace
{

int
usage()
{
    std::cerr <<
        "usage: synthesize [options]\n"
        "  --modules LIST       comma-separated module names, or"
        " 'all'\n"
        "                       (default all)\n"
        "  --jobs J             worker threads (default 1; 0 = auto)\n"
        "  --budget N           candidate patterns per module\n"
        "  --positions N        victim anchors tried per candidate\n"
        "  --seed S             search stream seed (default 1)\n"
        "  --module-seed M      silicon seed (default 2021)\n"
        "  --window N           evaluation window in REF slots\n"
        "                       (default: full refresh period)\n"
        "  --no-minimize        keep winners unminimized\n"
        "  --journal FILE       crash-safe write-ahead result journal\n"
        "  --resume             reload finished modules from"
        " --journal\n"
        "  --emit-table FILE    write the bypass table alone (the\n"
        "                       jobs-invariant artifact)\n"
        "  --report FILE        write the full ExperimentReport\n"
        "  --list-modules       print module names and exit\n";
    return 2;
}

std::vector<ModuleSpec>
selectModules(const std::string &list)
{
    if (list.empty() || list == "all")
        return allModuleSpecs();
    std::vector<ModuleSpec> specs;
    std::istringstream is(list);
    std::string name;
    while (std::getline(is, name, ',')) {
        const auto spec = findModuleSpec(name);
        if (!spec) {
            std::cerr << "synthesize: unknown module " << name
                      << " (--list-modules)\n";
            std::exit(2);
        }
        specs.push_back(*spec);
    }
    return specs;
}

bool
writeText(const std::string &path, const std::string &text)
{
    std::ofstream os(path);
    os << text << "\n";
    if (!os) {
        std::cerr << "synthesize: cannot write " << path << "\n";
        return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string modules_arg = "all";
    std::string table_path;
    std::string report_path;
    SynthCampaignConfig cfg;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::cerr << "synthesize: " << arg
                          << " needs a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--modules") {
            modules_arg = next();
        } else if (arg == "--jobs") {
            cfg.jobs = std::stoi(next());
        } else if (arg == "--budget") {
            cfg.synth.attempts = std::stoi(next());
        } else if (arg == "--positions") {
            cfg.synth.positions = std::stoi(next());
        } else if (arg == "--seed") {
            cfg.seed = std::stoull(next());
        } else if (arg == "--module-seed") {
            cfg.synth.moduleSeed = std::stoull(next());
        } else if (arg == "--window") {
            cfg.synth.windowRefs = std::stoi(next());
        } else if (arg == "--no-minimize") {
            cfg.synth.minimize = false;
        } else if (arg == "--journal") {
            cfg.journalPath = next();
        } else if (arg == "--resume") {
            cfg.resume = true;
        } else if (arg == "--emit-table") {
            table_path = next();
        } else if (arg == "--report") {
            report_path = next();
        } else if (arg == "--list-modules") {
            for (const ModuleSpec &spec : allModuleSpecs())
                std::cout << spec.name << "\n";
            return 0;
        } else {
            return usage();
        }
    }

    const std::vector<ModuleSpec> specs = selectModules(modules_arg);
    std::cout << "synthesizing patterns for " << specs.size()
              << " module(s): " << cfg.synth.attempts
              << " candidates x " << cfg.synth.positions
              << " positions each, seed " << cfg.seed
              << ", silicon seed " << cfg.synth.moduleSeed << "\n";
    if (!cfg.journalPath.empty()) {
        std::cout << "write-ahead journal: " << cfg.journalPath
                  << (cfg.resume ? " (resuming)" : "") << "\n";
    }

    // SIGINT/SIGTERM stop the campaign cooperatively: finished modules
    // are already journaled, in-flight ones re-run on --resume.
    installStopSignalHandlers();
    cfg.stopFlag = stopFlagPtr();

    const CampaignResult result = runSynthCampaign(specs, cfg);
    const Json table = bypassTable(result, specs);

    // Per-mechanism roll-up on stdout.
    if (const Json *by_trr = table.find("by_trr")) {
        for (std::size_t i = 0; i < by_trr->size(); ++i) {
            const Json &row = by_trr->at(i);
            std::cout << "  " << row.find("trr")->asString() << ": "
                      << row.find("beaten")->asInt() << "/"
                      << row.find("modules")->asInt() << " beaten";
            if (const Json *cls = row.find("pattern_classes")) {
                std::cout << " [";
                for (std::size_t c = 0; c < cls->size(); ++c) {
                    std::cout << (c == 0 ? "" : ", ")
                              << cls->at(c).asString();
                }
                std::cout << "]";
            }
            std::cout << "\n";
        }
    }

    int beaten = 0;
    int completed = 0;
    for (const ModuleResult &m : result.modules) {
        if (!m.completed)
            continue;
        ++completed;
        const Json *flag = m.verdict.find("beaten");
        beaten += (flag != nullptr && flag->asBool()) ? 1 : 0;
    }
    std::cout << beaten << "/" << completed
              << " module(s) beaten on " << result.jobsUsed
              << " worker(s) in " << result.wallMs << " ms\n";
    if (result.journaledJobs > 0) {
        std::cout << result.journaledJobs
                  << " module(s) restored from journal, "
                  << result.scheduledJobs << " scheduled\n";
    }

    if (!table_path.empty() && !writeText(table_path, table.dump(1)))
        return 2;
    if (!report_path.empty()) {
        ExperimentReport report("synthesize");
        fillBypassReport(report, result, specs, cfg);
        if (!report.writeFile(report_path))
            return 2;
    }

    if (result.interrupted) {
        std::cout << "INTERRUPTED: " << result.pendingJobs
                  << " module(s) pending"
                  << (cfg.journalPath.empty()
                          ? "" : "; rerun with --resume to continue")
                  << "\n";
        return 4;
    }
    if (result.quarantinedJobs > 0) {
        std::cout << result.quarantinedJobs
                  << " module(s) QUARANTINED (watchdog retry ladder "
                     "exhausted)\n";
        return 3;
    }
    return beaten == completed ? 0 : 1;
}
