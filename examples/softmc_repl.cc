/**
 * @file
 * SoftMC program runner: execute a text program (see
 * src/softmc/assembler.hh for the grammar) against a simulated module
 * and print every captured READ — the simulated twin of running a
 * hand-written SoftMC test program on the FPGA platform.
 *
 * Usage:
 *   softmc_repl [MODULE] <program.smc
 *   softmc_repl [MODULE] program.smc
 *
 * A program that breaks the host's protocol (an access to a closed
 * bank, an ACT to an open one, an address out of range) is rejected
 * with its first offence and exit code 1.
 *
 * Example program (demonstrates the retention side channel U-TRR is
 * built on):
 *
 *   WRITE 0 100 ones
 *   WAIT 3000ms        # refresh disabled: weak rows decay
 *   READ 0 100
 *   WRITE 0 100 ones
 *   WAITREF 3000ms     # refreshing at the default rate: no decay
 *   READ 0 100
 */

#include <fstream>
#include <iostream>
#include <sstream>

#include "check/fuzzer.hh"
#include "common/logging.hh"
#include "dram/module.hh"
#include "softmc/assembler.hh"
#include "softmc/host.hh"

using namespace utrr;

int
main(int argc, char **argv)
{
    setLogLevel(LogLevel::kWarn);
    std::string module_name = "A5";
    std::string path;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (findModuleSpec(arg))
            module_name = arg;
        else
            path = arg;
    }

    std::stringstream text;
    if (path.empty()) {
        text << std::cin.rdbuf();
    } else {
        std::ifstream file(path);
        if (!file)
            fatal("cannot open " + path);
        text << file.rdbuf();
    }

    const AssembleResult assembled = assembleProgram(text.str());
    if (!assembled.ok())
        fatal(assembled.error);

    // The text is outside input: reject a program the host would
    // assert on (closed-bank access, double ACT, out-of-range address)
    // before running it.
    const ModuleSpec spec = *findModuleSpec(module_name);
    const std::string invalid = validateProgram(spec, assembled.program);
    if (!invalid.empty())
        fatal(invalid);
    DramModule module(spec, 99);
    SoftMcHost host(module);
    std::cout << "running " << assembled.program.size()
              << " instructions on module " << spec.name << "\n";

    const ExecResult result = host.execute(assembled.program);
    std::cout << "simulated time: "
              << nsToMs(result.endTime - result.startTime) << " ms, "
              << host.actCount() << " ACTs, "
              << host.refCommandCount() << " REFs\n";

    for (const ReadRecord &read : result.reads) {
        const auto &readout = read.readout;
        // Diff against what the row last stored is not known here; show
        // the raw committed flips instead.
        std::cout << "READ bank " << read.bank << " row " << read.row
                  << " @ " << nsToMs(read.when) << " ms: "
                  << readout.rawFlips().size() << " flipped cells";
        if (!readout.rawFlips().empty()) {
            std::cout << " (cols";
            for (std::size_t i = 0;
                 i < readout.rawFlips().size() && i < 8; ++i)
                std::cout << " " << readout.rawFlips()[i];
            if (readout.rawFlips().size() > 8)
                std::cout << " ...";
            std::cout << ")";
        }
        std::cout << "\n";
    }
    return 0;
}
