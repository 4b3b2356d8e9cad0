/**
 * @file
 * Command-stream pins of the attack patterns (paper §7.1-§7.4).
 *
 * Every pattern the attack benches run — the per-vendor custom
 * patterns at default parameters and at one Fig. 8 hammer override,
 * the four baselines, one TRRespass comb, and two custom patterns
 * under PARA — runs one victim position twice on a fresh module:
 * for 3P+5 REF slots (P = the module's TRR-to-REF period) on a traced
 * host, and untraced for the module's full refresh window, the only
 * window long enough to flip bits. Each run is reduced to flips per
 * victim row, the per-word flip histogram, the host's ACT count, the
 * final clock, the module's TRR refresh count and (traced run) the
 * command trace's content hash. Any change to what a pattern issues,
 * in what order or at what time, moves the pin.
 */

#include <gtest/gtest.h>

#include <iomanip>
#include <sstream>
#include <string>

#include "attack/sweep.hh"
#include "attack/trrespass.hh"
#include "dram/module.hh"
#include "mitigation/para.hh"
#include "softmc/host.hh"

namespace utrr
{
namespace
{

constexpr std::uint64_t kSeed = 2021;

/** One run's host: traced for 3P+5 slots, or untraced for the full
 *  refresh window. */
struct PinRig
{
    PinRig(const std::string &name, bool full_window)
        : spec(*findModuleSpec(name)), module(spec, kSeed), host(module),
          mapping(spec.scramble, spec.rowsPerBank), full(full_window)
    {
        if (!full)
            host.trace().enable(1 << 18);
    }

    int
    windowRefs() const
    {
        return full ? 0 : 3 * spec.traits().trrToRefPeriod + 5;
    }

    SweepConfig
    sweepConfig(int aggressor_hammers = 0) const
    {
        SweepConfig cfg;
        cfg.positions = 1;
        cfg.windowRefs = windowRefs();
        cfg.aggressorHammers = aggressor_hammers;
        return cfg;
    }

    /** Host-side tail of every pin line. */
    std::string
    hostDigest() const
    {
        EXPECT_EQ(host.trace().dropped(), 0U) << "trace ring too small";
        std::ostringstream oss;
        oss << "acts=" << host.actCount() << " clock=" << host.now()
            << " trr=" << module.trrRefreshCount();
        if (!full)
            oss << " hash=0x" << std::hex << host.trace().contentHash();
        return oss.str();
    }

    std::string
    digest(const SweepResult &sweep) const
    {
        std::ostringstream oss;
        oss << "flips=[";
        for (std::size_t i = 0; i < sweep.flipsPerRow.size(); ++i)
            oss << (i ? "," : "") << sweep.flipsPerRow[i];
        oss << "] words={";
        bool first = true;
        for (const auto &[count, n] : sweep.wordFlips.bins()) {
            oss << (first ? "" : ",") << count << ":" << n;
            first = false;
        }
        oss << "} " << hostDigest();
        return oss.str();
    }

    ModuleSpec spec;
    DramModule module;
    SoftMcHost host;
    DiscoveredMapping mapping;
    bool full;
};

/** "<traced 3P+5-slot run> | <full-window run>" of @p run. */
template <typename Run>
std::string
pinLine(const std::string &name, Run &&run)
{
    PinRig traced(name, false);
    PinRig full(name, true);
    return run(traced) + " | " + run(full);
}

std::string
customPin(const std::string &name, int aggressor_hammers,
          bool under_para = false)
{
    return pinLine(name, [&](PinRig &rig) {
        Para::Params params;
        params.probability = 0.01;
        Para para(params, kSeed);
        if (under_para)
            rig.host.attachMitigation(&para);
        return rig.digest(sweepCustomPattern(
            rig.host, rig.mapping, defaultCustomParams(rig.spec),
            rig.sweepConfig(aggressor_hammers)));
    });
}

struct Pin
{
    const char *module;
    int hammers; // 0 = the vendor default
    const char *expected;
};

TEST(AttackPins, CustomPatternsAtDefaultParameters)
{
    const Pin pins[] = {
        {"A5", 0,
         "flips=[0] words={}"
         " acts=4684 clock=320020 trr=16 hash=0x33e5e7c0d7826313"
         " | flips=[0] words={}"
         " acts=541228 clock=29382820 trr=1672"},
        {"B8", 0,
         "flips=[0] words={}"
         " acts=4476 clock=195220 trr=10 hash=0xa98d4bf4ecea93a5"
         " | flips=[34] words={1:16,2:6,3:2}"
         " acts=2179140 clock=63960220 trr=4098"},
        // B13's one-row dummy fill is a same-bank burst: only the
        // trace's ACT timestamps moved from a multi-bank round's start.
        {"B13", 0,
         "flips=[0] words={}"
         " acts=1675 clock=117220 trr=24 hash=0xedd1ae520f912360"
         " | flips=[72] words={1:15,2:14,3:5,4:2,6:1}"
         " acts=1220644 clock=63929020 trr=16388"},
        {"C0", 0,
         "flips=[0,0] words={}"
         " acts=8656 clock=741330 trr=4 hash=0xcab25a02f1b40107"
         " | flips=[0,0] words={}"
         " acts=1219964 clock=64202130 trr=482"},
        {"C7", 0,
         "flips=[0,0] words={}"
         " acts=8656 clock=741330 trr=4 hash=0xcab25a02f1b40107"
         " | flips=[19,26] words={1:25,2:7,3:2}"
         " acts=1219964 clock=64202130 trr=482"},
        {"C12", 0,
         "flips=[0] words={}"
         " acts=4631 clock=530620 trr=8 hash=0xd8def06d00f47ec"
         " | flips=[59] words={1:22,2:9,3:2,4:2,5:1}"
         " acts=1218876 clock=64202020 trr=2048"},
    };
    for (const Pin &pin : pins) {
        SCOPED_TRACE(pin.module);
        EXPECT_EQ(pin.expected, customPin(pin.module, pin.hammers));
    }
}

// One point of each vendor's Fig. 8 hammer sweep: B8 at 560 and B13 at
// 260 ask for more aggressor hammers than the window holds, and C7 at
// 1,230 leaves the dummy burst less than one slot.
TEST(AttackPins, CustomPatternsAtFig8Overrides)
{
    const Pin pins[] = {
        {"A5", 48,
         "flips=[0] words={}"
         " acts=4684 clock=320020 trr=16 hash=0xc29ffa91f1832ce7"
         " | flips=[0] words={}"
         " acts=541228 clock=29382820 trr=1672"},
        {"B8", 560,
         "flips=[0] words={}"
         " acts=2652 clock=195220 trr=10 hash=0x4aaab5664ad523f"
         " | flips=[0] words={}"
         " acts=1245252 clock=63960220 trr=4098"},
        {"B13", 260, // same-bank dummy burst, see above
         "flips=[0] words={}"
         " acts=1675 clock=117220 trr=24 hash=0x5f035a087831924"
         " | flips=[0] words={}"
         " acts=1220644 clock=63929020 trr=16388"},
        {"C0", 200,
         "flips=[0,0] words={}"
         " acts=8656 clock=741330 trr=4 hash=0xf0987305f078f94b"
         " | flips=[0,0] words={}"
         " acts=1219964 clock=64202130 trr=482"},
        {"C7", 1'230,
         "flips=[0,0] words={}"
         " acts=8610 clock=741330 trr=4 hash=0xf04187937bbcc475"
         " | flips=[0,0] words={}"
         " acts=1213216 clock=64202130 trr=482"},
        {"C12", 1'100,
         "flips=[0] words={}"
         " acts=4608 clock=530620 trr=8 hash=0x15016a04cd46b0a3"
         " | flips=[0] words={}"
         " acts=1212732 clock=64202020 trr=2048"},
    };
    for (const Pin &pin : pins) {
        SCOPED_TRACE(pin.module);
        EXPECT_EQ(pin.expected, customPin(pin.module, pin.hammers));
    }
}

// The baselines bind anchor-1+2i on every module; C7 is a paired-row
// module, where the custom patterns would bind pair rows instead.
TEST(AttackPins, Baselines)
{
    const std::pair<BaselineKind, const char *> pins[] = {
        {BaselineKind::kSingleSided,
         "flips=[0] words={}"
         " acts=8659 clock=741165 trr=4 hash=0xe2630385115e6a72"
         " | flips=[0] words={}"
         " acts=1220923 clock=64201965 trr=482"},
        {BaselineKind::kDoubleSided,
         "flips=[0] words={}"
         " acts=8604 clock=741220 trr=4 hash=0x7b13bda8278220ed"
         " | flips=[0] words={}"
         " acts=1212732 clock=64202020 trr=482"},
        {BaselineKind::kManySided9,
         "flips=[0] words={}"
         " acts=8387 clock=741605 trr=4 hash=0xe214eb9c6611acac"
         " | flips=[0] words={}"
         " acts=1179971 clock=64202405 trr=482"},
        {BaselineKind::kManySided19,
         "flips=[0] words={}"
         " acts=7781 clock=742155 trr=4 hash=0xc12e2dfd3ef08328"
         " | flips=[0] words={}"
         " acts=1089869 clock=64202955 trr=482"},
    };
    for (const auto &[kind, expected] : pins) {
        SCOPED_TRACE(baselineName(kind));
        EXPECT_EQ(expected, pinLine("C7", [&](PinRig &rig) {
                      return rig.digest(sweepBaseline(
                          rig.host, rig.mapping, kind, rig.sweepConfig()));
                  }));
    }
}

TEST(AttackPins, TrrespassComb)
{
    const char *expected =
        "flips=0"
        " acts=2473 clock=133975 trr=8 hash=0x57369de9774bf0ca"
        " | flips=0"
        " acts=1179673 clock=63898975 trr=4096";
    FuzzedPattern shape;
    shape.sides = 9;
    shape.spacing = 2;
    EXPECT_EQ(expected, pinLine("B8", [&](PinRig &rig) {
                  TrrespassFuzzer::Config cfg;
                  cfg.windowRefs = rig.windowRefs();
                  cfg.positions = 1;
                  TrrespassFuzzer fuzzer(rig.host, rig.mapping, cfg, 53);
                  const int flips = fuzzer.evaluateShape(shape);
                  return "flips=" + std::to_string(flips) + " " +
                      rig.hostDigest();
              }));
}

// PARA's victim refreshes cost bus time, so slots overrun and the
// evaluator drops whole slots to pay the debt. Every slot plays its
// stateless plan: vendor B's dummy fill is planned, not sized from the
// time left after PARA's refreshes, and neither B's aggressor quota nor
// C's dummy burst carries over from a slot lost to the debt.
TEST(AttackPins, CustomPatternsUnderPara)
{
    const Pin pins[] = {
        {"B8", 0,
         "flips=[0] words={}"
         " acts=4560 clock=199420 trr=10 hash=0xd71477b3bc46d20d"
         " | flips=[0] words={}"
         " acts=2157926 clock=66094920 trr=4098"},
        {"C9", 0,
         "flips=[0] words={}"
         " acts=5172 clock=551020 trr=8 hash=0x23d072dc3fbbbc05"
         " | flips=[0] words={}"
         " acts=1220977 clock=65307470 trr=1822"},
    };
    for (const Pin &pin : pins) {
        SCOPED_TRACE(pin.module);
        EXPECT_EQ(pin.expected, customPin(pin.module, pin.hammers, true));
    }
}

} // namespace
} // namespace utrr
