/**
 * @file
 * Pattern-synthesizer unit tests (DESIGN.md §15).
 *
 * Pins the three contracts the synthesizer's determinism rests on:
 *  - lowering determinism: the same drawn pattern compiles to the same
 *    softmc::Program text, and AttackEvaluator's live slots emit
 *    exactly the command stream the lowering compiles;
 *  - protocol compliance: every lowered pattern keeps the REF cadence
 *    (one REF per tREFI, slot budget respected) and passes the DDR
 *    TimingChecker;
 *  - format stability: the pattern text serialization round-trips, and
 *    the checked-in per-vendor bypass anchors under tests/corpus/
 *    replay byte-identically (the synthesis golden regression).
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "attack/evaluator.hh"
#include "attack/synth.hh"
#include "dram/module.hh"
#include "obs/json.hh"
#include "softmc/assembler.hh"
#include "softmc/host.hh"
#include "softmc/timing_checker.hh"

#ifndef UTRR_CORPUS_DIR
#error "UTRR_CORPUS_DIR must point at the checked-in corpus"
#endif

namespace utrr
{
namespace
{

const ModuleSpec &
spec(const std::string &name)
{
    static std::vector<ModuleSpec> specs = allModuleSpecs();
    for (const ModuleSpec &s : specs) {
        if (s.name == name)
            return s;
    }
    throw std::runtime_error("unknown module " + name);
}

HammerPattern
decoyShape()
{
    HammerPattern p;
    p.basePeriod = 1;
    PatternElement aggr;
    aggr.kind = ElementKind::kAggressors;
    aggr.rows = 2;
    aggr.amplitude = 24;
    PatternElement decoys;
    decoys.kind = ElementKind::kDummies;
    decoys.rows = 16;
    p.elements = {aggr, decoys};
    return p;
}

HammerPattern
multiBankShape()
{
    HammerPattern p;
    p.basePeriod = 4;
    PatternElement aggr;
    aggr.kind = ElementKind::kAggressors;
    aggr.rows = 2;
    aggr.frequency = 4;
    aggr.span = 1;
    aggr.amplitude = 40;
    PatternElement fill;
    fill.kind = ElementKind::kDummies;
    fill.rows = 4;
    fill.banks = 4;
    fill.frequency = 1;
    fill.span = 4;
    p.elements = {aggr, fill};
    return p;
}

// --- lowering determinism --------------------------------------------

TEST(Synth, DrawIsDeterministic)
{
    const SynthRanges ranges;
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
        Rng a(seed);
        Rng b(seed);
        const HammerPattern pa = drawPattern(a, ranges, 9);
        const HammerPattern pb = drawPattern(b, ranges, 9);
        EXPECT_EQ(serializeHammerPattern(pa),
                  serializeHammerPattern(pb));
    }
}

TEST(Synth, LoweringIsDeterministic)
{
    const ModuleSpec &a0 = spec("A0");
    const DiscoveredMapping mapping(a0.scramble, a0.rowsPerBank);
    Rng rng(7);
    const SynthRanges ranges;
    for (int i = 0; i < 10; ++i) {
        const HammerPattern drawn = drawPattern(rng, ranges, 9);
        const PatternBinding binding =
            bindPattern(drawn, a0, mapping, 0, 5'000);

        // Twice from the same object, once from a round-tripped copy:
        // the program text must not depend on anything but the data.
        HammerPattern reparsed;
        ASSERT_EQ("", parseHammerPattern(
                          serializeHammerPattern(drawn), reparsed));
        const std::string once = disassembleProgram(
            lowerToProgram(drawn, binding, Timing{}, 32));
        EXPECT_EQ(once, disassembleProgram(lowerToProgram(
                            drawn, binding, Timing{}, 32)));
        EXPECT_EQ(once, disassembleProgram(lowerToProgram(
                            reparsed, binding, Timing{}, 32)));
        EXPECT_NE(once.find("REF"), std::string::npos);
    }
}

TEST(Synth, LiveAdapterEmitsTheLoweredStream)
{
    // AttackEvaluator's slots (what every attack executes) and
    // lowerToProgram (what the corpus/timing tests compile) must
    // consume the same slot plan. Same-bank patterns match command for
    // command; multi-bank fills are truncated in the serial program
    // form, so there the aggressor stream and REF cadence must still
    // agree while the lowered fill carries at most as many ACTs.
    const ModuleSpec &b0 = spec("B0");
    const DiscoveredMapping mapping(b0.scramble, b0.rowsPerBank);
    const int slots = 24;
    for (const HammerPattern &p : {decoyShape(), multiBankShape()}) {
        SCOPED_TRACE(serializeHammerPattern(p));
        const PatternBinding binding =
            bindPattern(p, b0, mapping, 0, 9'000);

        DramModule lowered_module(b0, 2021);
        SoftMcHost lowered_host(lowered_module);
        lowered_host.trace().enable(1 << 20);
        lowered_host.execute(
            lowerToProgram(p, binding, lowered_host.timing(), slots));

        DramModule live_module(b0, 2021);
        SoftMcHost live_host(live_module);
        live_host.trace().enable(1 << 20);
        AttackEvaluator live(live_host);
        const Time budget =
            live_host.timing().tREFI - live_host.timing().tRFC;
        for (int slot = 0; slot < slots; ++slot) {
            const Time start = live_host.now();
            live.runSlot(p, binding, static_cast<std::uint64_t>(slot));
            live_host.wait(budget - (live_host.now() - start));
            live_host.ref();
        }

        ASSERT_EQ(lowered_host.now(), live_host.now());
        const auto acts_of = [&](const SoftMcHost &host,
                                 bool aggressors_only) {
            std::vector<std::pair<Bank, Row>> acts;
            for (const TraceEvent &e : host.trace().events()) {
                if (e.kind != TraceKind::kAct)
                    continue;
                const bool is_aggr = e.bank == binding.bank &&
                    (e.row == binding.aggressors[0] ||
                     e.row == binding.aggressors[1]);
                if (!aggressors_only || is_aggr)
                    acts.emplace_back(e.bank, e.row);
            }
            return acts;
        };
        const auto refs_of = [](const SoftMcHost &host) {
            int refs = 0;
            for (const TraceEvent &e : host.trace().events())
                refs += e.kind == TraceKind::kRef ? 1 : 0;
            return refs;
        };

        EXPECT_EQ(refs_of(lowered_host), slots);
        EXPECT_EQ(refs_of(live_host), slots);
        const auto lowered_aggr = acts_of(lowered_host, true);
        EXPECT_GT(lowered_aggr.size(), 0U);
        EXPECT_EQ(lowered_aggr, acts_of(live_host, true));
        if (p.dummyBankCount() <= 1) {
            EXPECT_EQ(acts_of(lowered_host, false),
                      acts_of(live_host, false));
        } else {
            EXPECT_LE(acts_of(lowered_host, false).size(),
                      acts_of(live_host, false).size());
        }
    }
}

// --- slot budget / REF compliance ------------------------------------

TEST(Synth, LoweredPatternsKeepTheRefCadence)
{
    // Every slot must cost exactly tREFI (bursts + wait pad + REF):
    // a synthesized pattern can never stretch the refresh interval.
    const ModuleSpec &c0 = spec("C0");
    const DiscoveredMapping mapping(c0.scramble, c0.rowsPerBank);
    Rng rng(11);
    const SynthRanges ranges;
    const int slots = 32;
    for (int i = 0; i < 10; ++i) {
        const HammerPattern p = drawPattern(rng, ranges, 17);
        const PatternBinding binding =
            bindPattern(p, c0, mapping, 0, 4'000);
        DramModule module(c0, 2021);
        SoftMcHost host(module);
        const Time t0 = host.now();
        host.execute(
            lowerToProgram(p, binding, host.timing(), slots));
        EXPECT_EQ(host.now() - t0,
                  static_cast<Time>(slots) * host.timing().tREFI)
            << serializeHammerPattern(p);
    }
}

TEST(Synth, LoweredPatternsAreTimingClean)
{
    const ModuleSpec &b13 = spec("B13");
    const DiscoveredMapping mapping(b13.scramble, b13.rowsPerBank);
    Rng rng(13);
    const SynthRanges ranges;
    for (int i = 0; i < 10; ++i) {
        const HammerPattern p = drawPattern(rng, ranges, 2);
        const PatternBinding binding =
            bindPattern(p, b13, mapping, 0, 7'000);
        DramModule module(b13, 2021);
        SoftMcHost host(module);
        host.trace().enable(1 << 20);
        host.execute(lowerToProgram(p, binding, host.timing(), 32));

        TimingChecker checker(host.timing(), b13.banks);
        for (const TraceEvent &event : host.trace().events()) {
            switch (event.kind) {
              case TraceKind::kAct:
                checker.onAct(event.bank, event.row, event.start);
                break;
              case TraceKind::kPre:
                checker.onPre(event.bank, event.start);
                break;
              case TraceKind::kRef:
                checker.onRef(event.start);
                break;
              default:
                break;
            }
        }
        EXPECT_TRUE(checker.clean())
            << serializeHammerPattern(p) << "first: "
            << (checker.violations().empty()
                    ? ""
                    : checker.violations().front().detail);
    }
}

// --- text serialization ----------------------------------------------

TEST(Synth, SerializationRoundTrips)
{
    Rng rng(3);
    const SynthRanges ranges;
    for (int i = 0; i < 200; ++i) {
        const HammerPattern p = drawPattern(rng, ranges, 9);
        const std::string text = serializeHammerPattern(p);
        HammerPattern back;
        ASSERT_EQ("", parseHammerPattern(text, back)) << text;
        EXPECT_EQ(text, serializeHammerPattern(back));
        EXPECT_EQ("", validatePattern(back));
    }
}

TEST(Synth, ParserRejectsMalformedText)
{
    HammerPattern out;
    EXPECT_NE("", parseHammerPattern("", out));
    EXPECT_NE("", parseHammerPattern("hammer-pattern v2\nperiod 1\n",
                                     out));
    EXPECT_NE("", parseHammerPattern(
                      "hammer-pattern v1\nperiod 0\n", out));
    EXPECT_NE("",
              parseHammerPattern("hammer-pattern v1\nperiod 4\n"
                                 "elem kind=bogus rows=1\n",
                                 out));
    // Structurally well-formed text still goes through the semantic
    // validator: a dummy-only pattern is rejected at parse time.
    EXPECT_EQ("pattern has no aggressor element",
              parseHammerPattern(
                  "hammer-pattern v1\nperiod 2\n"
                  "elem kind=dummy rows=4 banks=1 freq=1 "
                  "phase=0 span=2 amp=0\n",
                  out));
}

TEST(Synth, ClassifiesTheFourShapes)
{
    HammerPattern uniform;
    uniform.basePeriod = 1;
    PatternElement aggr;
    aggr.kind = ElementKind::kAggressors;
    uniform.elements = {aggr};
    EXPECT_EQ("uniform", patternClass(uniform));

    EXPECT_EQ("decoy-evict", patternClass(decoyShape()));

    HammerPattern early;
    early.basePeriod = 8;
    PatternElement early_aggr;
    early_aggr.kind = ElementKind::kAggressors;
    early_aggr.frequency = 8;
    early_aggr.span = 2;
    PatternElement fill;
    fill.kind = ElementKind::kDummies;
    fill.rows = 4;
    fill.span = 8;
    fill.frequency = 1;
    early.elements = {early_aggr, fill};
    EXPECT_EQ("early-aggr", patternClass(early));

    HammerPattern window;
    window.basePeriod = 8;
    PatternElement burst;
    burst.kind = ElementKind::kDummies;
    burst.rows = 2;
    burst.frequency = 8;
    burst.span = 3;
    PatternElement late_aggr;
    late_aggr.kind = ElementKind::kAggressors;
    late_aggr.frequency = 8;
    late_aggr.phase = 3;
    late_aggr.span = 5;
    window.elements = {burst, late_aggr};
    EXPECT_EQ("window-fill", patternClass(window));
}

// --- binding ----------------------------------------------------------

TEST(Synth, BindingPlacesAggressorsAndFarDummies)
{
    const ModuleSpec &b0 = spec("B0");
    const DiscoveredMapping mapping(b0.scramble, b0.rowsPerBank);
    const HammerPattern p = decoyShape();
    const PatternBinding binding =
        bindPattern(p, b0, mapping, 2, 9'000);
    EXPECT_EQ(2, binding.bank);
    ASSERT_EQ(2U, binding.aggressors.size());
    EXPECT_EQ(mapping.toLogical(8'999), binding.aggressors[0]);
    EXPECT_EQ(mapping.toLogical(9'001), binding.aggressors[1]);
    ASSERT_EQ(16U, binding.dummies.size());
    for (std::size_t i = 0; i < binding.dummies.size(); ++i) {
        SCOPED_TRACE(i);
        // No decoy may sit close enough to disturb the victim.
        const Row phys = mapping.toPhysical(binding.dummies[i]);
        EXPECT_GE(std::abs(static_cast<long>(phys) - 9'000L), 100);
        for (std::size_t j = 0; j < i; ++j)
            EXPECT_NE(binding.dummies[i], binding.dummies[j]);
    }

    // Paired-row module: aggressors are the victims' remap partners.
    const ModuleSpec &c0 = spec("C0");
    const DiscoveredMapping c_mapping(c0.scramble, c0.rowsPerBank);
    const PatternBinding paired =
        bindPattern(p, c0, c_mapping, 0, 4'000);
    ASSERT_EQ(2U, paired.aggressors.size());
    EXPECT_EQ(c_mapping.toLogical(4'000 ^ 1), paired.aggressors[0]);
    EXPECT_EQ(c_mapping.toLogical((4'000 + 2) ^ 1),
              paired.aggressors[1]);
    const auto victims = patternVictims(p, c0, c_mapping, 0, 4'000);
    ASSERT_EQ(2U, victims.size());
    EXPECT_EQ(c_mapping.toLogical(4'000), victims[0].second);
    EXPECT_EQ(c_mapping.toLogical(4'002), victims[1].second);
}

// --- golden bypass anchors (fixed-seed synthesis regression) ----------

std::vector<std::filesystem::path>
anchorFiles()
{
    std::vector<std::filesystem::path> files;
    for (const auto &item :
         std::filesystem::directory_iterator(UTRR_CORPUS_DIR)) {
        if (item.is_regular_file() &&
            item.path().extension() == ".json" &&
            item.path().filename().string().rfind("synth-", 0) == 0)
            files.push_back(item.path());
    }
    std::sort(files.begin(), files.end());
    return files;
}

TEST(SynthCorpus, HasOneAnchorPerVendor)
{
    std::set<char> vendors;
    for (const auto &path : anchorFiles()) {
        const std::string stem = path.stem().string();
        ASSERT_GT(stem.size(), 6U);
        vendors.insert(stem[6]); // "synth-A5" -> 'A'
    }
    EXPECT_TRUE(vendors.count('A'));
    EXPECT_TRUE(vendors.count('B'));
    EXPECT_TRUE(vendors.count('C'));
}

TEST(SynthCorpus, AnchorsReplayByteIdentically)
{
    for (const auto &path : anchorFiles()) {
        SCOPED_TRACE(path.string());
        std::ifstream is(path);
        std::ostringstream text;
        text << is.rdbuf();
        const auto doc = Json::parse(text.str());
        ASSERT_TRUE(doc.has_value());

        const std::string module = doc->find("module")->asString();
        const std::uint64_t seed = static_cast<std::uint64_t>(
            doc->find("seed")->asInt());
        const Json &config = *doc->find("config");
        SynthConfig cfg;
        cfg.attempts =
            static_cast<int>(config.find("attempts")->asInt());
        cfg.positions =
            static_cast<int>(config.find("positions")->asInt());
        cfg.moduleSeed = static_cast<std::uint64_t>(
            config.find("module_seed")->asInt());
        ASSERT_EQ(synthContentTag(cfg),
                  config.find("content_tag")->asString())
            << "anchor was generated with a different synth config; "
               "regenerate it (see EXPERIMENTS.md)";

        // Exactly the campaign job derivation: seed -> module name ->
        // "synth" sub-stream.
        const SynthModuleResult result = synthesizeForModule(
            spec(module), cfg, Rng(seed).fork(module).fork("synth"));
        EXPECT_EQ(doc->find("verdict")->dump(1),
                  synthVerdict(spec(module), result).dump(1));
    }
}

// --- execution-tier identity -------------------------------------------

/** Restores the process-wide default tier when the test exits. */
struct DefaultExecModeGuard
{
    ExecMode saved = SoftMcHost::defaultExecMode();
    ~DefaultExecModeGuard() { SoftMcHost::setDefaultExecMode(saved); }
};

// Vendor-B candidates spend most of each REF slot in hammerMultiBank
// (the tFAW-parallel dummy fill), whose compiled fold and per-bank
// replay no Program-level oracle reaches. A whole synthesis run
// (search, verify, minimize, bank sweep) must give the same verdict
// when every evaluation host interprets one command at a time. With
// this config B13 falls to a four-bank multi-bank winner and B0 resists
// all eight candidates.
TEST(Synth, VerdictIsTheSameInBothExecutionTiers)
{
    const DefaultExecModeGuard guard;
    SynthConfig cfg;
    cfg.attempts = 8;
    cfg.positions = 1;
    cfg.windowRefs = 1'024;
    cfg.warmupRefs = 64;
    cfg.sweepBanks = 2;
    cfg.minimizeMaxEvaluations = 8;
    for (const char *module : {"B0", "B13"}) {
        SCOPED_TRACE(module);
        const auto verdict = [&](ExecMode mode) {
            SoftMcHost::setDefaultExecMode(mode);
            return synthVerdict(
                       spec(module),
                       synthesizeForModule(
                           spec(module), cfg,
                           Rng(1).fork(module).fork("synth")))
                .dump();
        };
        const std::string interpreted = verdict(ExecMode::kInterpreted);
        EXPECT_EQ(interpreted, verdict(ExecMode::kCompiled));
    }
}

} // namespace
} // namespace utrr
