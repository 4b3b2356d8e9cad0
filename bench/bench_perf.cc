/**
 * @file
 * Simulator micro-benchmarks (google-benchmark): command throughput of
 * the substrate. These gate the wall-clock cost of the experiment
 * harnesses (a full Fig. 9 sweep issues hundreds of millions of ACTs).
 *
 * On top of the microbenches, a campaign section measures the parallel
 * runner: the identification battery over a vendor-balanced module
 * subset at every point of a jobs {1, 2, 4, 8} scaling matrix,
 * recording one honest round per point (jobs, wall ms, speedup vs the
 * serial point) and asserting every point's verdicts are bit-identical
 * to jobs=1, the runner's determinism contract. The recorded
 * hardware_concurrency tells a reader how many of those points could
 * actually run in parallel on the measuring host. A journal-overhead
 * pair then reruns the battery with the fsynced write-ahead journal
 * armed (DESIGN.md §14) and records the durability tax as
 * journal_overhead_ratio — the acceptance bar is < 1.05x.
 *
 * The profiler-overhead pairs (BM_HammerLoop vs BM_HammerLoopProfiled,
 * BM_RetentionScan vs BM_RetentionScanProfiled, and the
 * BM_ProfSpanDisabled/Enabled span costs) pin the observability tax:
 * the disabled profiler must stay within noise of no profiler at all.
 *
 * Results land in BENCH_perf.json with populated rounds (one per
 * benchmark run plus one per scaling point), results (campaign +
 * speedup summary) and timing (campaign wall time), so runs can be
 * diffed mechanically.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "attack/sweep.hh"
#include "common/logging.hh"
#include "core/row_scout.hh"
#include "core/sim_backend.hh"
#include "dram/module.hh"
#include "fault/fault_injector.hh"
#include "obs/profiler.hh"
#include "obs/report.hh"
#include "runner/journal.hh"
#include "runner/reveng_job.hh"
#include "softmc/host.hh"

namespace
{

using namespace utrr;

ModuleSpec
benchSpec(TrrVersion trr)
{
    ModuleSpec spec = *findModuleSpec("A5");
    spec.trr = trr;
    return spec;
}

void
BM_HammerLoop(benchmark::State &state)
{
    DramModule module(benchSpec(TrrVersion::kNone), 1);
    SoftMcHost host(module);
    for (auto _ : state)
        host.hammer(0, 5'000, 1'000);
    state.SetItemsProcessed(state.iterations() * 1'000);
}
BENCHMARK(BM_HammerLoop);

void
BM_HammerLoopFaulted(benchmark::State &state)
{
    // BM_HammerLoop under a chaosDefaults() injector: the burst takes
    // one drop draw per ACT, drawn ahead in ACT order, and folds its
    // drop-free runs, so the delta against BM_HammerLoop is the draws
    // plus the rare replayed drop (the interpreter would pay
    // BM_HammerLoopInterpreted's per-ACT dispatch on top).
    DramModule module(benchSpec(TrrVersion::kNone), 1);
    SoftMcHost host(module);
    FaultInjector injector(FaultConfig::chaosDefaults(), 1);
    host.attachFaultInjector(&injector);
    for (auto _ : state)
        host.hammer(0, 5'000, 1'000);
    state.SetItemsProcessed(state.iterations() * 1'000);
}
BENCHMARK(BM_HammerLoopFaulted);

void
BM_HammerLoopInterpreted(benchmark::State &state)
{
    // BM_HammerLoop with the fused batch path disabled: one ACT+PRE
    // dispatch per cycle, the pre-§17 reference behaviour.
    DramModule module(benchSpec(TrrVersion::kNone), 1);
    SoftMcHost host(module);
    host.setExecMode(ExecMode::kInterpreted);
    for (auto _ : state)
        host.hammer(0, 5'000, 1'000);
    state.SetItemsProcessed(state.iterations() * 1'000);
}
BENCHMARK(BM_HammerLoopInterpreted);

void
BM_HammerLoopProfiled(benchmark::State &state)
{
    // Same loop with the span profiler armed: the delta against
    // BM_HammerLoop is the per-span bookkeeping cost on the hottest
    // instrumented path (softmc.hammer opens one span per call).
    DramModule module(benchSpec(TrrVersion::kNone), 1);
    SoftMcHost host(module);
    Profiler::instance().setEnabled(true);
    for (auto _ : state)
        host.hammer(0, 5'000, 1'000);
    Profiler::instance().setEnabled(false);
    Profiler::instance().reset();
    state.SetItemsProcessed(state.iterations() * 1'000);
}
BENCHMARK(BM_HammerLoopProfiled);

void
BM_HammerWithVendorATrr(benchmark::State &state)
{
    // A double-sided pair under A_TRR1: hammerInterleaved folds the
    // rounds through DramBank::applyInterleavedRounds and A_TRR1's
    // onActivateRoundRobin. (A single-row burst is the fold's
    // one-aggressor case and times the same path as BM_HammerLoop.)
    DramModule module(benchSpec(TrrVersion::kATrr1), 1);
    SoftMcHost host(module);
    for (auto _ : state)
        host.hammerInterleaved({{0, 4'999}, {0, 5'001}}, {500, 500});
    state.SetItemsProcessed(state.iterations() * 1'000);
}
BENCHMARK(BM_HammerWithVendorATrr);

void
hammerMultiBankFill(benchmark::State &state, ExecMode mode)
{
    // One REF slot of vendor B's tFAW-parallel dummy fill (paper §7.1,
    // footnote 12): a row in each of four banks, 149 rounds (the most
    // that fit between two REFs), then the REF. Under B_TRR1 every ACT
    // still draws from the sampler; the compiled tier folds the bank
    // physics of rounds 2-149 through actInterleavedBurst at stride 0.
    DramModule module(benchSpec(TrrVersion::kBTrr1), 1);
    SoftMcHost host(module);
    host.setExecMode(mode);
    const std::vector<std::pair<Bank, Row>> rows = {
        {0, 5'000}, {1, 5'000}, {2, 5'000}, {3, 5'000}};
    constexpr int kRounds = 149;
    for (auto _ : state) {
        host.hammerMultiBank(rows, kRounds);
        host.ref();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(rows.size()) *
                            kRounds);
}

void
BM_HammerMultiBank(benchmark::State &state)
{
    hammerMultiBankFill(state, ExecMode::kCompiled);
}
BENCHMARK(BM_HammerMultiBank);

void
BM_HammerMultiBankInterpreted(benchmark::State &state)
{
    hammerMultiBankFill(state, ExecMode::kInterpreted);
}
BENCHMARK(BM_HammerMultiBankInterpreted);

void
BM_AdjacencyBurst(benchmark::State &state, const char *module_name)
{
    // The §5.3 adjacency pre-check (TrrAnalyzer::verifyAdjacency at
    // its first escalation step), identify's largest
    // softmc.hammer_interleaved cost: victims written, then one
    // aggressor hammered 300,000 times. The compiled tier folds the
    // burst: each victim's charge steps binade by binade, B_TRR1 still
    // draws from its sampler per ACT, and C_TRR1 replays per ACT only
    // until its bank holds a candidate.
    DramModule module(*findModuleSpec(module_name), 1);
    SoftMcHost host(module);
    constexpr Row kAggressor = 5'000;
    constexpr int kHammers = 300'000;
    for (auto _ : state) {
        for (Row r = kAggressor - 2; r <= kAggressor + 2; ++r) {
            if (r != kAggressor)
                host.writeRow(0, r, DataPattern::allOnes());
        }
        host.writeRow(0, kAggressor, DataPattern::allZeros());
        host.hammerInterleaved({{0, kAggressor}}, {kHammers});
    }
    state.SetItemsProcessed(state.iterations() * kHammers);
}
BENCHMARK_CAPTURE(BM_AdjacencyBurst, B_TRR1, "B0");
BENCHMARK_CAPTURE(BM_AdjacencyBurst, C_TRR1, "C0");

void
BM_RefCommand(benchmark::State &state)
{
    DramModule module(benchSpec(TrrVersion::kATrr1), 1);
    SoftMcHost host(module);
    // Touch some rows so the refresh sweep has work to do.
    for (Row r = 0; r < 512; ++r)
        host.writeRow(0, r * 64, DataPattern::allOnes());
    for (auto _ : state)
        host.ref();
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RefCommand);

void
BM_WriteReadRow(benchmark::State &state)
{
    DramModule module(benchSpec(TrrVersion::kNone), 1);
    SoftMcHost host(module);
    Row row = 0;
    for (auto _ : state) {
        host.writeRow(0, row, DataPattern::allOnes());
        benchmark::DoNotOptimize(host.readRow(0, row));
        row = (row + 1) % 4'096;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WriteReadRow);

void
BM_RetentionScan(benchmark::State &state)
{
    DramModule module(benchSpec(TrrVersion::kNone), 2);
    SoftMcHost host(module);
    RowScoutConfig cfg;
    cfg.rowEnd = static_cast<Row>(state.range(0));
    cfg.consistencyChecks = 10;
    RowScout scout(host,
                   DiscoveredMapping::identity(
                       module.spec().rowsPerBank),
                   cfg);
    for (auto _ : state)
        benchmark::DoNotOptimize(scout.scanFailingRows(msToNs(500)));
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RetentionScan)->Arg(1'024)->Arg(8'192);

void
BM_RetentionScanFresh(benchmark::State &state)
{
    // BM_RetentionScan on a module built per iteration outside the
    // timed region, so every row the scan touches materializes
    // (DramBank::materialize: generateRetention and the RowState
    // build). BM_RetentionScan reuses one module, whose rows are all
    // materialized after its first iteration; the delta is the
    // first-touch cost, the largest a scan pays.
    RowScoutConfig cfg;
    cfg.rowEnd = static_cast<Row>(state.range(0));
    cfg.consistencyChecks = 10;
    for (auto _ : state) {
        state.PauseTiming();
        auto module =
            std::make_unique<DramModule>(benchSpec(TrrVersion::kNone), 2);
        auto host = std::make_unique<SoftMcHost>(*module);
        auto scout = std::make_unique<RowScout>(
            *host, DiscoveredMapping::identity(module->spec().rowsPerBank),
            cfg);
        state.ResumeTiming();
        benchmark::DoNotOptimize(scout->scanFailingRows(msToNs(500)));
        state.PauseTiming();
        scout.reset();
        host.reset();
        module.reset();
        state.ResumeTiming();
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RetentionScanFresh)->Arg(8'192);

void
BM_RetentionScanFaulted(benchmark::State &state)
{
    // BM_RetentionScan/8192 under a chaosDefaults() injector: the range
    // ops stay fused, and the injector's WR-drop draw, VRT-flip and
    // read-noise hooks run per row through the module's range hook, on
    // a readout built for each read. The delta against
    // BM_RetentionScan/8192 is that per-row host work.
    DramModule module(benchSpec(TrrVersion::kNone), 2);
    SoftMcHost host(module);
    FaultInjector injector(FaultConfig::chaosDefaults(), 1);
    host.attachFaultInjector(&injector);
    RowScoutConfig cfg;
    cfg.rowEnd = static_cast<Row>(state.range(0));
    cfg.consistencyChecks = 10;
    RowScout scout(host,
                   DiscoveredMapping::identity(
                       module.spec().rowsPerBank),
                   cfg);
    for (auto _ : state)
        benchmark::DoNotOptimize(scout.scanFailingRows(msToNs(500)));
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RetentionScanFaulted)->Arg(8'192);

void
BM_RetentionScanInterpreted(benchmark::State &state)
{
    // Interpreted-tier pair of BM_RetentionScan: one writeRow/readRow
    // per row, each paying host dispatch, a trace check, a watchdog
    // poll and a RowReadout. The compiled scan runs each range as one
    // DramModule call and counts flips without a readout, so it reads
    // faster by design; the gap is that per-row host work.
    DramModule module(benchSpec(TrrVersion::kNone), 2);
    SoftMcHost host(module);
    host.setExecMode(ExecMode::kInterpreted);
    RowScoutConfig cfg;
    cfg.rowEnd = static_cast<Row>(state.range(0));
    cfg.consistencyChecks = 10;
    RowScout scout(host,
                   DiscoveredMapping::identity(
                       module.spec().rowsPerBank),
                   cfg);
    for (auto _ : state)
        benchmark::DoNotOptimize(scout.scanFailingRows(msToNs(500)));
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RetentionScanInterpreted)->Arg(1'024);

void
BM_RetentionScanProfiled(benchmark::State &state)
{
    // BM_RetentionScan with the profiler armed (row_scout.scan +
    // softmc.wait spans live on this path).
    DramModule module(benchSpec(TrrVersion::kNone), 2);
    SoftMcHost host(module);
    RowScoutConfig cfg;
    cfg.rowEnd = static_cast<Row>(state.range(0));
    cfg.consistencyChecks = 10;
    RowScout scout(host,
                   DiscoveredMapping::identity(
                       module.spec().rowsPerBank),
                   cfg);
    Profiler::instance().setEnabled(true);
    for (auto _ : state)
        benchmark::DoNotOptimize(scout.scanFailingRows(msToNs(500)));
    Profiler::instance().setEnabled(false);
    Profiler::instance().reset();
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RetentionScanProfiled)->Arg(1'024);

void
BM_ProfSpanDisabled(benchmark::State &state)
{
    // The raw cost of an instrumented scope while profiling is off:
    // one relaxed atomic load and a not-taken branch. This is the
    // overhead every instrumented call site pays in production runs.
    for (auto _ : state) {
        UTRR_PROF_SCOPE("bench.span_disabled");
        benchmark::DoNotOptimize(&state);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProfSpanDisabled);

void
BM_ProfSpanEnabled(benchmark::State &state)
{
    // Full open/close cost of a span while profiling is on (clock
    // reads + thread-local tree bookkeeping).
    Profiler::instance().setEnabled(true);
    for (auto _ : state) {
        UTRR_PROF_SCOPE("bench.span_enabled");
        benchmark::DoNotOptimize(&state);
    }
    Profiler::instance().setEnabled(false);
    Profiler::instance().reset();
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProfSpanEnabled);

void
BM_RefreshSweep(benchmark::State &state)
{
    // Per-REF cost of the regular refresh sweep with a populated bank:
    // exercises the flat slot-table scan of DramBank::refreshRange and
    // the restoreCharge fast path (rows well inside their retention).
    DramModule module(benchSpec(TrrVersion::kNone), 4);
    SoftMcHost host(module);
    const Row rows = static_cast<Row>(state.range(0));
    for (Row r = 0; r < rows; ++r)
        host.writeRow(0, r, DataPattern::allOnes());
    for (auto _ : state)
        host.refBurst(256);
    state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_RefreshSweep)->Arg(1'024)->Arg(8'192);

void
BM_TemperatureStep(benchmark::State &state)
{
    // One temperature-drift step (the fault injector takes one per
    // 50 ms simulated) plus a read of a fixed row, which makes that row
    // adopt the step. With range(0) rows materialized, the time must
    // not grow with the row count: a step multiplies the bank-wide
    // scale, and only rows that get used catch up.
    DramModule module(benchSpec(TrrVersion::kNone), 4);
    SoftMcHost host(module);
    const Row rows = static_cast<Row>(state.range(0));
    for (Row r = 0; r < rows; ++r)
        host.writeRow(0, r, DataPattern::allOnes());
    // Alternate up and down so the scale stays near 1.0.
    double factor = 1.0002;
    for (auto _ : state) {
        module.scaleAllRetention(factor);
        factor = 1.0 / factor;
        benchmark::DoNotOptimize(host.readRow(0, rows / 2));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TemperatureStep)->Arg(1'024)->Arg(8'192);

void
BM_ReadOpenRow(benchmark::State &state)
{
    // Pure RD cost on an open row: with copy-on-write readouts this is
    // O(1) regardless of how many overrides/flips the row carries.
    DramModule module(benchSpec(TrrVersion::kNone), 5);
    SoftMcHost host(module);
    host.writeRow(0, 100, DataPattern::checkerboard());
    host.act(0, 100);
    for (auto _ : state)
        benchmark::DoNotOptimize(host.rd(0));
    host.pre(0);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReadOpenRow);

void
BM_AttackPosition(benchmark::State &state)
{
    const ModuleSpec spec = *findModuleSpec("A5");
    DramModule module(spec, 3);
    SoftMcHost host(module);
    const DiscoveredMapping mapping(spec.scramble, spec.rowsPerBank);
    const HammerPattern pattern =
        customPattern(defaultCustomParams(spec), host.timing());
    AttackEvaluator evaluator(host);
    Row anchor = 1'000;
    for (auto _ : state) {
        benchmark::DoNotOptimize(evaluator.run(
            pattern, bindCustomPattern(pattern, spec, mapping, 0, anchor),
            {{0, mapping.toLogical(anchor)}}, 512));
        anchor += 64;
    }
    state.SetItemsProcessed(state.iterations() * 512); // REF slots
}
BENCHMARK(BM_AttackPosition);

void
BM_AttackPositionInterpreted(benchmark::State &state)
{
    // Interpreted-tier pair of BM_AttackPosition: the evaluator's
    // hammer rounds fall back to per-ACT dispatch. The ratio against
    // BM_AttackPosition is the compiled tier's end-to-end win on the
    // Fig. 9 inner loop (acceptance bar: >= 3x).
    const ModuleSpec spec = *findModuleSpec("A5");
    DramModule module(spec, 3);
    SoftMcHost host(module);
    host.setExecMode(ExecMode::kInterpreted);
    const DiscoveredMapping mapping(spec.scramble, spec.rowsPerBank);
    const HammerPattern pattern =
        customPattern(defaultCustomParams(spec), host.timing());
    AttackEvaluator evaluator(host);
    Row anchor = 1'000;
    for (auto _ : state) {
        benchmark::DoNotOptimize(evaluator.run(
            pattern, bindCustomPattern(pattern, spec, mapping, 0, anchor),
            {{0, mapping.toLogical(anchor)}}, 512));
        anchor += 64;
    }
    state.SetItemsProcessed(state.iterations() * 512); // REF slots
}
BENCHMARK(BM_AttackPositionInterpreted);

void
BM_SnapshotFork(benchmark::State &state)
{
    // Capture + fork of a heavily written device. COW row sharing makes
    // this O(slot-table), not O(written data): the fork shares every
    // row container with the parent and copies only the bank slot
    // tables, refresh/TRR position and host clock (DESIGN.md §16).
    SimBackend sim(benchSpec(TrrVersion::kATrr1), 6);
    for (Row r = 0; r < 8'192; ++r)
        sim.host().writeRow(0, r, DataPattern::checkerboard());
    const DeviceSnapshot snap = sim.captureDevice();
    for (auto _ : state)
        benchmark::DoNotOptimize(sim.fork(snap));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SnapshotFork);

/**
 * Console reporter that additionally captures every run into a metrics
 * registry ("<benchmark>.real_ns" / ".items_per_second" gauges and
 * "<benchmark>.iterations" counters) and into per-benchmark report
 * rounds, so the JSON artifact carries the full per-run timing.
 */
class RegistryReporter : public benchmark::ConsoleReporter
{
  public:
    RegistryReporter(MetricsRegistry &registry, ExperimentReport &report)
        : registry(registry), report(report)
    {
    }

    void
    ReportRuns(const std::vector<Run> &runs) override
    {
        ConsoleReporter::ReportRuns(runs);
        for (const Run &run : runs) {
            if (run.error_occurred)
                continue;
            const std::string name = run.benchmark_name();
            const double real_ns = run.GetAdjustedRealTime();
            registry.gauge(name + ".real_ns").set(real_ns);
            registry.counter(name + ".iterations")
                .inc(static_cast<std::uint64_t>(run.iterations));
            ++benchmarks;

            Json round = Json::object();
            round["benchmark"] = Json(name);
            round["real_ns"] = Json(real_ns);
            round["iterations"] =
                Json(static_cast<std::int64_t>(run.iterations));
            const auto items = run.counters.find("items_per_second");
            if (items != run.counters.end()) {
                registry.gauge(name + ".items_per_second")
                    .set(items->second);
                round["items_per_second"] = Json(double(items->second));
            }
            report.addRound(std::move(round));
        }
    }

    int benchmarkCount() const { return benchmarks; }

  private:
    MetricsRegistry &registry;
    ExperimentReport &report;
    int benchmarks = 0;
};

/**
 * Vendor-balanced module subset for the campaign speedup measurement:
 * big enough to keep every worker busy, small enough that the bench
 * stays minutes, not hours, on one core.
 */
std::vector<ModuleSpec>
campaignSpecs()
{
    std::vector<ModuleSpec> specs;
    for (const ModuleSpec &spec : allModuleSpecs()) {
        // A0, A3, ..., C12: every third module of each vendor.
        const int idx = spec.name[1] - '0';
        if ((spec.name.size() == 2 && idx % 3 == 0) ||
            spec.name == "A12" || spec.name == "B12" ||
            spec.name == "C12")
            specs.push_back(spec);
    }
    return specs;
}

/**
 * Per-record durability tax of the write-ahead journal: one
 * checksummed JSONL append + fsync with a representative job payload
 * (verdict + metrics snapshot). This is the only per-job cost
 * journaling adds, so record_cost_us x jobs bounds the campaign-level
 * overhead independently of host noise.
 */
void
BM_JournalAppend(benchmark::State &state)
{
    const char *path = "bench_journal_append.jsonl";
    CampaignConfig config;
    config.seed = 1;
    config.contentTag = "bench:perf:v1";
    const std::vector<ModuleSpec> specs = campaignSpecs();
    const CampaignKey key = CampaignKey::compute(config, specs);

    ModuleResult result;
    result.module = specs.front().name;
    result.ok = true;
    result.completed = true;
    result.attempts = 1;
    Json verdict = Json::object();
    verdict["identified"] = Json(true);
    verdict["version"] = Json(std::string("counter_v1"));
    verdict["score"] = Json(0.97);
    result.verdict = std::move(verdict);
    for (int i = 0; i < 8; ++i)
        result.metrics.counter(logFmt("bench.metric", i))
            .inc(static_cast<std::uint64_t>(i) * 17 + 1);

    JournalWriter writer;
    if (!writer.open(path, key, config, specs.size(),
                     /*append_existing=*/false)) {
        state.SkipWithError("cannot open bench journal");
        return;
    }
    std::uint64_t job = 0;
    for (auto _ : state) {
        result.index = job % specs.size();
        writer.append(key.jobKey(specs[result.index], result.index),
                      result);
        ++job;
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
    std::remove(path);
}
BENCHMARK(BM_JournalAppend);

/**
 * Wall milliseconds of one battery campaign at the given job count.
 * A non-empty @p journal_path arms the fsynced write-ahead journal so
 * the durability tax can be measured against the plain run.
 */
double
campaignWallMs(const std::vector<ModuleSpec> &specs, int jobs,
               CampaignResult &result_out,
               const std::string &journal_path = std::string())
{
    CampaignConfig config;
    config.jobs = jobs;
    config.seed = 1;
    if (!journal_path.empty()) {
        config.journalPath = journal_path;
        config.journalFsync = true;
        config.contentTag = "bench:perf:v1";
    }
    CampaignRunner runner(config);
    const auto begin = std::chrono::steady_clock::now();
    result_out =
        runner.run(specs, makeIdentifyJob(IdentifyJobConfig::battery()));
    const auto delta = std::chrono::steady_clock::now() - begin;
    return std::chrono::duration<double, std::milli>(delta).count();
}

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;

    MetricsRegistry registry;
    ExperimentReport report("bench_perf");
    RegistryReporter reporter(registry, report);
    benchmark::RunSpecifiedBenchmarks(&reporter);

    report.setResult("benchmarks", Json(reporter.benchmarkCount()));

    // CI perf-guard mode: microbenches only, no campaign measurement
    // (scripts/bench_check.py compares the per-benchmark rounds).
    const char *skip_env = std::getenv("UTRR_BENCH_SKIP_CAMPAIGN");
    if (skip_env != nullptr && skip_env[0] != '\0' &&
        skip_env[0] != '0') {
        report.attachMetrics(registry);
        const bool wrote = report.writeFile("BENCH_perf.json");
        benchmark::Shutdown();
        return wrote ? 0 : 1;
    }

    // Campaign thread-scaling matrix: the identification battery at
    // jobs {1, 2, 4, 8}. Every point is measured for real — no point is
    // skipped or synthesised on small machines — and every point's
    // verdict dump must be byte-identical to the serial one (the
    // runner's determinism contract). The recorded
    // hardware_concurrency is the honesty marker: on an H-core host,
    // points with jobs > H oversubscribe and their speedup says so.
    // UTRR_BENCH_JOBS adds one extra matrix point (e.g. a 32-core box
    // probing jobs=32).
    const std::vector<ModuleSpec> specs = campaignSpecs();
    const int hw = CampaignRunner::hardwareConcurrency();
    std::vector<int> matrix = {1, 2, 4, 8};
    if (const char *env = std::getenv("UTRR_BENCH_JOBS")) {
        const int v = std::atoi(env);
        if (v > 0 && std::find(matrix.begin(), matrix.end(), v) ==
                         matrix.end())
            matrix.push_back(v);
    }

    double serial_ms = 0.0;
    double best_ms = 0.0;
    int best_jobs = 1;
    std::string serial_verdicts;
    bool identical = true;
    bool all_ok = true;
    double total_ms = 0.0;
    std::uint64_t failures = 0;
    std::printf("\nrunner scaling matrix: %zu modules, hw %d\n",
                specs.size(), hw);
    for (const int jobs : matrix) {
        CampaignResult result;
        const double wall_ms = campaignWallMs(specs, jobs, result);
        total_ms += wall_ms;
        failures += result.failedJobs;
        all_ok = all_ok && result.allOk();
        if (jobs == 1) {
            serial_ms = wall_ms;
            best_ms = wall_ms;
            serial_verdicts = result.verdicts().dump();
        }
        const bool point_identical =
            result.verdicts().dump() == serial_verdicts;
        identical = identical && point_identical;
        const double speedup =
            wall_ms > 0.0 ? serial_ms / wall_ms : 0.0;
        if (wall_ms < best_ms) {
            best_ms = wall_ms;
            best_jobs = jobs;
        }

        Json round = Json::object();
        round["scaling_jobs"] = Json(jobs);
        round["wall_ms"] = Json(wall_ms);
        round["speedup"] = Json(speedup);
        round["verdicts_identical"] = Json(point_identical);
        report.addRound(std::move(round));
        registry.gauge(logFmt("runner.scaling.jobs", jobs, ".wall_ms"))
            .set(wall_ms);
        registry.gauge(logFmt("runner.scaling.jobs", jobs, ".speedup"))
            .set(speedup);
        std::printf("  jobs %2d: %8.0f ms, speedup %.2fx, verdicts %s\n",
                    jobs, wall_ms, speedup,
                    point_identical ? "bit-identical" : "DIVERGENT");
    }

    // Journal-overhead pairs (DESIGN.md §14): the same battery at the
    // fastest job count, without and with the fsynced write-ahead
    // journal, interleaved plain/journaled/plain/journaled and scored
    // on the minimum of each side — wall-clock noise on a shared host
    // easily exceeds the tax being measured (one small record + fsync
    // per completed job), and the min of interleaved runs cancels
    // drift that would swamp a single back-to-back pair.
    // BM_JournalAppend above pins the per-record cost directly.
    const char *journal_path = "bench_journal.jsonl";
    double plain_ms = 0.0;
    double journaled_ms = 0.0;
    bool journal_identical = true;
    for (int rep = 0; rep < 2; ++rep) {
        CampaignResult plain_result;
        const double plain =
            campaignWallMs(specs, best_jobs, plain_result);
        std::remove(journal_path);
        CampaignResult journaled_result;
        const double journaled = campaignWallMs(
            specs, best_jobs, journaled_result, journal_path);
        std::remove(journal_path);
        plain_ms = rep == 0 ? plain : std::min(plain_ms, plain);
        journaled_ms =
            rep == 0 ? journaled : std::min(journaled_ms, journaled);
        journal_identical = journal_identical &&
            journaled_result.verdicts().dump() ==
                plain_result.verdicts().dump();
        all_ok = all_ok && plain_result.allOk() &&
            journaled_result.allOk();
        failures +=
            plain_result.failedJobs + journaled_result.failedJobs;
        total_ms += plain + journaled;
    }
    const double journal_overhead =
        plain_ms > 0.0 ? journaled_ms / plain_ms : 0.0;
    identical = identical && journal_identical;

    Json journal_round = Json::object();
    journal_round["journal_plain_ms"] = Json(plain_ms);
    journal_round["journal_journaled_ms"] = Json(journaled_ms);
    journal_round["journal_overhead"] = Json(journal_overhead);
    journal_round["verdicts_identical"] = Json(journal_identical);
    report.addRound(std::move(journal_round));
    registry.gauge("runner.journal.plain_ms").set(plain_ms);
    registry.gauge("runner.journal.journaled_ms").set(journaled_ms);
    registry.gauge("runner.journal.overhead").set(journal_overhead);
    std::printf("journal overhead: min %.0f ms plain, min %.0f ms "
                "journaled (fsync per record), %.3fx at jobs %d, "
                "verdicts %s\n",
                plain_ms, journaled_ms, journal_overhead, best_jobs,
                journal_identical ? "bit-identical" : "DIVERGENT");

    const double best_speedup =
        best_ms > 0.0 ? serial_ms / best_ms : 0.0;
    registry.gauge("runner.serial_ms").set(serial_ms);
    registry.gauge("runner.best_ms").set(best_ms);
    registry.gauge("runner.best_jobs").set(best_jobs);
    registry.gauge("runner.speedup").set(best_speedup);
    registry.gauge("runner.hardware_concurrency").set(hw);

    report.setResult("campaign_modules",
                     Json(static_cast<std::uint64_t>(specs.size())));
    report.setResult("campaign_failures", Json(failures));
    report.setResult("hardware_concurrency", Json(hw));
    // On a single-core host every matrix point runs serially, so the
    // speedup column is meaningless (~1.0x by construction). Flag it so
    // scripts/bench_check.py reports the matrix as unmeasured instead
    // of comparing noise.
    report.setResult("parallel_unmeasured", Json(hw <= 1));
    report.setResult("runner_serial_ms", Json(serial_ms));
    report.setResult("runner_best_ms", Json(best_ms));
    report.setResult("runner_best_jobs", Json(best_jobs));
    report.setResult("runner_speedup", Json(best_speedup));
    report.setResult("runner_verdicts_identical", Json(identical));
    report.setResult("journal_plain_ms", Json(plain_ms));
    report.setResult("journal_journaled_ms", Json(journaled_ms));
    report.setResult("journal_overhead_ratio", Json(journal_overhead));
    report.setTiming(total_ms, 0);
    report.attachMetrics(registry);
    const bool wrote = report.writeFile("BENCH_perf.json");

    std::printf("runner campaign: best %.0f ms at jobs %d, "
                "speedup %.2fx over serial, verdicts %s\n",
                best_ms, best_jobs, best_speedup,
                identical ? "bit-identical" : "DIVERGENT");

    benchmark::Shutdown();
    return (wrote && identical && all_ok) ? 0 : 1;
}
