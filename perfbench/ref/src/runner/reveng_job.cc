#include "runner/reveng_job.hh"

#include "common/logging.hh"

namespace utrr
{

namespace
{

constexpr Time kSimHourNs = 3'600ll * 1'000'000'000;

} // namespace

IdentifyJobConfig
IdentifyJobConfig::battery()
{
    IdentifyJobConfig config;
    config.reveng.scoutRowEnd = 6 * 1024;
    config.reveng.consistencyChecks = 15;
    config.reveng.periodIterations = 64;
    config.reveng.watchdogBudgetNs = kSimHourNs;
    return config;
}

IdentifyJobConfig
IdentifyJobConfig::chaos()
{
    IdentifyJobConfig config;
    config.reveng.scoutRowEnd = 6 * 1024;
    config.reveng.consistencyChecks = 15;
    // Under injection the event stream is thinned (broken rows get
    // quarantined, stolen TRR fires are invisible), so a period-17
    // module needs a larger sample than the fault-free battery.
    config.reveng.periodIterations = 128;
    config.reveng.revalidateChecks = 8;
    config.reveng.watchdogBudgetNs = kSimHourNs;
    return config;
}

JobFn
makeIdentifyJob(const IdentifyJobConfig &config)
{
    return [config](JobContext &ctx) {
        const ModuleSpec &spec = ctx.spec;
        const DiscoveredMapping mapping(spec.scramble, spec.rowsPerBank);
        TrrReveng reveng(ctx.host, mapping, config.reveng);

        // Scouting dominates identification wall time and is a pure
        // function of (spec, moduleSeed); snapshot it at completion so
        // retries and repeated batteries over the same silicon restore
        // the scouted device + pools instead of re-scouting. The tag
        // versions the profiling body and its knobs. With no cache
        // attached (or under fault injection) this is a plain call.
        const Json pools = ctx.profiled(
            logFmt("identify:pools:v1:rows", config.reveng.scoutRowEnd,
                   ":checks", config.reveng.consistencyChecks),
            [&]() {
                reveng.warmUp();
                return reveng.exportPools();
            });
        reveng.importPools(pools);

        const TrrReveng::IdentifyOutcome measured = reveng.identify();

        const TrrTraits truth = spec.traits();
        const int want_neigh =
            spec.paired() ? 1 : truth.neighborsRefreshed;

        JobOutcome out;
        out.ok = measured.trrToRefPeriod == truth.trrToRefPeriod &&
                 measured.neighborsRefreshed == want_neigh;
        Json verdict = Json::object();
        verdict["module"] = Json(spec.name);
        verdict["period"] = Json(measured.trrToRefPeriod);
        verdict["period_truth"] = Json(truth.trrToRefPeriod);
        verdict["neighbours"] = Json(measured.neighborsRefreshed);
        verdict["neighbours_truth"] = Json(want_neigh);
        verdict["fresh_row_retries"] = Json(measured.freshRowRetries);
        verdict["ok"] = Json(out.ok);
        out.verdict = std::move(verdict);
        return out;
    };
}

} // namespace utrr
