#include "obs/metrics.hh"

namespace utrr
{

Counter &
MetricsRegistry::counter(const std::string &name)
{
    return counterMap[name];
}

Gauge &
MetricsRegistry::gauge(const std::string &name)
{
    return gaugeMap[name];
}

const Counter *
MetricsRegistry::findCounter(const std::string &name) const
{
    const auto it = counterMap.find(name);
    return it == counterMap.end() ? nullptr : &it->second;
}

const Gauge *
MetricsRegistry::findGauge(const std::string &name) const
{
    const auto it = gaugeMap.find(name);
    return it == gaugeMap.end() ? nullptr : &it->second;
}

void
MetricsRegistry::clear()
{
    counterMap.clear();
    gaugeMap.clear();
}

void
MetricsRegistry::merge(const MetricsRegistry &other,
                       const std::string &prefix)
{
    for (const auto &[name, c] : other.counters())
        counter(prefix + name).inc(c.value);
    for (const auto &[name, g] : other.gauges())
        gauge(prefix + name).set(g.value);
}

Json
MetricsRegistry::toJson() const
{
    Json root = Json::object();
    Json &counters = root["counters"];
    counters = Json::object();
    for (const auto &[name, c] : counterMap)
        counters[name] = Json(c.value);
    Json &gauges = root["gauges"];
    gauges = Json::object();
    for (const auto &[name, g] : gaugeMap)
        gauges[name] = Json(g.value);
    return root;
}

bool
MetricsRegistry::fromJson(const Json &snapshot, MetricsRegistry &out)
{
    out.clear();
    if (snapshot.type() != Json::Type::kObject)
        return false;
    if (const Json *counters = snapshot.find("counters")) {
        for (const auto &[name, value] : counters->members()) {
            if (value.type() != Json::Type::kNumber)
                return false;
            out.counter(name).value =
                static_cast<std::uint64_t>(value.asInt());
        }
    }
    if (const Json *gauges = snapshot.find("gauges")) {
        for (const auto &[name, value] : gauges->members()) {
            if (value.type() != Json::Type::kNumber)
                return false;
            out.gauge(name).value = value.asNumber();
        }
    }
    return true;
}

std::uint64_t
GroundTruthProbe::counter(const std::string &name) const
{
    ++store->peeks;
    const Counter *c = store->inner.findCounter(name);
    return c == nullptr ? 0 : c->value;
}

double
GroundTruthProbe::gauge(const std::string &name) const
{
    ++store->peeks;
    const Gauge *g = store->inner.findGauge(name);
    return g == nullptr ? 0.0 : g->value;
}

Json
GroundTruthProbe::snapshot() const
{
    ++store->peeks;
    return store->inner.toJson();
}

} // namespace utrr
