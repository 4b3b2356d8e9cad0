#include "obs/report.hh"

#include <fstream>

#include "common/logging.hh"

#include "obs/profiler.hh"

namespace utrr
{

ExperimentReport::ExperimentReport(const std::string &name)
{
    root = Json::object();
    root["report"] = Json(name);
    root["config"] = Json::object();
    root["rounds"] = Json::array();
    root["results"] = Json::object();
    root["timing"] = Json::object();
}

void
ExperimentReport::setConfig(const std::string &key, Json value)
{
    root["config"][key] = std::move(value);
}

void
ExperimentReport::setSeed(std::uint64_t seed)
{
    setConfig("seed", Json(seed));
}

void
ExperimentReport::addRound(Json round)
{
    root["rounds"].push(std::move(round));
}

void
ExperimentReport::setResult(const std::string &key, Json value)
{
    root["results"][key] = std::move(value);
}

void
ExperimentReport::setSection(const std::string &name, Json value)
{
    root[name] = std::move(value);
}

void
ExperimentReport::setTiming(double wall_ms, Time sim_ns)
{
    Json &timing = root["timing"];
    timing["wall_ms"] = Json(wall_ms);
    timing["sim_ns"] = Json(static_cast<std::int64_t>(sim_ns));
}

void
ExperimentReport::attachMetrics(const MetricsRegistry &registry)
{
    root["metrics"] = registry.toJson();
}

void
ExperimentReport::attachProfile(const ProfileTree &profile)
{
    Json section = profile.toJson();
    Json ranking = Json::array();
    for (const ProfileRankEntry &e : profile.ranking()) {
        Json row = Json::object();
        row["span"] = e.label;
        row["calls"] = e.calls;
        row["excl_wall_ns"] = e.exclusiveWallNs;
        row["excl_sim_ns"] = static_cast<std::int64_t>(e.exclusiveSimNs);
        ranking.push(std::move(row));
    }
    section["ranking"] = std::move(ranking);
    root["profile"] = std::move(section);
}

namespace
{

/** Keys whose values depend on the host's wall clock or scheduling. */
bool
wallClockKey(const std::string &key)
{
    // "<name>.us" is the ScopedTimer convention (obs/timer.hh): a
    // histogram of wall-clock microseconds. The paired ".calls"
    // counters are deterministic and stay.
    if (key.size() > 3 && key.compare(key.size() - 3, 3, ".us") == 0)
        return true;
    return key == "wall_ms" || key == "job_wall_ms" ||
        key == "eta_ms" || key == "campaign_wall_ms" ||
        key == "campaign.wall_ms";
}

Json
stripWallClock(const Json &value)
{
    switch (value.type()) {
      case Json::Type::kObject: {
        Json out = Json::object();
        for (const auto &[key, member] : value.members()) {
            if (wallClockKey(key))
                continue;
            out[key] = stripWallClock(member);
        }
        return out;
      }
      case Json::Type::kArray: {
        Json out = Json::array();
        for (std::size_t i = 0; i < value.size(); ++i)
            out.push(stripWallClock(value.at(i)));
        return out;
      }
      default:
        return value;
    }
}

} // namespace

Json
deterministicProjection(const Json &report)
{
    if (report.type() != Json::Type::kObject)
        return stripWallClock(report);
    Json out = Json::object();
    for (const auto &[key, member] : report.members()) {
        // The profile section is wall time through and through.
        if (key == "profile" || wallClockKey(key))
            continue;
        out[key] = stripWallClock(member);
    }
    return out;
}

bool
ExperimentReport::writeFile(const std::string &path) const
{
    std::ofstream out(path);
    if (!out) {
        warn(logFmt("cannot write report to ", path));
        return false;
    }
    out << dump() << "\n";
    out.flush();
    if (!out) {
        warn(logFmt("short write while saving report to ", path));
        return false;
    }
    return true;
}

} // namespace utrr
