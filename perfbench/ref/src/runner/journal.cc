#include "runner/journal.hh"

#include <cstring>

#include "common/checksum.hh"
#include "common/logging.hh"

namespace utrr
{

namespace
{

/** Order-sensitive 64-bit accumulator over heterogeneous fields. */
class HashAcc
{
  public:
    explicit HashAcc(std::uint64_t seed) : h(hashMix(seed)) {}

    void
    add(std::uint64_t v)
    {
        h = hashMix(h ^ hashMix(v));
    }

    void
    add(std::int64_t v)
    {
        add(static_cast<std::uint64_t>(v));
    }

    void
    add(double v)
    {
        // Hash the bit pattern: any numeric change (including sign of
        // zero) re-keys the campaign, which errs on the safe side.
        std::uint64_t bits = 0;
        static_assert(sizeof(bits) == sizeof(v));
        std::memcpy(&bits, &v, sizeof(bits));
        add(bits);
    }

    void
    add(std::string_view s)
    {
        add(hashString(s));
    }

    std::uint64_t value() const { return h; }

  private:
    std::uint64_t h;
};

/** Behaviour-relevant fields of one module spec. */
void
addSpec(HashAcc &acc, const ModuleSpec &spec)
{
    acc.add(spec.name);
    acc.add(static_cast<std::uint64_t>(
        static_cast<unsigned char>(spec.vendor)));
    acc.add(spec.date);
    acc.add(static_cast<std::int64_t>(spec.chipDensityGbit));
    acc.add(static_cast<std::int64_t>(spec.ranks));
    acc.add(static_cast<std::int64_t>(spec.banks));
    acc.add(static_cast<std::int64_t>(spec.pins));
    acc.add(static_cast<std::int64_t>(spec.rowsPerBank));
    acc.add(static_cast<std::int64_t>(spec.rowBits));
    acc.add(static_cast<std::int64_t>(spec.trr));
    acc.add(static_cast<std::int64_t>(spec.refreshPeriodRefs));
    acc.add(spec.hcFirst);
    acc.add(spec.hcRowSigma);
    acc.add(static_cast<std::int64_t>(spec.scramble));
    acc.add(static_cast<std::int64_t>(spec.remapsPerBank));
}

std::string
hex16(std::uint64_t value)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(value));
    return std::string(buf);
}

bool
parseHex16(const std::string &text, std::uint64_t &out)
{
    if (text.size() != 16)
        return false;
    std::uint64_t value = 0;
    for (const char c : text) {
        value <<= 4;
        if (c >= '0' && c <= '9')
            value |= static_cast<std::uint64_t>(c - '0');
        else if (c >= 'a' && c <= 'f')
            value |= static_cast<std::uint64_t>(c - 'a' + 10);
        else
            return false;
    }
    out = value;
    return true;
}

/** Checked field extraction helpers for the loader. */
const Json *
member(const Json &obj, const char *key, Json::Type type)
{
    const Json *found = obj.find(key);
    if (found == nullptr || found->type() != type)
        return nullptr;
    return found;
}

} // namespace

CampaignKey
CampaignKey::compute(const CampaignConfig &config,
                     const std::vector<ModuleSpec> &specs)
{
    HashAcc acc(0x5eed'0075'11e5'0142ull);
    acc.add(config.seed);
    acc.add(config.moduleSeed);
    acc.add(static_cast<std::int64_t>(config.watchdogBudgetNs));
    acc.add(static_cast<std::int64_t>(config.maxWatchdogRetries));
    acc.add(static_cast<std::uint64_t>(config.traceCapacity));
    acc.add(config.contentTag);

    const FaultConfig &f = config.faults;
    acc.add(f.vrtFlipChancePerRead);
    acc.add(f.vrtScaleFactor);
    acc.add(f.readNoiseChancePerRead);
    acc.add(static_cast<std::int64_t>(f.readNoiseMaxBits));
    acc.add(f.refJitterChance);
    acc.add(static_cast<std::int64_t>(f.refJitterMaxNs));
    acc.add(f.dropRefChance);
    acc.add(f.dropWrChance);
    acc.add(f.dropHammerActChance);
    acc.add(static_cast<std::int64_t>(f.tempStepIntervalNs));
    acc.add(f.tempStepMaxFactor);
    acc.add(f.tempMaxDrift);

    acc.add(static_cast<std::uint64_t>(specs.size()));
    for (const ModuleSpec &spec : specs)
        addSpec(acc, spec);

    CampaignKey key;
    key.hash = acc.value();
    return key;
}

std::string
CampaignKey::hex() const
{
    return hex16(hash);
}

std::uint64_t
CampaignKey::jobKey(const ModuleSpec &spec, std::uint64_t index) const
{
    HashAcc acc(hash);
    acc.add(spec.name);
    acc.add(index);
    return acc.value();
}

Json
moduleResultToJson(const ModuleResult &result)
{
    Json body = Json::object();
    body["record"] = Json("job");
    body["index"] = Json(result.index);
    body["module"] = Json(result.module);
    body["ok"] = Json(result.ok);
    body["quarantined"] = Json(result.quarantined);
    body["attempts"] = Json(result.attempts);
    body["error"] = Json(result.error);
    body["wall_ms"] = Json(result.wallMs);
    body["sim_ns"] = Json(static_cast<std::int64_t>(result.simNs));
    body["trace_recorded"] = Json(result.traceRecorded);
    Json fault = Json::object();
    fault["vrt_flips"] = Json(result.faultStats.vrtFlips);
    fault["noise_bits"] = Json(result.faultStats.noiseBits);
    fault["jittered_refs"] = Json(result.faultStats.jitteredRefs);
    fault["dropped_refs"] = Json(result.faultStats.droppedRefs);
    fault["dropped_wrs"] = Json(result.faultStats.droppedWrs);
    fault["dropped_hammer_acts"] =
        Json(result.faultStats.droppedHammerActs);
    fault["temp_steps"] = Json(result.faultStats.tempSteps);
    body["fault"] = std::move(fault);
    body["verdict"] = result.verdict;
    body["metrics"] = result.metrics.toJson();
    return body;
}

bool
moduleResultFromJson(const Json &body, ModuleResult &out)
{
    if (body.type() != Json::Type::kObject)
        return false;
    const Json *index = member(body, "index", Json::Type::kNumber);
    const Json *module = member(body, "module", Json::Type::kString);
    const Json *ok = member(body, "ok", Json::Type::kBool);
    const Json *quarantined =
        member(body, "quarantined", Json::Type::kBool);
    const Json *attempts = member(body, "attempts", Json::Type::kNumber);
    const Json *error = member(body, "error", Json::Type::kString);
    const Json *wall = member(body, "wall_ms", Json::Type::kNumber);
    const Json *sim = member(body, "sim_ns", Json::Type::kNumber);
    const Json *trace =
        member(body, "trace_recorded", Json::Type::kNumber);
    const Json *fault = member(body, "fault", Json::Type::kObject);
    const Json *verdict = body.find("verdict");
    const Json *metrics = member(body, "metrics", Json::Type::kObject);
    if (index == nullptr || module == nullptr || ok == nullptr ||
        quarantined == nullptr || attempts == nullptr ||
        error == nullptr || wall == nullptr || sim == nullptr ||
        trace == nullptr || fault == nullptr || verdict == nullptr ||
        metrics == nullptr) {
        return false;
    }

    ModuleResult result;
    result.index = static_cast<std::uint64_t>(index->asInt());
    result.module = module->asString();
    result.ok = ok->asBool();
    result.quarantined = quarantined->asBool();
    result.attempts = static_cast<int>(attempts->asInt());
    result.error = error->asString();
    result.wallMs = wall->asNumber();
    result.simNs = sim->asInt();
    result.traceRecorded = static_cast<std::uint64_t>(trace->asInt());

    auto faultField = [&fault](const char *key, std::uint64_t &into) {
        const Json *value = member(*fault, key, Json::Type::kNumber);
        if (value == nullptr)
            return false;
        into = static_cast<std::uint64_t>(value->asInt());
        return true;
    };
    if (!faultField("vrt_flips", result.faultStats.vrtFlips) ||
        !faultField("noise_bits", result.faultStats.noiseBits) ||
        !faultField("jittered_refs", result.faultStats.jitteredRefs) ||
        !faultField("dropped_refs", result.faultStats.droppedRefs) ||
        !faultField("dropped_wrs", result.faultStats.droppedWrs) ||
        !faultField("dropped_hammer_acts",
                    result.faultStats.droppedHammerActs) ||
        !faultField("temp_steps", result.faultStats.tempSteps)) {
        return false;
    }

    result.verdict = *verdict;
    if (!MetricsRegistry::fromJson(*metrics, result.metrics))
        return false;

    result.completed = true;
    result.fromJournal = true;
    out = std::move(result);
    return true;
}

JournalLoad
loadJournal(const std::string &path)
{
    JournalLoad load;
    std::string raw;
    if (!readFileToString(path, raw))
        return load;
    load.fileFound = true;

    std::size_t pos = 0;
    std::size_t record_no = 0;
    while (pos < raw.size()) {
        const std::size_t eol = raw.find('\n', pos);
        const bool torn = eol == std::string::npos;
        const std::string line =
            raw.substr(pos, torn ? std::string::npos : eol - pos);
        pos = torn ? raw.size() : eol + 1;

        // Validate the frame: {"crc":"...","body":{...}} with the CRC
        // taken over the compact re-serialization of body. Json::dump
        // is canonical (insertion-ordered keys, round-trip number
        // formatting), so parse->dump reproduces the writer's bytes.
        auto reject = [&](const char *why) {
            if (torn && pos == raw.size()) {
                load.tornTail = true;
            } else {
                ++load.corruptRecords;
                UTRR_DEBUG("journal: record ", record_no, ": ", why);
            }
        };
        const auto parsed = Json::parse(line);
        if (!parsed) {
            reject("unparsable line");
            ++record_no;
            continue;
        }
        const Json *crc = member(*parsed, "crc", Json::Type::kString);
        const Json *body = member(*parsed, "body", Json::Type::kObject);
        std::uint32_t want_crc = 0;
        if (crc == nullptr || body == nullptr ||
            !parseCrc32cHex(crc->asString(), want_crc)) {
            reject("missing crc/body");
            ++record_no;
            continue;
        }
        if (crc32c(body->dump()) != want_crc) {
            reject("checksum mismatch");
            ++record_no;
            continue;
        }

        const Json *kind = member(*body, "record", Json::Type::kString);
        if (kind == nullptr) {
            reject("missing record kind");
        } else if (kind->asString() == "campaign") {
            const Json *schema =
                member(*body, "schema", Json::Type::kNumber);
            const Json *campaign =
                member(*body, "campaign", Json::Type::kString);
            const Json *seed = member(*body, "seed", Json::Type::kNumber);
            const Json *total =
                member(*body, "jobs_total", Json::Type::kNumber);
            std::uint64_t campaign_hash = 0;
            if (record_no != 0 || schema == nullptr ||
                schema->asInt() != kJournalSchemaVersion ||
                campaign == nullptr || seed == nullptr ||
                total == nullptr ||
                !parseHex16(campaign->asString(), campaign_hash)) {
                reject("bad campaign header");
            } else {
                load.headerValid = true;
                load.headerCampaign = campaign_hash;
                load.headerSeed =
                    static_cast<std::uint64_t>(seed->asInt());
                load.headerJobsTotal =
                    static_cast<std::uint64_t>(total->asInt());
            }
        } else if (kind->asString() == "job") {
            const Json *key = member(*body, "key", Json::Type::kString);
            JournalJobRecord record;
            if (key == nullptr ||
                !parseHex16(key->asString(), record.key) ||
                !moduleResultFromJson(*body, record.result)) {
                reject("bad job record");
            } else {
                load.jobs.push_back(std::move(record));
            }
        } else {
            // Unknown-but-valid record kinds are ignored, so a newer
            // writer can add record types without breaking this
            // reader.
            UTRR_DEBUG("journal: skipping unknown record kind '",
                       kind->asString(), "'");
        }
        ++record_no;
    }
    return load;
}

bool
JournalWriter::open(const std::string &path, const CampaignKey &key,
                    const CampaignConfig &config,
                    std::uint64_t jobs_total, bool append_existing)
{
    const std::lock_guard<std::mutex> lock(mutex);
    recordIndex = 0;
    if (!file.open(path, /*truncate=*/!append_existing,
                   config.journalFsync)) {
        return false;
    }
    if (append_existing)
        return true;

    Json header = Json::object();
    header["record"] = Json("campaign");
    header["schema"] = Json(kJournalSchemaVersion);
    header["campaign"] = Json(key.hex());
    header["seed"] = Json(config.seed);
    header["module_seed"] = Json(config.moduleSeed);
    header["jobs_total"] = Json(jobs_total);
    header["tag"] = Json(config.contentTag);
    if (!appendLine(header)) {
        file.close();
        return false;
    }
    return true;
}

bool
JournalWriter::append(std::uint64_t job_key, const ModuleResult &result)
{
    const std::lock_guard<std::mutex> lock(mutex);
    if (!file.isOpen())
        return false;
    Json body = moduleResultToJson(result);
    body["key"] = Json(hex16(job_key));
    return appendLine(body);
}

std::uint64_t
JournalWriter::recordsWritten() const
{
    const std::lock_guard<std::mutex> lock(mutex);
    return static_cast<std::uint64_t>(recordIndex);
}

void
JournalWriter::setWriteFault(const std::optional<JournalWriteFault> &fault)
{
    const std::lock_guard<std::mutex> lock(mutex);
    writeFault = fault;
}

bool
JournalWriter::appendLine(const Json &body)
{
    const std::string payload = body.dump();
    Json frame = Json::object();
    frame["crc"] = Json(crc32cHex(payload));
    frame["body"] = body;
    const std::string line = frame.dump() + "\n";

    if (writeFault && writeFault->firesAt(recordIndex)) {
        // Crash test: emit the configured byte prefix (fsynced by
        // append) and die without cleanup — the torn tail the reader
        // must survive.
        const std::size_t keep = writeFault->partialBytes < 0
            ? line.size()
            : std::min<std::size_t>(
                  static_cast<std::size_t>(writeFault->partialBytes),
                  line.size());
        file.append(std::string_view(line).substr(0, keep));
        JournalWriteFault::die(-1);
    }

    ++recordIndex;
    return file.append(line);
}

} // namespace utrr
