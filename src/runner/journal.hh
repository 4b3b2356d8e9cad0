/**
 * @file
 * Write-ahead result journal for durable campaigns.
 *
 * A campaign that runs for hours must survive a crash, OOM kill or CI
 * timeout without losing finished work. The journal provides that: one
 * checksummed JSONL record per *completed* job, fsynced to disk before
 * the result enters the merge set, so after a SIGKILL at any moment the
 * journal holds exactly the set of jobs whose results are safe to
 * reuse. Determinism (DESIGN.md §10) makes recovery provably correct:
 * re-running only the missing jobs and merging yields a report
 * bit-identical (on the deterministic projection) to an uninterrupted
 * run.
 *
 * On-disk format — one JSON object per line:
 *
 *   {"crc":"<8 hex>","body":{...}}
 *
 * where crc is the CRC-32C of the compact serialization of `body`.
 * The first record's body is the campaign header (schema version,
 * campaign content hash, seed, module seed, job count, job tag); every
 * further record is a finished job keyed by a per-job content hash.
 * The reader tolerates:
 *
 *   - a torn tail (partial last line from a crash mid-write): dropped,
 *   - a corrupt record anywhere (bad JSON, bad checksum): skipped and
 *     counted — one bad sector does not poison the rest,
 *   - stale/foreign job records whose key does not match the current
 *     campaign: rejected during re-keying by the runner.
 *
 * The campaign content hash covers everything that determines job
 * results: the campaign seed, module seed, fault rates, watchdog
 * budget/retry ladder, trace capacity, the module spec list, and a
 * caller-supplied job tag describing the job body and its
 * configuration. Any change to any of these re-keys the campaign and
 * orphans old records — resuming with a different config can never
 * splice in results the current campaign would not have produced.
 */

#ifndef UTRR_RUNNER_JOURNAL_HH
#define UTRR_RUNNER_JOURNAL_HH

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/durable_file.hh"
#include "fault/io_fault.hh"
#include "runner/campaign.hh"

namespace utrr
{

/**
 * Journal on-disk schema version. Version 2 job records carry metrics
 * snapshots with no histogram section and no wall-clock values; a
 * version-1 journal fails the header check, so --resume rotates it.
 */
inline constexpr int kJournalSchemaVersion = 2;

/**
 * Content identity of one campaign: a 64-bit hash over every input
 * that determines job results, plus per-job keys derived from it.
 */
class CampaignKey
{
  public:
    /** Hash the campaign config + spec list (+ cfg.contentTag). */
    static CampaignKey compute(const CampaignConfig &config,
                               const std::vector<ModuleSpec> &specs);

    std::uint64_t value() const { return hash; }

    /** 16-hex-digit rendering used in journal records. */
    std::string hex() const;

    /** Content key of job @p index running @p spec. */
    std::uint64_t jobKey(const ModuleSpec &spec,
                         std::uint64_t index) const;

  private:
    std::uint64_t hash = 0;
};

/** One job record parsed back out of a journal file. */
struct JournalJobRecord
{
    /** The record's own job content key (to re-key against). */
    std::uint64_t key = 0;
    ModuleResult result;
};

/** What loading a journal file found. */
struct JournalLoad
{
    /** File existed and its header record was valid. */
    bool fileFound = false;
    bool headerValid = false;

    /** Campaign hash the header claims (valid headers only). */
    std::uint64_t headerCampaign = 0;
    std::uint64_t headerSeed = 0;
    std::uint64_t headerJobsTotal = 0;

    /** Valid job records, in file order (duplicates possible when a
     *  crash raced a retry; the runner keeps the last occurrence). */
    std::vector<JournalJobRecord> jobs;

    /** Records skipped for a bad checksum / unparsable body. */
    std::uint64_t corruptRecords = 0;
    /** True when the final line was torn (no newline / partial). */
    bool tornTail = false;
};

/**
 * Load and validate @p path. Missing file => fileFound = false, which
 * resume treats as "nothing done yet". Corruption never fails the
 * load; bad records are skipped and counted.
 */
JournalLoad loadJournal(const std::string &path);

/** Serialize a finished job for the journal (exact round trip). */
Json moduleResultToJson(const ModuleResult &result);

/**
 * Rebuild a ModuleResult from moduleResultToJson output. Returns false
 * on malformed input. Trace event payloads are not journaled (only the
 * recorded count survives) — campaigns run with tracing off; DESIGN.md
 * §14 documents the exclusion.
 */
bool moduleResultFromJson(const Json &body, ModuleResult &out);

/**
 * The append-side handle. Thread-safe: workers append from the pool,
 * serialized by an internal mutex. Every append is flushed (and by
 * default fsynced) before it returns — write-ahead: the runner calls
 * append() *before* publishing the result to the merge set.
 */
class JournalWriter
{
  public:
    /**
     * Open @p path. When @p append_existing, an existing valid journal
     * for the same campaign is continued (no new header); otherwise
     * the file is truncated and a fresh header written. Returns false
     * when the file cannot be opened or the header write fails.
     */
    bool open(const std::string &path, const CampaignKey &key,
              const CampaignConfig &config, std::uint64_t jobs_total,
              bool append_existing);

    bool isOpen() const { return file.isOpen(); }

    /** Append one finished job under its content key. */
    bool append(std::uint64_t job_key, const ModuleResult &result);

    /** Records appended through this writer (header included). */
    std::uint64_t recordsWritten() const;

    /**
     * Arm the crash-test hook: the append of record N dies by SIGKILL
     * after writing a configurable byte prefix (fault/io_fault.hh).
     */
    void setWriteFault(const std::optional<JournalWriteFault> &fault);

  private:
    bool appendLine(const Json &body);

    mutable std::mutex mutex;
    DurableAppendFile file;
    std::int64_t recordIndex = 0;
    std::optional<JournalWriteFault> writeFault;
};

} // namespace utrr

#endif // UTRR_RUNNER_JOURNAL_HH
