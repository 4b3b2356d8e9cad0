/**
 * @file
 * I/O-layer fault injection for the durability subsystem.
 *
 * PR 2's FaultInjector perturbs the simulated DRAM substrate; this hook
 * perturbs the *host process* instead: it lets the crash-recovery
 * harness kill a campaign at an exactly chosen point of the write-ahead
 * journal stream — including halfway through a record's bytes, the torn
 * write a real power cut or SIGKILL produces.
 *
 * The journal writer consults an attached JournalWriteFault before each
 * record append. When the armed record index is reached, the writer
 * emits only the configured byte prefix of that record and the process
 * dies by SIGKILL — no destructors, no buffers flushed, exactly like a
 * crash. A plan can also be armed from the environment
 * (UTRR_JOURNAL_CRASH="N" or "N:B": die at record N after B bytes),
 * which is how the subprocess-based recovery tests and the CI smoke
 * drive a deterministic mid-write crash without test hooks leaking into
 * production binaries.
 */

#ifndef UTRR_FAULT_IO_FAULT_HH
#define UTRR_FAULT_IO_FAULT_HH

#include <cstdint>
#include <optional>
#include <string>

namespace utrr
{

/**
 * A planned crash inside the journal writer. Indices count every
 * record append (header record included) since the writer was opened.
 */
struct JournalWriteFault
{
    /** Record append at which to crash (0-based); < 0 disarms. */
    std::int64_t crashAtRecord = -1;

    /**
     * Bytes of that record actually written before dying. Negative
     * writes the whole record (crash-after-commit); smaller values
     * leave a torn tail.
     */
    std::int64_t partialBytes = -1;

    bool armed() const { return crashAtRecord >= 0; }

    /**
     * Should the append of record @p index crash? When true the writer
     * appends min(partialBytes, record size) bytes and calls die().
     */
    bool firesAt(std::int64_t index) const
    {
        return armed() && index == crashAtRecord;
    }

    /**
     * Kill the calling process with SIGKILL (after fsyncing @p fd when
     * >= 0, so the torn prefix is actually on disk and the test
     * observes the planned tear, not an unflushed page).
     */
    [[noreturn]] static void die(int fd);

    /**
     * Parse UTRR_JOURNAL_CRASH ("N" or "N:B"). nullopt when unset or
     * malformed (malformed values warn — a crash test that silently
     * doesn't crash would pass vacuously).
     */
    static std::optional<JournalWriteFault> fromEnv();

    /** Parse the "N[:B]" spec itself (exposed for tests). */
    static std::optional<JournalWriteFault> parse(const std::string &spec);
};

} // namespace utrr

#endif // UTRR_FAULT_IO_FAULT_HH
