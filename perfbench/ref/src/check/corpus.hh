/**
 * @file
 * Minimized-repro corpus: persisted fuzz findings.
 *
 * Each corpus entry is one file: `#!` metadata lines (module name,
 * silicon seed, originating fuzz seed/index, the oracle that fired)
 * followed by the minimized program in SoftMC assembler text. `#!`
 * lines start with '#', so the files also assemble as-is in any tool
 * that understands the plain grammar.
 *
 * Checked-in entries under tests/corpus/ are *regression anchors*: they
 * reproduced a violation when they were recorded, were fixed, and
 * test_corpus replays every one of them through the full oracle suite
 * forever after.
 */

#ifndef UTRR_CHECK_CORPUS_HH
#define UTRR_CHECK_CORPUS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "softmc/command.hh"

namespace utrr
{

/** One corpus entry. */
struct CorpusEntry
{
    /** File stem (derived from the file name on load). */
    std::string name;

    /** Module spec name ("A0" ... "C14"). */
    std::string module;
    /** Silicon seed the violation reproduced under. */
    std::uint64_t moduleSeed = 2021;
    /** (seed, index) coordinates of the originating fuzz program. */
    std::uint64_t fuzzSeed = 0;
    std::uint64_t fuzzIndex = 0;
    /** Oracle that fired when the entry was recorded (or "none" for
     *  hand-written anchors that must stay clean). */
    std::string oracle = "none";
    /** Free-form note. */
    std::string note;

    Program program;
};

/** Render an entry to its file format. */
std::string corpusEntryText(const CorpusEntry &entry);

/**
 * Parse an entry from file text. Returns "" and fills @p out on
 * success, else an error message.
 */
std::string parseCorpusEntry(const std::string &text, CorpusEntry &out);

/** Write an entry to @p path. Returns "" on success, else an error. */
std::string saveCorpusEntry(const CorpusEntry &entry,
                            const std::string &path);

/**
 * Load every "*.prog" file under @p dir (sorted by file name for
 * deterministic replay order). Parse errors are reported through
 * @p error (first failure) and the offending file is skipped.
 */
std::vector<CorpusEntry> loadCorpusDir(const std::string &dir,
                                       std::string *error = nullptr);

} // namespace utrr

#endif // UTRR_CHECK_CORPUS_HH
