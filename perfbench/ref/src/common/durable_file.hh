/**
 * @file
 * Crash-safe file primitives for the durability layer.
 *
 * Two building blocks, both POSIX (the simulator targets Linux):
 *
 *  - DurableAppendFile — an append-only handle whose append() writes a
 *    whole record and (optionally) fsyncs before returning, so a record
 *    either reaches the disk completely or shows up as a torn tail the
 *    journal reader can detect and drop. Used by the write-ahead result
 *    journal; a test-only fault hook can truncate one write mid-record
 *    and kill the process to simulate exactly that tear.
 *
 *  - atomicReplaceFile — the classic write-to-temp + fsync + rename
 *    dance: readers of the destination path observe either the old
 *    contents or the new contents, never a partial file. Used to
 *    rotate a stale (foreign-campaign) journal aside and by anything
 *    that rewrites a report in place.
 */

#ifndef UTRR_COMMON_DURABLE_FILE_HH
#define UTRR_COMMON_DURABLE_FILE_HH

#include <cstdint>
#include <string>
#include <string_view>

namespace utrr
{

/**
 * Append-only file with per-record durability. Not thread-safe; the
 * owner serializes appends (the campaign journal holds its own mutex).
 */
class DurableAppendFile
{
  public:
    DurableAppendFile() = default;
    ~DurableAppendFile();

    DurableAppendFile(const DurableAppendFile &) = delete;
    DurableAppendFile &operator=(const DurableAppendFile &) = delete;

    /**
     * Open @p path for appending, creating it when absent and
     * truncating first when @p truncate. Returns false on failure
     * (the handle stays closed).
     */
    bool open(const std::string &path, bool truncate,
              bool fsync_each_record = true);

    bool isOpen() const { return fd >= 0; }

    /**
     * Append @p record (the caller includes any trailing newline) and
     * flush it to disk. Returns false on a short write or I/O error.
     * Partial progress is possible on failure — exactly the torn tail
     * the journal reader tolerates.
     */
    bool append(std::string_view record);

    /** fsync whatever has been appended so far. */
    bool sync();

    void close();

  private:
    int fd = -1;
    bool fsyncEachRecord = true;
};

/**
 * Atomically replace @p path with @p contents: write to a temp file in
 * the same directory, fsync it, rename over @p path. Returns false on
 * any failure (the destination is left untouched).
 */
bool atomicReplaceFile(const std::string &path, std::string_view contents);

/**
 * Rename @p path to @p newPath (atomic within a filesystem). Returns
 * false on failure.
 */
bool renameFile(const std::string &path, const std::string &newPath);

/** Slurp a whole file; false when it cannot be opened/read. */
bool readFileToString(const std::string &path, std::string &out);

/** Does a regular file exist at @p path? */
bool fileExists(const std::string &path);

/** fsync the given file by path (data only). False on failure. */
bool fsyncPath(const std::string &path);

} // namespace utrr

#endif // UTRR_COMMON_DURABLE_FILE_HH
