#include "common/durable_file.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/logging.hh"

namespace utrr
{

DurableAppendFile::~DurableAppendFile()
{
    close();
}

bool
DurableAppendFile::open(const std::string &path, bool truncate,
                        bool fsync_each_record)
{
    close();
    int flags = O_WRONLY | O_CREAT | O_APPEND;
    if (truncate)
        flags |= O_TRUNC;
    fd = ::open(path.c_str(), flags, 0644);
    if (fd < 0) {
        warn(logFmt("durable_file: cannot open ", path, ": ",
                    std::strerror(errno)));
        return false;
    }
    fsyncEachRecord = fsync_each_record;
    return true;
}

bool
DurableAppendFile::append(std::string_view record)
{
    if (fd < 0)
        return false;
    std::size_t written = 0;
    while (written < record.size()) {
        const ssize_t n = ::write(fd, record.data() + written,
                                  record.size() - written);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            warn(logFmt("durable_file: write failed: ",
                        std::strerror(errno)));
            return false;
        }
        written += static_cast<std::size_t>(n);
    }
    return fsyncEachRecord ? sync() : true;
}

bool
DurableAppendFile::sync()
{
    return fd >= 0 && ::fsync(fd) == 0;
}

void
DurableAppendFile::close()
{
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
    }
}

bool
atomicReplaceFile(const std::string &path, std::string_view contents)
{
    const std::string tmp = path + ".tmp";
    {
        DurableAppendFile file;
        if (!file.open(tmp, /*truncate=*/true, /*fsync=*/false))
            return false;
        if (!file.append(contents) || !file.sync()) {
            file.close();
            ::unlink(tmp.c_str());
            return false;
        }
    }
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        warn(logFmt("durable_file: rename ", tmp, " -> ", path,
                    " failed: ", std::strerror(errno)));
        ::unlink(tmp.c_str());
        return false;
    }
    return true;
}

bool
renameFile(const std::string &path, const std::string &newPath)
{
    if (::rename(path.c_str(), newPath.c_str()) != 0) {
        warn(logFmt("durable_file: rename ", path, " -> ", newPath,
                    " failed: ", std::strerror(errno)));
        return false;
    }
    return true;
}

bool
readFileToString(const std::string &path, std::string &out)
{
    std::ifstream is(path, std::ios::in | std::ios::binary);
    if (!is)
        return false;
    std::ostringstream buf;
    buf << is.rdbuf();
    if (is.bad())
        return false;
    out = buf.str();
    return true;
}

bool
fileExists(const std::string &path)
{
    struct stat st{};
    return ::stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode);
}

bool
fsyncPath(const std::string &path)
{
    const int fd = ::open(path.c_str(), O_WRONLY);
    if (fd < 0)
        return false;
    const bool ok = ::fsync(fd) == 0;
    ::close(fd);
    return ok;
}

} // namespace utrr
