#include "check/corpus.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/logging.hh"
#include "softmc/assembler.hh"

namespace utrr
{

namespace
{

bool
parseU64Value(const std::string &token, std::uint64_t &out)
{
    try {
        std::size_t used = 0;
        out = std::stoull(token, &used, 0);
        return used == token.size();
    } catch (const std::exception &) {
        return false;
    }
}

} // namespace

std::string
corpusEntryText(const CorpusEntry &entry)
{
    std::ostringstream oss;
    oss << "#! module " << entry.module << "\n";
    oss << "#! module-seed " << entry.moduleSeed << "\n";
    oss << "#! fuzz-seed " << entry.fuzzSeed << "\n";
    oss << "#! fuzz-index " << entry.fuzzIndex << "\n";
    oss << "#! oracle " << entry.oracle << "\n";
    if (!entry.note.empty())
        oss << "#! note " << entry.note << "\n";
    oss << disassembleProgram(entry.program);
    return oss.str();
}

std::string
parseCorpusEntry(const std::string &text, CorpusEntry &out)
{
    std::istringstream iss(text);
    std::string line;
    std::ostringstream program_text;
    int line_no = 0;
    while (std::getline(iss, line)) {
        ++line_no;
        if (line.rfind("#!", 0) != 0) {
            program_text << line << "\n";
            continue;
        }
        std::istringstream fields(line.substr(2));
        std::string key;
        fields >> key;
        std::string value;
        std::getline(fields, value);
        const auto first = value.find_first_not_of(" \t");
        value = first == std::string::npos ? "" : value.substr(first);
        if (key == "module") {
            out.module = value;
        } else if (key == "module-seed" || key == "fuzz-seed" ||
                   key == "fuzz-index") {
            std::uint64_t parsed = 0;
            if (!parseU64Value(value, parsed))
                return logFmt("line ", line_no, ": bad ", key,
                              " value '", value, "'");
            if (key == "module-seed")
                out.moduleSeed = parsed;
            else if (key == "fuzz-seed")
                out.fuzzSeed = parsed;
            else
                out.fuzzIndex = parsed;
        } else if (key == "oracle") {
            out.oracle = value;
        } else if (key == "note") {
            out.note = value;
        }
        // Unknown keys are skipped: older binaries must load corpora
        // written by newer ones.
    }
    if (out.module.empty())
        return "missing '#! module' metadata";

    AssembleResult assembled = assembleProgram(program_text.str());
    if (!assembled.ok())
        return assembled.error;
    out.program = std::move(assembled.program);
    if (out.program.size() == 0)
        return "entry has no instructions";
    return "";
}

std::string
saveCorpusEntry(const CorpusEntry &entry, const std::string &path)
{
    std::ofstream os(path);
    if (!os)
        return logFmt("cannot open ", path, " for writing");
    os << corpusEntryText(entry);
    os.flush();
    if (!os)
        return logFmt("write to ", path, " failed");
    return "";
}

std::vector<CorpusEntry>
loadCorpusDir(const std::string &dir, std::string *error)
{
    namespace fs = std::filesystem;
    std::vector<CorpusEntry> entries;
    if (error != nullptr)
        error->clear();

    std::error_code ec;
    if (!fs::is_directory(dir, ec))
        return entries; // an absent corpus directory is simply empty

    std::vector<fs::path> files;
    for (const auto &item : fs::directory_iterator(dir, ec)) {
        if (item.is_regular_file() && item.path().extension() == ".prog")
            files.push_back(item.path());
    }
    std::sort(files.begin(), files.end());

    for (const fs::path &path : files) {
        std::ifstream is(path);
        std::ostringstream text;
        text << is.rdbuf();

        CorpusEntry entry;
        entry.name = path.stem().string();
        const std::string parse_error =
            parseCorpusEntry(text.str(), entry);
        if (!parse_error.empty()) {
            if (error != nullptr && error->empty())
                *error = logFmt(path.string(), ": ", parse_error);
            continue;
        }
        entries.push_back(std::move(entry));
    }
    return entries;
}

} // namespace utrr
