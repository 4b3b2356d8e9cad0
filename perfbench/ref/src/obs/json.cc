#include "obs/json.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace utrr
{

Json
Json::array()
{
    Json value;
    value.kind = Type::kArray;
    return value;
}

Json
Json::object()
{
    Json value;
    value.kind = Type::kObject;
    return value;
}

void
Json::push(Json value)
{
    if (kind == Type::kNull)
        kind = Type::kArray;
    items.push_back(std::move(value));
}

Json &
Json::operator[](const std::string &key)
{
    if (kind == Type::kNull)
        kind = Type::kObject;
    for (auto &[name, value] : fields) {
        if (name == key)
            return value;
    }
    fields.emplace_back(key, Json());
    return fields.back().second;
}

const Json *
Json::find(const std::string &key) const
{
    for (const auto &[name, value] : fields) {
        if (name == key)
            return &value;
    }
    return nullptr;
}

std::string
jsonEscape(const std::string &raw)
{
    std::string out;
    out.reserve(raw.size() + 2);
    out.push_back('"');
    for (unsigned char c : raw) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\b':
            out += "\\b";
            break;
          case '\f':
            out += "\\f";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out.push_back(static_cast<char>(c));
            }
        }
    }
    out.push_back('"');
    return out;
}

namespace
{

void
writeNumber(std::ostream &os, double value)
{
    if (!std::isfinite(value)) {
        // JSON has no Inf/NaN; emit null rather than an invalid token.
        os << "null";
        return;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    os << buf;
}

} // namespace

void
Json::writeIndented(std::ostream &os, int indent, int depth) const
{
    const bool pretty = indent >= 0;
    const std::string pad =
        pretty ? std::string(static_cast<std::size_t>(indent) *
                                 static_cast<std::size_t>(depth + 1),
                             ' ')
               : std::string();
    const std::string closePad =
        pretty ? std::string(static_cast<std::size_t>(indent) *
                                 static_cast<std::size_t>(depth),
                             ' ')
               : std::string();
    const char *nl = pretty ? "\n" : "";

    switch (kind) {
      case Type::kNull:
        os << "null";
        break;
      case Type::kBool:
        os << (boolean ? "true" : "false");
        break;
      case Type::kNumber:
        if (isInteger)
            os << integer;
        else
            writeNumber(os, number);
        break;
      case Type::kString:
        os << jsonEscape(text);
        break;
      case Type::kArray: {
        os << '[';
        bool first = true;
        for (const Json &item : items) {
            os << (first ? "" : ",") << nl << pad;
            item.writeIndented(os, indent, depth + 1);
            first = false;
        }
        if (!items.empty())
            os << nl << closePad;
        os << ']';
        break;
      }
      case Type::kObject: {
        os << '{';
        bool first = true;
        for (const auto &[name, value] : fields) {
            os << (first ? "" : ",") << nl << pad;
            os << jsonEscape(name) << (pretty ? ": " : ":");
            value.writeIndented(os, indent, depth + 1);
            first = false;
        }
        if (!fields.empty())
            os << nl << closePad;
        os << '}';
        break;
      }
    }
}

void
Json::write(std::ostream &os, int indent) const
{
    writeIndented(os, indent, 0);
}

std::string
Json::dump(int indent) const
{
    std::ostringstream oss;
    write(oss, indent);
    return oss.str();
}

// --- parser ------------------------------------------------------------

namespace
{

/** Recursive-descent JSON parser over an in-memory string. */
class Parser
{
  public:
    explicit Parser(const std::string &source) : src(source) {}

    std::optional<Json>
    document()
    {
        auto value = parseValue();
        if (!value)
            return std::nullopt;
        skipSpace();
        if (pos != src.size())
            return std::nullopt; // trailing garbage
        return value;
    }

  private:
    void
    skipSpace()
    {
        while (pos < src.size() &&
               std::isspace(static_cast<unsigned char>(src[pos]))) {
            ++pos;
        }
    }

    bool
    consume(char c)
    {
        skipSpace();
        if (pos < src.size() && src[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    bool
    literal(const char *word)
    {
        const std::size_t n = std::char_traits<char>::length(word);
        if (src.compare(pos, n, word) != 0)
            return false;
        pos += n;
        return true;
    }

    std::optional<std::string>
    parseString()
    {
        if (!consume('"'))
            return std::nullopt;
        std::string out;
        while (pos < src.size()) {
            const char c = src[pos++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos >= src.size())
                return std::nullopt;
            const char esc = src[pos++];
            switch (esc) {
              case '"':
                out.push_back('"');
                break;
              case '\\':
                out.push_back('\\');
                break;
              case '/':
                out.push_back('/');
                break;
              case 'b':
                out.push_back('\b');
                break;
              case 'f':
                out.push_back('\f');
                break;
              case 'n':
                out.push_back('\n');
                break;
              case 'r':
                out.push_back('\r');
                break;
              case 't':
                out.push_back('\t');
                break;
              case 'u': {
                if (pos + 4 > src.size())
                    return std::nullopt;
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = src[pos++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        return std::nullopt;
                }
                // UTF-8 encode (no surrogate-pair recombination; the
                // writer never emits escapes above U+001F).
                if (code < 0x80) {
                    out.push_back(static_cast<char>(code));
                } else if (code < 0x800) {
                    out.push_back(
                        static_cast<char>(0xC0 | (code >> 6)));
                    out.push_back(
                        static_cast<char>(0x80 | (code & 0x3F)));
                } else {
                    out.push_back(
                        static_cast<char>(0xE0 | (code >> 12)));
                    out.push_back(static_cast<char>(
                        0x80 | ((code >> 6) & 0x3F)));
                    out.push_back(
                        static_cast<char>(0x80 | (code & 0x3F)));
                }
                break;
              }
              default:
                return std::nullopt;
            }
        }
        return std::nullopt; // unterminated
    }

    std::optional<Json>
    parseNumber()
    {
        const std::size_t start = pos;
        if (pos < src.size() && src[pos] == '-')
            ++pos;
        bool isInt = true;
        while (pos < src.size()) {
            const char c = src[pos];
            if (std::isdigit(static_cast<unsigned char>(c))) {
                ++pos;
            } else if (c == '.' || c == 'e' || c == 'E' || c == '+' ||
                       c == '-') {
                isInt = false;
                ++pos;
            } else {
                break;
            }
        }
        if (pos == start)
            return std::nullopt;
        const std::string token = src.substr(start, pos - start);
        errno = 0;
        char *end = nullptr;
        if (isInt) {
            const long long value =
                std::strtoll(token.c_str(), &end, 10);
            if (errno == 0 && end == token.c_str() + token.size())
                return Json(static_cast<std::int64_t>(value));
            // fall through to double on overflow
        }
        errno = 0;
        const double value = std::strtod(token.c_str(), &end);
        if (end != token.c_str() + token.size())
            return std::nullopt;
        return Json(value);
    }

    std::optional<Json>
    parseValue()
    {
        skipSpace();
        if (pos >= src.size())
            return std::nullopt;
        const char c = src[pos];
        if (c == '{') {
            ++pos;
            Json obj = Json::object();
            skipSpace();
            if (consume('}'))
                return obj;
            while (true) {
                skipSpace();
                auto key = parseString();
                if (!key || !consume(':'))
                    return std::nullopt;
                auto value = parseValue();
                if (!value)
                    return std::nullopt;
                obj[*key] = std::move(*value);
                if (consume(','))
                    continue;
                if (consume('}'))
                    return obj;
                return std::nullopt;
            }
        }
        if (c == '[') {
            ++pos;
            Json arr = Json::array();
            skipSpace();
            if (consume(']'))
                return arr;
            while (true) {
                auto value = parseValue();
                if (!value)
                    return std::nullopt;
                arr.push(std::move(*value));
                if (consume(','))
                    continue;
                if (consume(']'))
                    return arr;
                return std::nullopt;
            }
        }
        if (c == '"') {
            auto text = parseString();
            if (!text)
                return std::nullopt;
            return Json(std::move(*text));
        }
        if (literal("true"))
            return Json(true);
        if (literal("false"))
            return Json(false);
        if (literal("null"))
            return Json();
        return parseNumber();
    }

    const std::string &src;
    std::size_t pos = 0;
};

} // namespace

std::optional<Json>
Json::parse(const std::string &source)
{
    return Parser(source).document();
}

} // namespace utrr
