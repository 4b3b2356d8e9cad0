/**
 * @file
 * Minimal JSON document model, writer and parser.
 *
 * The observability layer emits machine-readable artifacts (Chrome
 * trace_event files, metric snapshots, experiment reports) and the test
 * suite must round-trip them, so we carry a tiny dependency-free JSON
 * implementation instead of gating the feature on an external library.
 * Object keys preserve insertion order so emitted reports read in the
 * order they were built.
 */

#ifndef UTRR_OBS_JSON_HH
#define UTRR_OBS_JSON_HH

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace utrr
{

/**
 * One JSON value (null, bool, number, string, array or object).
 */
class Json
{
  public:
    enum class Type
    {
        kNull,
        kBool,
        kNumber,
        kString,
        kArray,
        kObject,
    };

    Json() = default;
    Json(bool value) : kind(Type::kBool), boolean(value) {}
    Json(double value) : kind(Type::kNumber), number(value) {}
    Json(std::int64_t value)
        : kind(Type::kNumber), number(static_cast<double>(value)),
          integer(value), isInteger(true)
    {
    }
    Json(std::uint64_t value)
        : Json(static_cast<std::int64_t>(value))
    {
    }
    Json(int value) : Json(static_cast<std::int64_t>(value)) {}
    Json(const char *value) : kind(Type::kString), text(value) {}
    Json(std::string value) : kind(Type::kString), text(std::move(value))
    {
    }

    /** Empty array / object factories. */
    static Json array();
    static Json object();

    Type type() const { return kind; }
    bool isNull() const { return kind == Type::kNull; }

    // --- scalar accessors (0/false/"" on type mismatch) ---------------

    bool asBool() const { return kind == Type::kBool && boolean; }
    double asNumber() const
    {
        return kind == Type::kNumber ? number : 0.0;
    }
    std::int64_t asInt() const
    {
        if (kind != Type::kNumber)
            return 0;
        return isInteger ? integer : static_cast<std::int64_t>(number);
    }
    const std::string &asString() const { return text; }

    // --- array operations ----------------------------------------------

    /** Append to an array (converts a null value into an array). */
    void push(Json value);

    std::size_t size() const { return items.size(); }
    const Json &at(std::size_t index) const { return items[index]; }

    // --- object operations ---------------------------------------------

    /**
     * Find-or-insert a member (converts a null value into an object).
     */
    Json &operator[](const std::string &key);

    /** Member lookup; nullptr when absent or not an object. */
    const Json *find(const std::string &key) const;

    /** Object members in insertion order. */
    const std::vector<std::pair<std::string, Json>> &members() const
    {
        return fields;
    }

    // --- serialization ------------------------------------------------

    /** Serialize; indent < 0 means compact single-line output. */
    std::string dump(int indent = -1) const;
    void write(std::ostream &os, int indent = -1) const;

    /** Parse a JSON document; nullopt on any syntax error. */
    static std::optional<Json> parse(const std::string &source);

  private:
    void writeIndented(std::ostream &os, int indent, int depth) const;

    Type kind = Type::kNull;
    bool boolean = false;
    double number = 0.0;
    std::int64_t integer = 0;
    bool isInteger = false;
    std::string text;
    std::vector<Json> items;
    std::vector<std::pair<std::string, Json>> fields;
};

/** Escape a string into its JSON representation (including quotes). */
std::string jsonEscape(const std::string &raw);

} // namespace utrr

#endif // UTRR_OBS_JSON_HH
