/**
 * @file
 * The repo's one JSON module: the writer helpers every emitter
 * shares (string escaping, finite number rendering) and the reader
 * that parses what they write back — whole documents, and JSONL
 * artifacts (a schema header line, then one record per line).
 *
 * The reader is a small recursive-descent parser over the full JSON
 * grammar (objects, arrays, strings with escapes, numbers, bools,
 * null) — sufficient for machine-written documents; it does not aim
 * to be a general-purpose library (no streaming). \uXXXX escapes
 * decode to UTF-8, including supplementary-plane surrogate pairs.
 */

#ifndef RAMP_COMMON_JSON_HH
#define RAMP_COMMON_JSON_HH

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace ramp
{

/**
 * Escape a string for embedding in a JSON string literal: quotes,
 * backslashes, and control characters (\n, \t, \r by name, the rest
 * as \u00XX). Other bytes, UTF-8 included, pass through.
 */
std::string jsonEscape(std::string_view text);

/**
 * Finite JSON number rendering (17 significant digits). JSON has no
 * NaN/Inf tokens, and non-finite values are reachable
 * (RunningStat::min()/max() and FixedHistogram::percentile() are NaN
 * when empty), so they render as `null` — "not measured" — instead
 * of masquerading as 0.
 */
std::string jsonNumber(double value);

/** One parsed JSON value (a tree). */
class JsonValue
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0;
    std::string string;
    std::vector<JsonValue> array;
    std::map<std::string, JsonValue> object;

    bool isNull() const { return kind == Kind::Null; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isObject() const { return kind == Kind::Object; }
    bool isArray() const { return kind == Kind::Array; }
    bool isString() const { return kind == Kind::String; }

    /** Member of an object, or nullptr (also when not an object). */
    const JsonValue *find(const std::string &key) const;

    /** Member's number, or `fallback` when absent/not a number. */
    double numberOr(const std::string &key, double fallback) const;

    /** Member's string, or `fallback` when absent/not a string. */
    std::string stringOr(const std::string &key,
                         const std::string &fallback) const;

    /** Member's bool, or `fallback` when absent/not a bool. */
    bool boolOr(const std::string &key, bool fallback) const;

    /** Member's number as an integral id, or `fallback` when
     * absent/not a number. */
    std::uint64_t uintOr(const std::string &key,
                         std::uint64_t fallback) const;
};

/**
 * Parse a complete JSON document. Returns false (and fills `error`
 * with a position-annotated message) on malformed input or trailing
 * garbage.
 */
bool parseJson(std::string_view text, JsonValue &out,
               std::string &error);

/** Parse a file; false when unreadable or malformed. */
bool parseJsonFile(const std::string &path, JsonValue &out,
                   std::string &error);

/**
 * Read a JSONL artifact: the first non-empty line is a header whose
 * "schema" is one of `schemas` (it lands in `header`), and `record`
 * sees every later non-empty line; it rejects the line by returning
 * false with its (initially empty) `why` filled. `kind` names the
 * file in the "empty <kind> file" error. With `ignore_partial_tail`
 * a last line still missing its newline is skipped (a writer may be
 * mid-line). Returns false with `error` filled when the file is
 * unreadable, a line is malformed or rejected, or the header is
 * missing or foreign.
 */
bool readJsonl(
    const std::string &path,
    std::initializer_list<std::string_view> schemas, const char *kind,
    bool ignore_partial_tail, JsonValue &header,
    const std::function<bool(const JsonValue &record, std::string &why)>
        &record,
    std::string &error);

} // namespace ramp

#endif // RAMP_COMMON_JSON_HH
