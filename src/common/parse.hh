/**
 * @file
 * The one parser of typed input (DESIGN.md §12, "Input grammar"):
 * the tokenizer of the --inject, --scheme and --health-rules spec
 * lists (`entry;entry`, entry `head[:body]`, body `field,field`;
 * blanks around tokens ignored, empty entries and fields skipped)
 * and the bounded readers behind every typed number. Readers only
 * report failure; each grammar or flag keeps its own message.
 */

#ifndef RAMP_COMMON_PARSE_HH
#define RAMP_COMMON_PARSE_HH

#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace ramp
{

/** `text` without surrounding spaces and tabs. */
std::string trimToken(std::string_view text);

/** The non-empty trimmed pieces of `text` between `sep`s. */
std::vector<std::string> splitSpec(std::string_view text, char sep);

/** One `head[:body]` entry of a spec list, every part trimmed. */
struct SpecEntry
{
    std::string text;     ///< the whole entry
    std::string head;     ///< before the first ':'
    std::string body;     ///< after it ("" without one)
    bool hasBody = false; ///< the entry has a ':'
};

/** The non-empty ';'-separated entries of `text`. */
std::vector<SpecEntry> specEntries(std::string_view text);

/** Split `key=value` into trimmed halves; without a '=' sets
 * `error` to "<grammar>: field '<field>' needs key=value". */
bool splitKeyValue(std::string_view grammar, const std::string &field,
                   std::string &key, std::string &value,
                   std::string &error);

/** "<grammar>: no <noun> in '<text>'". */
std::string noEntriesError(std::string_view grammar,
                           std::string_view noun, std::string_view text);

/** `%.9g`: any value of up to 9 significant digits formats back to
 * a spelling that parses to it. */
std::string formatNumber(double value);

/** The ';'-joined spellings of `items`. */
template <typename T, typename Format>
std::string
joinSpecs(const std::vector<T> &items, Format format)
{
    std::string out;
    for (const T &item : items) {
        if (!out.empty())
            out += ';';
        out += format(item);
    }
    return out;
}

/** The enumerator in [first, last] whose `name` spells `text`. */
template <typename E>
std::optional<E>
parseName(std::string_view text, E first, E last, const char *(*name)(E))
{
    for (auto i = static_cast<int>(first); i <= static_cast<int>(last); ++i)
        if (text == name(static_cast<E>(i)))
            return static_cast<E>(i);
    return std::nullopt;
}

/** A whole token in strtod syntax (leading space, sign, exponent,
 * nan/inf spellings); nullopt when empty or anything is left over. */
std::optional<double> readNumber(std::string_view token);

/**
 * Store `value` in `field` when it is finite and, truncated as the
 * cast does, fits T; otherwise return false and leave `field` alone.
 */
template <typename T>
bool
assignFinite(T &field, double value)
{
    if (!std::isfinite(value))
        return false;
    if constexpr (std::is_integral_v<T>) {
        // The exclusive bound max + 1 is a power of two, exact as a
        // double; a 64-bit max already rounds up to it.
        using limits = std::numeric_limits<T>;
        const double whole = std::trunc(value);
        if (whole < static_cast<double>(limits::min()) ||
            whole >= static_cast<double>(limits::max()) + 1.0)
            return false;
    }
    field = static_cast<T>(value);
    return true;
}

/** The finite-number reader: readNumber() then assignFinite(). */
template <typename T = double>
std::optional<T>
readFinite(std::string_view token)
{
    T out{};
    const auto value = readNumber(token);
    if (!value || !assignFinite(out, *value))
        return std::nullopt;
    return out;
}

/** The count reader: a whole token in strtoull syntax (leading
 * space, '+') up to `max`; nullopt if negative or overflowing. */
std::optional<std::uint64_t>
readCount(std::string_view token,
          std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

} // namespace ramp

#endif // RAMP_COMMON_PARSE_HH
