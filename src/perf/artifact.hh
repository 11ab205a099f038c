/**
 * @file
 * What the analysis tools (ramp_explain, ramp_health, ramp_prof,
 * bench_diff) share: the JSONL artifact reader, the flag-value
 * parsers (the bench binaries' too), and the table cell for a
 * measured number.
 */

#ifndef RAMP_PERF_ARTIFACT_HH
#define RAMP_PERF_ARTIFACT_HH

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "common/parse.hh"
#include "perf/json.hh"

namespace ramp::perf
{

/** The value after flag args[i], advancing i; prints "<tool>:
 * <flag> needs a value" and exits 2 when it is missing. */
const std::string &flagValue(const char *tool,
                             const std::vector<std::string> &args,
                             std::size_t &i, const char *flag);

/** Print "<tool>: <flag> needs <need>, got '<text>'" to stderr and
 * exit with status 2 (usage): the sink of every flag reader. */
[[noreturn]] void badFlagValue(const char *tool, const char *flag,
                               const char *need,
                               const std::string &text);

/** Parse an integer flag value in [min, max] (min 0 or 1); else
 * exit via badFlagValue() with "a non-negative integer" ("a
 * positive integer" when min is 1). */
std::uint64_t
parseCountArg(const char *tool, const char *flag, const std::string &text,
              std::uint64_t min = 0,
              std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

/** Parse a finite positive flag value as a T (truncated when T is
 * an integer); else exit via badFlagValue(), "a positive number". */
template <typename T = double>
T
parsePositiveArg(const char *tool, const char *flag,
                 const std::string &text)
{
    T out{};
    const auto value = readNumber(text);
    if (!value || !(*value > 0) || !assignFinite(out, *value))
        badFlagValue(tool, flag, "a positive number", text);
    return out;
}

/** `value` at `precision` significant digits; "-" when not finite
 * (unmeasured). */
std::string numberCell(double value, int precision);

/**
 * Read a JSONL artifact: the first non-empty line is a header whose
 * "schema" is one of `schemas` (it lands in `header`), and `record`
 * sees every later non-empty line. `kind` names the file in the
 * "empty <kind> file" error. With `ignore_partial_tail` a last line
 * still missing its newline is skipped (a writer may be mid-line).
 * Returns false with `error` filled when the file is unreadable, a
 * line is malformed, or the header is missing or foreign.
 */
bool readJsonl(const std::string &path,
               std::initializer_list<std::string_view> schemas,
               const char *kind, bool ignore_partial_tail,
               JsonValue &header,
               const std::function<void(const JsonValue &)> &record,
               std::string &error);

} // namespace ramp::perf

#endif // RAMP_PERF_ARTIFACT_HH
