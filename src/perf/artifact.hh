/**
 * @file
 * What the analysis tools (ramp_explain, ramp_health, ramp_prof,
 * bench_diff) share: the JSONL artifact reader, their flag-value
 * parsers, and the table cell for a measured number.
 */

#ifndef RAMP_PERF_ARTIFACT_HH
#define RAMP_PERF_ARTIFACT_HH

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <string_view>

#include "perf/json.hh"

namespace ramp::perf
{

/** The value after flag argv[i], advancing i; prints "<tool>:
 * <flag> needs a value" and exits 2 when it is missing. */
const char *flagValue(const char *tool, int argc, char **argv, int &i,
                      const char *flag);

/**
 * Parse a non-negative integer flag value. On malformed input
 * prints "<tool>: <flag> needs a non-negative integer, got
 * '<text>'" to stderr and exits with status 2 (usage).
 */
std::uint64_t parseCountArg(const char *tool, const char *flag,
                            const char *text);

/** Parse a positive number flag value; exits 2 like parseCountArg
 * ("<tool>: <flag> needs a positive number, got '<text>'"). */
double parsePositiveArg(const char *tool, const char *flag,
                        const char *text);

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
