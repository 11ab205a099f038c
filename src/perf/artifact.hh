/**
 * @file
 * What the analysis tools (ramp_explain, ramp_health, ramp_prof,
 * bench_diff) share beyond the JSON reader (common/json.hh): the
 * flag-value parsers (the bench binaries' too), the table cell for
 * a measured number, and the file stamp --follow polls.
 */

#ifndef RAMP_PERF_ARTIFACT_HH
#define RAMP_PERF_ARTIFACT_HH

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/parse.hh"

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

/** Parse an integer flag value in [0, max]; else exit via
 * badFlagValue() with "a non-negative integer". */
std::uint64_t
parseCountArg(const char *tool, const char *flag, const std::string &text,
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
 * What a poller compares to see that a file was rewritten: the
 * modification time to the nanosecond, the inode (an atomic
 * tmp + rename writer makes a new one) and the size. Whole-second
 * mtime alone misses a rewrite within the same second.
 */
struct FileStamp
{
    std::int64_t mtimeSeconds = 0;
    std::int64_t mtimeNanos = 0;
    std::uint64_t inode = 0;
    std::uint64_t size = 0;

    bool operator==(const FileStamp &other) const = default;
};

/** The file's stamp, or nullopt when it cannot be stat'ed. */
std::optional<FileStamp> fileStamp(const std::string &path);

} // namespace ramp::perf

#endif // RAMP_PERF_ARTIFACT_HH
