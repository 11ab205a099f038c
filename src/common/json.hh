/**
 * @file
 * The JSON writer helpers every emitter shares: string escaping and
 * finite number rendering.
 */

#ifndef RAMP_COMMON_JSON_HH
#define RAMP_COMMON_JSON_HH

#include <string>
#include <string_view>

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

} // namespace ramp

#endif // RAMP_COMMON_JSON_HH
