/**
 * @file
 * gem5-style status and error reporting.
 *
 * panic() is for internal invariant violations (simulator bugs) and
 * aborts; fatal() is for user/configuration errors and exits cleanly;
 * warn()/inform() report conditions without stopping the simulation.
 */

#ifndef RAMP_COMMON_LOGGING_HH
#define RAMP_COMMON_LOGGING_HH

#include <functional>
#include <sstream>
#include <string>

namespace ramp
{

/** @{ @name Implementation hooks (see logging.cc). */
[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void invalidImpl(const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);
/** @} */

/** Render a sequence of stream-able values into one string. */
template <typename... Args>
std::string
formatMessage(Args &&...args)
{
    std::ostringstream os;
    ((os << args), ...);
    return os.str();
}

/** Severity of one warn()/inform() line handed to the sink. */
enum class LogLevel
{
    Warn,
    Inform,
};

/**
 * Pluggable destination of warn()/inform() lines. Sinks run under
 * the logging mutex — one warn() is delivered at a time, so lines
 * never interleave — and must not call warn()/inform() themselves.
 */
using LogSink = std::function<void(LogLevel, const std::string &)>;

/** Replace the sink; an empty function restores the default. */
void setLogSink(LogSink sink);

/**
 * The default sink: one serialised "warn:"/"info:" line on stderr
 * per call. Custom sinks (telemetry capture) typically chain it.
 */
void defaultLogSink(LogLevel level, const std::string &msg);

} // namespace ramp

/** Abort on an internal invariant violation (a simulator bug). */
#define ramp_panic(...) \
    ::ramp::panicImpl(__FILE__, __LINE__, ::ramp::formatMessage(__VA_ARGS__))

/** Exit on an unrecoverable user/configuration error. */
#define ramp_fatal(...) \
    ::ramp::fatalImpl(__FILE__, __LINE__, ::ramp::formatMessage(__VA_ARGS__))

/**
 * Reject invalid user input (workload spec, system config) by
 * throwing std::invalid_argument — callers (the runner) contain it
 * instead of the process dying, and the message tells the user what
 * to fix.
 */
#define ramp_invalid(...) \
    ::ramp::invalidImpl(::ramp::formatMessage(__VA_ARGS__))

/** Report a suspicious but non-fatal condition. */
#define ramp_warn(...) \
    ::ramp::warnImpl(::ramp::formatMessage(__VA_ARGS__))

/** Report normal operating status. */
#define ramp_inform(...) \
    ::ramp::informImpl(::ramp::formatMessage(__VA_ARGS__))

#endif // RAMP_COMMON_LOGGING_HH
