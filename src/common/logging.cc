#include "common/logging.hh"

#include <cstdlib>
#include <iostream>
#include <mutex>
#include <stdexcept>
#include <utility>

namespace ramp
{

namespace
{

/** Guards the sink pointer and serialises sink invocations. */
std::mutex &
logMutex()
{
    static std::mutex mutex;
    return mutex;
}

LogSink &
logSink()
{
    static LogSink sink; // Empty = defaultLogSink.
    return sink;
}

/** Deliver one line to the configured sink, serialised. */
void
deliver(LogLevel level, const std::string &msg)
{
    std::lock_guard<std::mutex> lock(logMutex());
    if (logSink())
        logSink()(level, msg);
    else
        defaultLogSink(level, msg);
}

} // namespace

void
setLogSink(LogSink sink)
{
    std::lock_guard<std::mutex> lock(logMutex());
    logSink() = std::move(sink);
}

void
defaultLogSink(LogLevel level, const std::string &msg)
{
    // One composed write so concurrent callers (already serialised
    // by the logging mutex) cannot interleave mid-line; stderr is
    // unbuffered, keeping lines out of piped --json stdout.
    std::cerr << (level == LogLevel::Warn ? "warn: " : "info: ")
              << msg << std::endl;
}

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::cerr << "panic: " << msg << " @ " << file << ":" << line
              << std::endl;
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::cerr << "fatal: " << msg << " @ " << file << ":" << line
              << std::endl;
    std::exit(1);
}

void
invalidImpl(const std::string &msg)
{
    throw std::invalid_argument(msg);
}

void
warnImpl(const std::string &msg)
{
    deliver(LogLevel::Warn, msg);
}

void
informImpl(const std::string &msg)
{
    deliver(LogLevel::Inform, msg);
}

} // namespace ramp
