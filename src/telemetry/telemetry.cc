#include "telemetry/telemetry.hh"

#include <mutex>

#include "common/logging.hh"

namespace ramp::telemetry
{

void
captureLogEvents()
{
    static std::once_flag once;
    std::call_once(once, [] {
        setLogSink([](LogLevel level, const std::string &msg) {
            defaultLogSink(level, msg);
            instant(level == LogLevel::Warn ? "warn" : "inform",
                    "log", traceArg("message", msg));
        });
    });
}

void
resetAll()
{
    metrics().resetValues();
    clearEvents();
}

} // namespace ramp::telemetry
