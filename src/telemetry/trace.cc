#include "telemetry/trace.hh"

#include <chrono>
#include <mutex>
#include <sstream>

#include "common/json.hh"
#include "common/thread_registry.hh"
#include "telemetry/telemetry.hh"

namespace ramp::telemetry
{

namespace
{

using Clock = std::chrono::steady_clock;

/** Fixed at first trace use; all timestamps are relative. */
Clock::time_point
epoch()
{
    static const Clock::time_point start = Clock::now();
    return start;
}

/** One thread's trace events, appended only by their thread. */
struct ThreadEvents
{
    std::vector<TraceEvent> events;
};

using Buffers = ThreadRegistry<ThreadEvents>;

} // namespace

std::int64_t
nowMicros()
{
    return std::chrono::duration_cast<std::chrono::microseconds>(
               Clock::now() - epoch())
        .count();
}

std::string
traceArg(const std::string &key, const std::string &value)
{
    return "{\"" + jsonEscape(key) + "\": \"" + jsonEscape(value) +
           "\"}";
}

std::string
traceArgNumber(const std::string &key, double value)
{
    return "{\"" + jsonEscape(key) + "\": " + jsonNumber(value) +
           "}";
}

void
emitEvent(TraceEvent event)
{
    Buffers::Slot &slot = Buffers::local();
    std::lock_guard<std::mutex> lock(slot.mutex);
    event.tid = slot.id;
    slot.state.events.push_back(std::move(event));
}

void
instant(const std::string &name, const std::string &cat,
        const std::string &args_json)
{
    if (!obs::on(obs::Trace))
        return;
    TraceEvent event;
    event.name = name;
    event.cat = cat;
    event.phase = 'i';
    event.tsMicros = nowMicros();
    event.argsJson = args_json;
    emitEvent(std::move(event));
}

void
counterEvent(const std::string &name, const std::string &cat,
             const std::string &series, double value)
{
    if (!obs::on(obs::Trace))
        return;
    TraceEvent event;
    event.name = name;
    event.cat = cat;
    event.phase = 'C';
    event.tsMicros = nowMicros();
    event.argsJson = traceArgNumber(series, value);
    emitEvent(std::move(event));
}

std::vector<TraceEvent>
collectEvents()
{
    std::vector<TraceEvent> events;
    Buffers::forEach([&](const ThreadEvents &buffer) {
        events.insert(events.end(), buffer.events.begin(),
                      buffer.events.end());
    });
    return events;
}

std::string
traceJson()
{
    const auto events = collectEvents();
    std::ostringstream out;
    out << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < events.size(); ++i) {
        const TraceEvent &event = events[i];
        out << "  {\"name\": \"" << jsonEscape(event.name)
            << "\", \"cat\": \"" << jsonEscape(event.cat)
            << "\", \"ph\": \"" << event.phase
            << "\", \"ts\": " << event.tsMicros
            << ", \"pid\": 1, \"tid\": " << event.tid;
        if (event.phase == 'i')
            out << ", \"s\": \"t\"";
        if (!event.argsJson.empty())
            out << ", \"args\": " << event.argsJson;
        out << "}" << (i + 1 < events.size() ? "," : "") << "\n";
    }
    out << "], \"displayTimeUnit\": \"ms\"}\n";
    return out.str();
}

void
clearEvents()
{
    Buffers::forEach([](ThreadEvents &buffer) { buffer.events.clear(); });
}

} // namespace ramp::telemetry
