#include "telemetry/trace.hh"

#include <chrono>
#include <memory>
#include <mutex>
#include <sstream>

#include "common/json.hh"
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

/** Event buffer of one thread; appended only by its owner. */
struct ThreadBuffer
{
    std::mutex mutex; ///< Owner appends, the collector reads.
    std::vector<TraceEvent> events;
    std::uint32_t tid = 0;
};

struct Collector
{
    std::mutex mutex;
    std::vector<std::shared_ptr<ThreadBuffer>> buffers;
    std::uint32_t nextTid = 1;
};

Collector &
collector()
{
    static Collector instance;
    return instance;
}

/** The calling thread's buffer, registered on first use. */
ThreadBuffer &
threadBuffer()
{
    thread_local std::shared_ptr<ThreadBuffer> buffer = [] {
        auto fresh = std::make_shared<ThreadBuffer>();
        Collector &c = collector();
        std::lock_guard<std::mutex> lock(c.mutex);
        fresh->tid = c.nextTid++;
        c.buffers.push_back(fresh);
        return fresh;
    }();
    return *buffer;
}

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
    ThreadBuffer &buffer = threadBuffer();
    std::lock_guard<std::mutex> lock(buffer.mutex);
    event.tid = buffer.tid;
    buffer.events.push_back(std::move(event));
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
    std::vector<std::shared_ptr<ThreadBuffer>> buffers;
    {
        Collector &c = collector();
        std::lock_guard<std::mutex> lock(c.mutex);
        buffers = c.buffers;
    }
    std::vector<TraceEvent> events;
    for (const auto &buffer : buffers) {
        std::lock_guard<std::mutex> lock(buffer->mutex);
        events.insert(events.end(), buffer->events.begin(),
                      buffer->events.end());
    }
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
    std::vector<std::shared_ptr<ThreadBuffer>> buffers;
    {
        Collector &c = collector();
        std::lock_guard<std::mutex> lock(c.mutex);
        buffers = c.buffers;
    }
    for (const auto &buffer : buffers) {
        std::lock_guard<std::mutex> lock(buffer->mutex);
        buffer->events.clear();
    }
}

} // namespace ramp::telemetry
