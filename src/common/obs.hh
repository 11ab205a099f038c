/**
 * @file
 * The observability switch: one process-wide enable mask for the
 * four instrumentation layers. A site tests its layer's bit with the
 * inline on() — one relaxed load and a branch, no call — and the
 * harness sets bits from its output table (runner/harness.cc).
 */

#ifndef RAMP_COMMON_OBS_HH
#define RAMP_COMMON_OBS_HH

#include <atomic>
#include <cstdint>

namespace ramp::obs
{

enum Layer : std::uint8_t
{
    Telemetry = 1u << 0, ///< metrics registry and trace spans
    Events = 1u << 1,    ///< decision ledger (eventlog)
    Health = 1u << 2,    ///< epoch health timeline and rules
    Prof = 1u << 3,      ///< cycle profiler phase trees
    All = Telemetry | Events | Health | Prof,
};

/** The enable mask (default: every layer off). */
inline std::atomic<std::uint8_t> mask{0};

/** True when any layer in `bits` is recording. */
inline bool
on(std::uint8_t bits)
{
    return (mask.load(std::memory_order_relaxed) & bits) != 0;
}

/** Switch the layers in `bits` on or off; other bits keep. */
inline void
set(std::uint8_t bits, bool enable)
{
    if (enable)
        mask.fetch_or(bits, std::memory_order_relaxed);
    else
        mask.fetch_and(static_cast<std::uint8_t>(~bits),
                       std::memory_order_relaxed);
}

} // namespace ramp::obs

/**
 * Run one or more statements only while `layer` is recording:
 *
 *   RAMP_OBS(Telemetry, hits.add(1));
 *   RAMP_OBS(Events, { ... ramp::eventlog::emit(record); });
 */
#define RAMP_OBS(layer, ...) \
    do { \
        if (::ramp::obs::on(::ramp::obs::layer)) { \
            __VA_ARGS__; \
        } \
    } while (0)

#endif // RAMP_COMMON_OBS_HH
