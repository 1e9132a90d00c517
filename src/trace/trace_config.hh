/**
 * @file
 * Runtime tracing configuration, embedded in dp::SdpConfig.
 *
 * With enable unset, no flight recorder or breakdown tracker is
 * constructed and every stamp site reduces to a null-pointer test.
 * The time-series sampler is gated separately by its period so counter
 * trajectories can be captured without event tracing.
 */

#ifndef HYPERPLANE_TRACE_TRACE_CONFIG_HH
#define HYPERPLANE_TRACE_TRACE_CONFIG_HH

#include <cstddef>

namespace hyperplane {
namespace trace {

/** Per-run observability knobs. */
struct TraceConfig
{
    /** Record notification-path events + the latency breakdown. */
    bool enable = false;
    /** Flight-recorder capacity, events (overflow drops the oldest). */
    std::size_t bufferCapacity = 1 << 16;
    /** Snapshot every registry entry every this many us; 0 disables. */
    double sampleEveryUs = 0.0;
};

} // namespace trace
} // namespace hyperplane

#endif // HYPERPLANE_TRACE_TRACE_CONFIG_HH
