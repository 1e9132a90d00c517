/**
 * @file
 * Configuration for the live telemetry plane.
 *
 * Telemetry is *on by default* and sized so that leaving it enabled in
 * production costs under 5% of peak throughput (bench/
 * ext_telemetry_overhead gates this).  The knobs below trade fidelity
 * for memory: per-stage histograms are per-shard and per-tenant, and
 * the flight recorder keeps a fixed ring per shard.  One sampling
 * period (stageSampleEvery) picks the requests both of them see.
 */

#ifndef HYPERPLANE_TELEMETRY_TELEMETRY_CONFIG_HH
#define HYPERPLANE_TELEMETRY_TELEMETRY_CONFIG_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace hyperplane {
namespace telemetry {

struct TelemetryConfig
{
    /**
     * Master switch for the sharded stage histograms and the flight
     * recorder.  Off turns every hot-path recording site into a single
     * predictable branch.
     */
    bool enabled = true;

    /** Flight-recorder ring capacity, events per shard. */
    std::size_t recorderCapacity = 4096;

    /**
     * The one per-request sampling period: requests whose sequence
     * number is a multiple of this (rounded down to a power of two, so
     * the test is one AND + branch; 0 counts as 1) get flight-recorder
     * stamps and per-stage latency samples; the rest skip the clock
     * reads, stamps and histogram updates entirely.  1 traces every
     * request.  Sampling is deterministic on the sequence number, so a
     * sampled request is sampled at *every* stage: it exports as a
     * complete span chain and the per-stage quantiles stay mutually
     * comparable.  At the rates where the cost matters (100k+ req/s)
     * the default still feeds each stage thousands of samples per
     * second.
     */
    std::uint64_t stageSampleEvery = 32;

    /**
     * TCP port for the metrics endpoint; < 0 disables the
     * listener (default: sandboxed test environments may lack
     * sockets), 0 binds an ephemeral port (see
     * UdpServer::metricsPort()).
     */
    int metricsPort = -1;

    /** Bind address for the metrics endpoint. */
    std::string metricsIp = "127.0.0.1";
};

} // namespace telemetry
} // namespace hyperplane

#endif // HYPERPLANE_TELEMETRY_TELEMETRY_CONFIG_HH
