/**
 * @file
 * Single-thread open-loop UDP request generator.
 *
 * The generator runs in its own process over one socket so its CPU time
 * is never billed to the server.  Departures follow a Poisson schedule
 * that is a pure function of the seed and the per-tenant rates; each
 * request is stamped with its *due* time, so a late send shows up as
 * latency instead of being hidden, and the lateness itself is reported.
 * Between departures the generator sleeps in ppoll() (draining responses
 * as they arrive) and spins only for the last few microseconds.
 *
 * Traffic matches the in-tree tools: requests are built with
 * wire::buildRequest, stateful-app payloads with app::synthesizeRequest,
 * and each tenant's flows get UdpLoadGen's flow-coherent opcode
 * assignment (same RNG draw order: shape weights, payload templates,
 * then one opcode per flow).
 *
 * Every response is checked: it must parse, match exactly one request
 * sent (seq, flow, opcode and due time), and an echo must carry the
 * exact payload.  Per-flow reorders are counted, not failed.
 */

#ifndef PERFBENCH_GEN_HH
#define PERFBENCH_GEN_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "server/wire.hh"
#include "sim/rng.hh"
#include "traffic/shapes.hh"

namespace perfbench {

/** One tenant's offered traffic. */
struct TenantLoad
{
    double rate = 1000.0; ///< requests per second
    unsigned numFlows = 64;
    hyperplane::traffic::Shape shape = hyperplane::traffic::Shape::FB;
    /** Weights by opcode (Echo, Encap, Steer, HeavyHitter, Conntrack,
     *  SpinRtt), assigned per flow as UdpLoadGen does. */
    std::array<double, hyperplane::server::wire::numOpcodes> opcodeWeights{
        1.0, 0.0, 0.0, 0.0, 0.0, 0.0};
};

struct GenConfig
{
    std::uint16_t port = 0;
    double seconds = 1.0;    ///< send phase
    double warmupSec = 0.2;  ///< leading part excluded from latency
    double windowSec = 0.5;  ///< latency percentile window
    std::uint64_t seed = 1;
    /** Tenant t owns flow labels t + numTenants * f (the server's
     *  flowId % numTenants classifier). */
    std::vector<TenantLoad> tenants{TenantLoad{}};

    std::vector<std::string> toArgs() const;
    /** Parse toArgs() output; false on anything malformed. */
    static bool fromArgs(const std::vector<std::string> &args,
                         GenConfig &out);

  private:
    static bool parseArgs(const std::vector<std::string> &args,
                          GenConfig &out);
};

/** Bytes of every echo / encap / steer request payload. */
constexpr std::uint32_t payloadBytes = 64;

/** One scheduled request. */
struct Departure
{
    std::uint64_t dueNs = 0; ///< since the start of the send phase
    unsigned tenant = 0;
    std::uint32_t flow = 0; ///< flow index within the tenant
};

/** Per-tenant flow population, seeded as UdpLoadGen seeds its own. */
class TenantTraffic
{
  public:
    TenantTraffic(const TenantLoad &load, std::uint64_t seed);

    std::uint32_t pickFlow() { return pick(flowCum_, rng_.uniform()); }
    std::uint8_t opcodeOf(std::uint32_t flow) const
    {
        return flowOpcode_[flow];
    }
    const std::vector<std::uint8_t> &payload(std::uint8_t op) const
    {
        return payloads_[op];
    }

  private:
    static std::uint32_t pick(const std::vector<double> &cum, double u);

    hyperplane::Rng rng_;
    std::vector<double> flowCum_;
    std::vector<std::vector<std::uint8_t>> payloads_;
    std::vector<std::uint8_t> flowOpcode_;
};

/**
 * The departure schedule: merged Poisson arrivals of every tenant.  A
 * pure function of (seed, tenant rates, flow populations).
 */
class Schedule
{
  public:
    Schedule(std::uint64_t seed, const std::vector<TenantLoad> &tenants);

    Departure next();

    TenantTraffic &tenant(unsigned t) { return traffic_[t]; }
    unsigned numTenants() const
    {
        return static_cast<unsigned>(traffic_.size());
    }

  private:
    hyperplane::Rng rng_;
    double meanGapNs_ = 0.0;
    double clockNs_ = 0.0;
    std::vector<double> tenantCum_;
    std::vector<TenantTraffic> traffic_;
};

/** What one generator run saw. */
struct GenResult
{
    std::uint64_t attempted = 0; ///< departures scheduled
    std::uint64_t sendFail = 0;  ///< datagrams the kernel refused
    std::uint64_t okAnswered = 0;
    std::uint64_t badStatus = 0;
    std::uint64_t shed = 0; ///< typed rejects
    std::uint64_t parseErrors = 0;
    std::uint64_t unmatched = 0; ///< responses matching no request sent
    std::uint64_t duplicates = 0;
    std::uint64_t payloadMismatch = 0;
    std::uint64_t flowReorders = 0;
    std::uint64_t latencySamples = 0;
    /** Client latency from due time, per window, microseconds. */
    std::vector<double> windowP50Us;
    std::vector<double> windowP99Us;
    /** Over every post-warmup sample. */
    double p50Us = 0.0;
    double p99Us = 0.0;
    /** Send time minus due time, microseconds. */
    double lateP50Us = 0.0;
    double lateP99Us = 0.0;
    double cpuSec = 0.0; ///< the generator's own CPU time

    /** Responses of any status. */
    std::uint64_t received() const { return okAnswered + badStatus + shed; }

    std::vector<std::string> serialize() const;
    static GenResult parse(const std::vector<std::string> &lines);
};

/**
 * Child-process entry: open the socket, print "ready", wait for "go"
 * on stdin, run, print the result lines then "end".  @return exit code.
 */
int generatorMain(const GenConfig &cfg);

} // namespace perfbench

#endif // PERFBENCH_GEN_HH
