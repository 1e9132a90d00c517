/**
 * @file
 * Stateful data-plane application suite: shared handler interface,
 * app-level payload codecs, and deterministic request synthesis.
 *
 * Three production-shaped applications run behind one interface:
 *
 *  - heavy-hitter detection: a count-min sketch + per-flow promotion
 *    table flags large aggregates in the data path ("Seek and Push",
 *    arXiv 1805.05993);
 *  - connection-tracking NAT/LB: per-flow 5-tuple state (backend,
 *    expected seqno, idle timestamp) with idle-entry expiry;
 *  - passive RTT telemetry: QUIC-style spin-bit edge detection feeding
 *    per-flow RTT histograms (arXiv 2112.02875).
 *
 * Every handler is *sharded*: state lives in numShards independent
 * partitions and a request's shard is its queue id, which the server
 * derives from the crc32c flow hash — so each flow's state is owned by
 * exactly one queue, and (in the simulator) by exactly one cluster.
 * That is the core-local state-consistency argument of "Relaxing
 * state-access constraints in stateful programmable data planes"
 * (arXiv 1703.05442): flow-sharded state needs no cross-core
 * coordination, as long as one thread at a time owns a queue.  Both
 * callers guarantee that — the server serves a queue under its
 * per-queue serving lock, the simulator is single-threaded — so shards
 * take no locks.  Counters a scraper reads are stats::WriterCell
 * single-writer cells; idle state expires inside handle(), per shard,
 * in both environments.
 *
 * The same handler classes are registered in BOTH execution
 * environments: the UDP server's worker pool dispatches wire opcodes
 * 3..5 to them (src/server/server.cc), and the simulator wraps them as
 * workloads::Kind::{HeavyHitter,ConntrackLb,SpinRtt}
 * (src/workloads/stateful_app.hh), so sim and server run the same
 * state logic on the same synthesized request streams.
 *
 * App payload formats (inside the wire payload, all big-endian; decode
 * fails closed on any length or field-range mismatch):
 *
 *   heavy-hitter request  (8B):  key u32, weight u32
 *   heavy-hitter response (16B): estimate u64, hot u8, zero[7]
 *   conntrack request     (20B): verb u8 (0 open / 1 data / 2 close),
 *                                zero[3], srcIp u32, dstIp u32,
 *                                srcPort u16, dstPort u16, seqNo u32
 *   conntrack response    (12B): backend u32, expectedSeq u32,
 *                                state u8 (0 none / 1 established),
 *                                zero[3]
 *   spin-rtt request      (4B):  spin u8 (0/1), zero[3]
 *   spin-rtt response     (16B): spin u8 (reflected), zero[3],
 *                                edges u32, lastRttNs u64
 */

#ifndef HYPERPLANE_APP_APP_HH
#define HYPERPLANE_APP_APP_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "stats/registry.hh"

namespace hyperplane {
namespace app {

/** The three stateful applications, in wire-opcode order. */
enum class AppKind : std::uint8_t
{
    HeavyHitter = 0,
    ConntrackLb = 1,
    SpinRtt = 2,
};

constexpr unsigned numAppKinds = 3;

/** Human name ("heavy-hitter"). */
const char *toString(AppKind k);

/** Registry/metric name ("heavy_hitter"). */
const char *statName(AppKind k);

/** Transport-independent request context. */
struct AppRequest
{
    std::uint32_t flowId = 0;
    std::uint64_t seq = 0;
    /** Monotonic time (server: ns since start; sim: ns of arrival). */
    std::uint64_t nowNs = 0;
    const std::uint8_t *payload = nullptr;
    std::uint32_t payloadLen = 0;
};

/** Outcome of one handled request. */
struct AppResult
{
    /** False when the payload failed the app's own parser. */
    bool ok = false;
    /** Response bytes written into the caller's out buffer. */
    std::uint32_t payloadLen = 0;
    /**
     * State operations performed (sketch probes, table lookups,
     * inserts, expiries) — the simulator's timing model charges extra
     * cycles per operation.
     */
    std::uint32_t opCost = 0;
};

/**
 * One stateful application, sharded by queue id.
 *
 * handle() may write the response into a buffer that ALIASES
 * req.payload (the server's zero-copy frames build the response over
 * the request in place), so implementations decode the request fully
 * before writing a byte of output.
 */
class StatefulHandler
{
  public:
    virtual ~StatefulHandler() = default;

    virtual AppKind kind() const = 0;
    const char *name() const { return statName(kind()); }

    /**
     * Handle one request whose flow is owned by @p shard.  The caller
     * guarantees at most one caller per shard at a time (the shard
     * takes no lock); calls on distinct shards may run concurrently.
     * A request whose own state has idled past the timeout finds it
     * expired, and an amortized shard sweep bounds the table.
     *
     * @return ok=false (and no output) when the payload fails to
     *         decode — the caller maps that to wire::statusBadPayload.
     */
    virtual AppResult handle(unsigned shard, const AppRequest &req,
                             std::uint8_t *out, std::size_t outCap) = 0;

    /** Register this app's counters under "<prefix>" (cold path, any
     *  thread: every value is a single-writer cell). */
    virtual void registerStats(stats::Registry &reg,
                               const std::string &prefix) = 0;
};

/** Tuning knobs for all three handlers (per-shard sizes). */
struct AppConfig
{
    /** State partitions; the server sets this to its queue count. */
    unsigned numShards = 16;

    // --- heavy hitter ------------------------------------------------
    /** Count-min sketch counters per row, per shard (power of two). */
    unsigned sketchWidth = 2048;
    /** Sketch rows (independent hash functions). */
    unsigned sketchDepth = 4;
    /** Estimated aggregate weight that promotes a key to the exact
     *  per-flow table. */
    std::uint64_t promoteThreshold = 4096;
    /** Promotion-table capacity per shard (smallest-count eviction). */
    std::size_t maxPromoted = 1024;

    // --- conntrack LB ------------------------------------------------
    /** Backend pool the load balancer spreads connections across. */
    unsigned numBackends = 64;
    /** Connection idle timeout before expiry. */
    std::uint64_t idleTimeoutNs = 2'000'000'000ULL;
    /** Connection-table capacity per shard. */
    std::size_t maxEntriesPerShard = 1u << 20;

    // --- spin-bit RTT ------------------------------------------------
    /** RTT histogram geometry (nanosecond samples). */
    double rttHistBaseNs = 1000.0;
    double rttHistGrowth = 1.05;
    unsigned rttHistBins = 512;
    /** Flow tracking idle timeout. */
    std::uint64_t flowTimeoutNs = 2'000'000'000ULL;

    std::uint64_t seed = 0x5eed5eedULL;
};

/** Factory: one sharded handler instance. */
std::unique_ptr<StatefulHandler> makeHandler(AppKind kind,
                                             const AppConfig &cfg);

// ---------------------------------------------------------------------
// App payload codecs (big-endian, fixed size, fail-closed decode).
// ---------------------------------------------------------------------

struct HhRequest
{
    static constexpr std::size_t wireSize = 8;
    std::uint32_t key = 0;
    std::uint32_t weight = 0;
};

struct HhResponse
{
    static constexpr std::size_t wireSize = 16;
    std::uint64_t estimate = 0;
    std::uint8_t hot = 0;
};

/** Conntrack request verbs (a plausible connection lifecycle). */
enum class CtVerb : std::uint8_t
{
    Open = 0,  ///< SYN-like: establish, pick a backend
    Data = 1,  ///< mid-connection segment, seqno-checked
    Close = 2, ///< FIN-like: tear the entry down
};

struct CtRequest
{
    static constexpr std::size_t wireSize = 20;
    CtVerb verb = CtVerb::Open;
    std::uint32_t srcIp = 0;
    std::uint32_t dstIp = 0;
    std::uint16_t srcPort = 0;
    std::uint16_t dstPort = 0;
    std::uint32_t seqNo = 0;
};

struct CtResponse
{
    static constexpr std::size_t wireSize = 12;
    std::uint32_t backend = 0;
    std::uint32_t expectedSeq = 0;
    std::uint8_t state = 0; ///< 0 none, 1 established
};

struct SpinRequest
{
    static constexpr std::size_t wireSize = 4;
    std::uint8_t spin = 0; ///< 0 or 1
};

struct SpinResponse
{
    static constexpr std::size_t wireSize = 16;
    std::uint8_t spin = 0; ///< request's spin, reflected
    std::uint32_t edges = 0;
    std::uint64_t lastRttNs = 0;
};

/** Encoders: @return bytes written, or 0 when @p cap is too small. */
std::size_t encode(const HhRequest &m, std::uint8_t *buf,
                   std::size_t cap);
std::size_t encode(const HhResponse &m, std::uint8_t *buf,
                   std::size_t cap);
std::size_t encode(const CtRequest &m, std::uint8_t *buf,
                   std::size_t cap);
std::size_t encode(const CtResponse &m, std::uint8_t *buf,
                   std::size_t cap);
std::size_t encode(const SpinRequest &m, std::uint8_t *buf,
                   std::size_t cap);
std::size_t encode(const SpinResponse &m, std::uint8_t *buf,
                   std::size_t cap);

/** Decoders: fail closed on exact-length or field-range mismatch. */
std::optional<HhRequest> decodeHhRequest(const std::uint8_t *data,
                                         std::size_t len);
std::optional<HhResponse> decodeHhResponse(const std::uint8_t *data,
                                           std::size_t len);
std::optional<CtRequest> decodeCtRequest(const std::uint8_t *data,
                                         std::size_t len);
std::optional<CtResponse> decodeCtResponse(const std::uint8_t *data,
                                           std::size_t len);
std::optional<SpinRequest> decodeSpinRequest(const std::uint8_t *data,
                                             std::size_t len);
std::optional<SpinResponse> decodeSpinResponse(const std::uint8_t *data,
                                               std::size_t len);

// ---------------------------------------------------------------------
// Deterministic request synthesis — shared by the load generator and
// the simulator's workload wrapper so both environments emit the same
// flow-coherent packet sequences.
// ---------------------------------------------------------------------

/** Packets per synthetic conntrack connection: flowSeq % length == 0
 *  opens, == length-1 closes, everything between is data. */
constexpr std::uint64_t ctConnectionLength = 64;

/** The verb a flow's @p flowSeq-th packet carries. */
constexpr CtVerb
ctVerbFor(std::uint64_t flowSeq)
{
    const std::uint64_t phase = flowSeq % ctConnectionLength;
    return phase == 0 ? CtVerb::Open
           : phase == ctConnectionLength - 1 ? CtVerb::Close
                                             : CtVerb::Data;
}

/** The simulator flips a flow's spin bit every this many packets. */
constexpr std::uint64_t spinFlipPeriod = 8;

/** The synthetic 5-tuple a flow's conntrack packets carry (stable per
 *  flowId, so a connection's packets always hash to one shard). */
CtRequest ctRequestFor(std::uint32_t flowId, std::uint64_t flowSeq);

/**
 * Synthesize the @p flowSeq-th request payload of flow @p flowId for
 * @p kind into @p out.  @p spin is the flow's current spin-bit value
 * (ignored by the other apps).  @return bytes written (0 if @p cap is
 * too small).
 */
std::size_t synthesizeRequest(AppKind kind, std::uint32_t flowId,
                              std::uint64_t flowSeq, std::uint8_t spin,
                              std::uint8_t *out, std::size_t cap);

} // namespace app
} // namespace hyperplane

#endif // HYPERPLANE_APP_APP_HH
