/**
 * @file
 * An event-driven UDP data-plane server on top of the QWAIT runtime.
 *
 * The pipeline is the paper's Figure 2 made real, run to completion:
 *
 *   RX threads ──> per-flow request queues ──> EmuHyperPlane doorbells
 *   (epoll + recvmmsg,      (MpmcQueue)         (ring per batch, wake
 *    SO_REUSEPORT shards)                        deferred)
 *        │                                          │
 *        │ serve one grant inline                   │ wake one worker if
 *        v                                          v work is left
 *   take -> handler -> sendmmsg          DataPlanePool workers
 *   (on the RX socket)                   (QWAIT -> take -> handler ->
 *                                         sendmmsg on their own socket)
 *
 * RX threads parse untrusted datagrams with the src/net codecs (parsers
 * fail closed), steer each request to a task queue by hashing its flow
 * key, enqueue it, and ring the queue's doorbell — one ring per
 * (batch, queue), with the wake deferred.  The RX thread then serves
 * one grant itself (qwaitNonBlocking -> take -> handler), sends those
 * replies and the batch's typed rejects in one sendmmsg, and wakes a
 * parked worker only if grantable work remains.  Below capacity that
 * single grant covers the batch and no other thread runs; at
 * saturation the workers serve the rest, each sending its own replies.
 * One thread serves a queue at a time: a per-queue serving lock, taken
 * after take() and held from the pop to the send, makes each flow's
 * replies leave in arrival order and lets the stateful apps keep their
 * flow-sharded state without locks (the paper's in-order mode, which
 * never grants a queue while its items are in flight).
 * Handlers are the real workloads (echo, GRE-in-IPv6 encapsulation via
 * src/net, session-affinity steering via src/workloads, stateful apps).
 *
 * Each RX batch runs four stages, one call each in rxLoop():
 * receiveBatch (top up the frames, recvmmsg), admitBatch (SIMD
 * precheck, parse, classify, steer, admit or shed, push), ringTouched
 * (one deferred ring per touched queue) and serveInline (one grant,
 * the send, a wake if work is left).
 *
 * RX threads are the only ringers, and each rings a touched queue once
 * per batch with at least one item, so there is no doorbell storm to
 * contain and no ring to lose (a ring is a call under the device
 * lock): nothing sweeps the queues.  RX blocks in epoll_wait, the
 * workers park in QWAIT and the metrics endpoint blocks in accept(),
 * none with a timeout, so an idle server's threads never wake.
 *
 * Instrumentation is one substrate.  Every count is one add into a
 * single-writer cell of telemetry::CounterShards (shard x tenant x
 * counter), and every event is stamped once, into the sampled
 * trace::FlightRecorder: DoorbellWrite and AdmissionShed (RX),
 * QwaitReturn (grant), Service spans and Completion (the serving
 * thread).
 * One period, telemetry.stageSampleEvery, picks the requests that get
 * both flight stamps and stage-histogram samples; 1 traces every
 * request, and flightTraceJson() renders the rings for Perfetto.
 * admitBatch decides it once per request and the bit rides on the
 * Request and its Response, so no later stage asks again.
 * Ticks are nsToTicks(ns since start), so exported microseconds are
 * wall-clock microseconds.
 */

#ifndef HYPERPLANE_SERVER_SERVER_HH
#define HYPERPLANE_SERVER_SERVER_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/ready_set.hh"
#include "emu/data_plane_pool.hh"
#include "emu/emu_hyperplane.hh"
#include "queueing/mpmc_queue.hh"
#include "server/buffer_pool.hh"
#include "server/tenant.hh"
#include "server/udp_socket.hh"
#include "server/wire.hh"
#include "stats/counter.hh"
#include "stats/registry.hh"
#include "telemetry/metrics_server.hh"
#include "telemetry/shard_stats.hh"
#include "telemetry/telemetry_config.hh"
#include "trace/flight_recorder.hh"
#include "app/app.hh"
#include "workloads/packet_steering.hh"

namespace hyperplane {
namespace server {

/** UDP server configuration. */
struct ServerConfig
{
    std::string bindIp = "127.0.0.1";
    /** Bind port; 0 picks an ephemeral port (see UdpServer::port()). */
    std::uint16_t port = 0;

    /** RX threads; each owns an SO_REUSEPORT shard of the port and
     *  sends its typed rejects and inline-served replies on it. */
    unsigned rxThreads = 1;
    /** QWAIT worker threads in the DataPlanePool; each sends its
     *  replies on a socket of its own. */
    unsigned workers = 2;
    /** Task queues requests are steered across. */
    unsigned numQueues = 16;

    /** Datagrams per recvmmsg/sendmmsg call. */
    unsigned rxBatch = 32;
    /**
     * Zero-copy frame pool size per RX shard.  Frames hold a datagram
     * from recvmmsg to sendmmsg (RX -> queue -> serving thread), so this
     * bounds one shard's requests in flight; a dry pool sheds new
     * arrivals with typed rejects from the reserve below.
     */
    std::uint32_t framesPerRxShard = 4096;
    /** Items a worker claims per QWAIT grant. */
    std::uint64_t maxBatch = 16;

    /** Service policy of the notification device. */
    core::ServicePolicy policy = core::ServicePolicy::RoundRobin;

    /**
     * Tenant table: classification, per-tenant token-bucket admission,
     * disjoint queue groups, and per-queue WRR weights.  Empty runs one
     * implicit unlimited tenant over every queue (the pre-multi-tenant
     * behaviour).  Malformed lists make start() throw
     * std::invalid_argument with the same messages as
     * dp::SdpConfig::validate().
     */
    std::vector<dp::TenantSpec> tenants;

    /**
     * Overload-shedding watermarks over the total queued-request
     * backlog.  At shedLowWatermark the lowest-priority tenant starts
     * being refused (wire::statusShed); thresholds interpolate up to
     * shedHighWatermark where every tenant sheds.  High = 0 disables
     * watermark shedding.
     */
    std::size_t shedLowWatermark = 0;
    std::size_t shedHighWatermark = 0;

    /** Seed of the serving lanes' Steer-opcode steerers. */
    std::uint64_t seed = 1;

    /**
     * Stateful application knobs (opcodes 3..5).  numShards is
     * overridden with numQueues at start() so an app shard is exactly
     * one task queue and every flow's state is owned by the queue its
     * crc32c hash steers it to.
     */
    app::AppConfig app;

    /** Live telemetry plane (on by default; see TelemetryConfig). */
    telemetry::TelemetryConfig telemetry;
};

/**
 * Point-in-time copy of the server's counters: server-wide from
 * UdpServer::counterSnapshot(), or one tenant's column from
 * counterSnapshot(tenant).
 */
struct ServerCounterSnapshot
{
    std::uint64_t rxBatches = 0;
    std::uint64_t rxPackets = 0;
    std::uint64_t parseErrors = 0;
    std::uint64_t admitted = 0;
    std::uint64_t served = 0;
    /** Part of served that RX threads served on their own grant. */
    std::uint64_t servedInline = 0;
    std::uint64_t txPackets = 0;
    std::uint64_t queueDrops = 0;
    std::uint64_t poolDrops = 0;
    /** Failed frame acquires across the RX pools + reject reserve. */
    std::uint64_t poolExhausted = 0;
    /** Payload copies between RX and TX frames (echo keeps this 0). */
    std::uint64_t payloadCopies = 0;
    std::uint64_t shedRateLimited = 0;
    std::uint64_t shedWatermark = 0;
    std::uint64_t shedQueueFull = 0;
    std::uint64_t badStatus = 0;
    /** Always 0: replies leave on the thread that served them, so no
     *  queue sits between service and send to overflow.  Kept for
     *  callers that sum it into their loss accounting. */
    std::uint64_t txDrops = 0;
    std::uint64_t txSendErrors = 0;

    /** Every reject flavour combined. */
    std::uint64_t shedTotal() const
    {
        return shedRateLimited + shedWatermark + shedQueueFull;
    }
};

/** The UDP data-plane server. */
class UdpServer
{
  public:
    explicit UdpServer(const ServerConfig &cfg);
    ~UdpServer();

    UdpServer(const UdpServer &) = delete;
    UdpServer &operator=(const UdpServer &) = delete;

    /**
     * Bind the sockets and launch the RX and worker threads.
     * @return false if sockets are unavailable (sandboxes), the bind
     *         fails or an RX thread's epoll set cannot be made; the
     *         server is then inert and safe to destroy.
     */
    bool start();

    /**
     * SIGINT-safe teardown: stop accepting, drain queued requests
     * within @p drainDeadline, then stop and join every
     * thread.  Idempotent.  No handler runs after this returns.
     *
     * @return true if everything drained before the deadline.
     */
    bool stop(std::chrono::nanoseconds drainDeadline =
                  std::chrono::seconds(2));

    bool running() const { return running_.load(); }

    /** Bound port (valid after a successful start()). */
    std::uint16_t port() const { return port_; }

    const ServerConfig &config() const { return cfg_; }

    /** Consistent-enough copy of every counter, summed over tenants. */
    ServerCounterSnapshot counterSnapshot() const;

    /**
     * The counters of one tenant's column (TenantTable ids), or of the
     * no-tenant column for telemetry::CounterShards::noTenant.  The
     * frame-pool fields and servedInline are server-wide only and stay
     * 0 here.
     */
    ServerCounterSnapshot counterSnapshot(unsigned tenant) const;

    /** The notification device (doorbell / wake counters). */
    const emu::EmuHyperPlane &device() const { return *hpDev_; }

    /**
     * Register every server counter plus the device counters under
     * @p prefix ("server").
     */
    void registerStats(stats::Registry &reg,
                       const std::string &prefix = "server");

    /** Total requests currently queued toward the workers. */
    std::uint64_t backlog() const;

    /** Nanoseconds since start() (the trace clock). */
    std::uint64_t nowNs() const;

    // ----- live telemetry plane ---------------------------------------

    /**
     * Aggregated per-stage latency histogram (nanoseconds), merged
     * across all shards and tenants.  Empty before start() or with
     * telemetry disabled.
     */
    stats::LogHistogram stageLatency(telemetry::ServerStage st) const;

    /** Sampled trace rings (null before start()). */
    const trace::FlightRecorder *flightRecorder() const
    {
        return flight_.get();
    }

    /**
     * The flight recorder as a Perfetto-loadable Chrome trace JSON
     * document (what a dump writes).
     */
    std::string flightTraceJson() const;

    /** Write flightTraceJson() to @p path. @return false on IO error. */
    bool dumpFlightTrace(const std::string &path) const;

    /**
     * Bound metrics-endpoint port, or -1 when the endpoint is not
     * running (telemetry.metricsPort < 0, or the bind failed).
     */
    int metricsPort() const;

    /**
     * Current Prometheus exposition page (endpoint's /metrics); valid
     * after a successful start(), like metricsPage().
     */
    std::string prometheusPage() const;

    /** Endpoint dispatch (also used by tests): "" means 404. */
    std::string metricsPage(const std::string &path,
                            std::string &contentType) const;

  private:
    /** Datagram offset inside an RX frame (see FramePool). */
    static constexpr std::uint32_t rxFrameOffset =
        FramePool::responseHeadroom;

    /**
     * A parsed request travelling the MPMC queues as a refcounted
     * frame handle — the received datagram stays where recvmmsg put it
     * (frame + rxFrameOffset) and is never copied.
     */
    struct Request
    {
        sockaddr_in peer{};
        wire::RequestHeader hdr;
        FrameHandle frame;
        std::uint64_t rxNs = 0;
        std::uint64_t admitNs = 0; ///< admission verdict time
        unsigned tenant = 0;
        /** Decided once at RX: the request takes every stage's flight
         *  stamp and histogram sample. */
        bool sampled = false;

        /** The request payload, in place inside the frame. */
        const std::uint8_t *payload() const
        {
            return frame.data() + rxFrameOffset +
                   wire::RequestHeader::wireSize;
        }
    };

    /** A response built in place at frame + 0, sent straight from it. */
    struct Response
    {
        sockaddr_in peer{};
        FrameHandle frame;
        std::uint32_t len = 0;
        std::uint64_t seq = 0;
        std::uint64_t rxNs = 0;   ///< request receive time
        std::uint64_t doneNs = 0; ///< service finish (sampled replies)
        unsigned tenant = 0;
        bool sampled = false; ///< the request's sampling bit
        bool reject = false;  ///< typed reject: no service, no samples
    };

    /**
     * What one serving thread (an RX shard or a pool worker) owns: its
     * telemetry shard and trace track, its steering table, the socket
     * its replies leave on, and reusable batch buffers.  Serving a
     * grant touches no other thread's lane.
     */
    struct Lane
    {
        unsigned shard = 0;
        std::uint32_t track = 0;
        UdpSocket *sock = nullptr;
        std::unique_ptr<workloads::PacketSteering> steerer;
        std::vector<Request> reqs;
        std::vector<Response> out; ///< replies waiting for sendReplies()
        std::vector<TxView> views;
    };

    struct RxShard;

    /** Bind the RX and worker sockets and the RX epoll sets. */
    bool openSockets();
    /** Frame pools, device, queues, serving lanes and app handlers. */
    void buildDataPlane();
    /** Wait for datagrams and run the four RX stages per batch. */
    void rxLoop(unsigned index);
    /**
     * Top up rx.spare from the shard's pool and recvmmsg into it, or
     * into the pool-dry scratch when the pool is empty.
     * @return datagrams received (0: the socket is drained).
     */
    std::size_t receiveBatch(RxShard &rx);
    /**
     * Precheck, parse, classify, steer and admit or shed the @p n
     * received datagrams; admitted requests are pushed, not rung.
     */
    void admitBatch(RxShard &rx, std::size_t n);
    /** One datagram of admitBatch(); takes the sampling decision. */
    void admitOne(RxShard &rx, std::size_t i, std::size_t backlogNow);
    /**
     * Ring each queue the batch touched once, with a deferred wake,
     * and take its admit->doorbell sample.  @return true if any rang.
     */
    bool ringTouched(RxShard &rx);
    /**
     * Serve one grant on the RX thread if @p rang, send its replies and
     * the batch's rejects, then wake a worker if work is left.
     */
    void serveInline(Lane &lane, bool rang);
    /**
     * Serve @p n granted items of @p qid and send lane.out, holding the
     * queue's serving lock from the pop to the send.
     */
    void serveGrant(Lane &lane, QueueId qid, std::uint64_t n);
    /** Run @p req's handler and build its reply in place. */
    Response makeResponse(Lane &lane, QueueId qid, Request &req);
    /**
     * Write a response header with @p status and @p payloadLen into
     * req.frame (a reply too big for a datagram fails closed as
     * statusBadPayload) and move the frame into the returned Response.
     */
    Response respond(Lane &lane, Request &req, wire::Status status,
                     std::uint32_t payloadLen);
    /**
     * Refuse @p req at RX steering, skipping the queues: count it as
     * @p why in its tenant's column, stamp AdmissionShed at its admitNs
     * if it is sampled, and build a payload-free typed reject into
     * lane.out.  The reject reuses req.frame when it holds one; a null
     * frame draws from the reject reserve, and if that too is dry the
     * packet is counted in PoolDrops and dropped.
     */
    void shed(Lane &lane, telemetry::Counter why, wire::Status status,
              QueueId qid, Request &req);
    /**
     * sendmmsg lane.out on the lane's socket and, in one pass over the
     * sent replies, record the sampled ones' service->tx and e2e
     * samples and Completion stamps; then release the frames.
     */
    void sendReplies(Lane &lane);
    /** The per-tenant counter and stage-quantile registry rows. */
    void registerTenantStats(stats::Registry &reg,
                             const std::string &prefix);

    Tick nowTicks() const;

    // Telemetry shard ids: one single-writer shard per RX shard and
    // worker, also their lane index.
    unsigned rxShard(unsigned i) const { return i; }
    unsigned workerShard(unsigned w) const { return cfg_.rxThreads + w; }
    unsigned numTelemetryShards() const
    {
        return cfg_.rxThreads + cfg_.workers;
    }

    ServerConfig cfg_;

    std::unique_ptr<emu::EmuHyperPlane> hpDev_;
    // Frame pools are declared before the queues and lanes on purpose:
    // members destroy in reverse order, so queues still holding frame
    // handles at destruction release them into live pools.
    std::vector<std::unique_ptr<FramePool>> rxPools_;
    std::unique_ptr<FramePool> rejectPool_;
    std::vector<std::unique_ptr<queueing::MpmcQueue<Request>>> reqQueues_;
    /** Per-queue serving locks (see serveGrant()). */
    std::unique_ptr<std::mutex[]> serving_;
    std::unique_ptr<emu::DataPlanePool> pool_;
    /** Stateful app handlers, indexed by app::AppKind; shard == qid. */
    std::vector<std::unique_ptr<app::StatefulHandler>> apps_;

    std::vector<UdpSocket> rxSockets_;
    /** One epoll set per RX thread; stop() wakes them. */
    std::vector<std::unique_ptr<EpollWaiter>> rxWaiters_;
    /** Reply sockets of the pool workers (RX replies on rxSockets_). */
    std::vector<UdpSocket> workerSockets_;
    /** One per serving thread, indexed like the telemetry shards. */
    std::vector<Lane> lanes_;
    std::vector<std::thread> rxThreads_;

    std::unique_ptr<TenantTable> tenants_;

    // ----- telemetry state --------------------------------------------
    std::unique_ptr<telemetry::CounterShards> counters_;
    std::unique_ptr<telemetry::StageLatencyShards> stageLat_;
    /// Trace rings; flight_->sampled(seq) also decides the per-request
    /// stage-histogram samples (TelemetryConfig::stageSampleEvery).
    std::unique_ptr<trace::FlightRecorder> flight_;
    std::unique_ptr<telemetry::MetricsServer> metrics_;
    /** Registry backing the endpoint's pages (built in start()). */
    std::unique_ptr<stats::Registry> selfReg_;

    std::atomic<bool> running_{false};

    std::uint16_t port_ = 0;
    std::uint32_t boundIp_ = 0;
    std::chrono::steady_clock::time_point epoch_;
};

} // namespace server
} // namespace hyperplane

#endif // HYPERPLANE_SERVER_SERVER_HH
