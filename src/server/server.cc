#include "server/server.hh"

#include <arpa/inet.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <utility>

#include "net/headers.hh"
#include "net/packet.hh"
#include "net/simd/dispatch.hh"
#include "queueing/task_queue.hh"
#include "server/flow.hh"
#include "sim/logging.hh"
#include "telemetry/prometheus.hh"
#include "trace/chrome_trace.hh"

namespace hyperplane {
namespace server {

namespace {

using namespace std::chrono;

/** Outer tunnel header template for the Encap opcode (ULA fd00::/8). */
net::Ipv6Header
outerTemplate()
{
    net::Ipv6Header outer;
    outer.hopLimit = 64;
    outer.src[0] = 0xfd;
    outer.src[15] = 0x01;
    outer.dst[0] = 0xfd;
    outer.dst[15] = 0x02;
    return outer;
}

using telemetry::Counter;
using telemetry::CounterShards;

/** Per-queue request capacity (arrivals beyond it are dropped). */
constexpr std::size_t kQueueCapacity = 8192;

/**
 * Shared reserve of small frames for typed rejects when an RX shard's
 * pool is dry, so exhaustion stays an answered condition instead of a
 * silent drop.
 */
constexpr std::uint32_t kRejectReserveFrames = 512;

/**
 * One row of the declared counter table: a counter's exported names,
 * which give its scope, and the snapshot field it fills.
 */
struct CounterRow
{
    Counter counter;
    /** Exported as server.<name>; null: not exported server-wide. */
    const char *name;
    /** Exported as server.tenant.<t>.<tenantName>; null: server-wide
     *  only. */
    const char *tenantName;
    std::uint64_t ServerCounterSnapshot::*field;
};

using S = ServerCounterSnapshot;

/** Every server counter, in Counter order. */
constexpr CounterRow kCounterTable[] = {
    {Counter::RxBatches, "rx_batches", nullptr, &S::rxBatches},
    {Counter::RxPackets, "rx_packets", nullptr, &S::rxPackets},
    {Counter::ParseErrors, "rx_parse_errors", nullptr, &S::parseErrors},
    {Counter::Admitted, nullptr, "admitted", &S::admitted},
    {Counter::Served, "requests_served", "served", &S::served},
    {Counter::TxPackets, "tx_packets", nullptr, &S::txPackets},
    {Counter::QueueDrops, "rx_queue_drops", nullptr, &S::queueDrops},
    {Counter::PoolDrops, "pool_drops", nullptr, &S::poolDrops},
    {Counter::ShedRateLimited, "shed_rate_limited", "rate_limited",
     &S::shedRateLimited},
    {Counter::ShedWatermark, "shed_watermark", "watermark_shed",
     &S::shedWatermark},
    {Counter::ShedQueueFull, "shed_queue_full", "queue_full_shed",
     &S::shedQueueFull},
    {Counter::BadStatus, "responses_bad_status", nullptr, &S::badStatus},
    {Counter::TxSendErrors, "tx_send_errors", nullptr, &S::txSendErrors},
    {Counter::PoolExhausted, "pool.exhausted", nullptr, &S::poolExhausted},
    {Counter::PayloadCopies, "payload_copies", nullptr, &S::payloadCopies},
};

constexpr bool
tableCoversEveryCounter()
{
    if (std::size(kCounterTable) != telemetry::kNumCounters)
        return false;
    for (unsigned i = 0; i < telemetry::kNumCounters; ++i) {
        if (static_cast<unsigned>(kCounterTable[i].counter) != i)
            return false;
    }
    return true;
}
static_assert(tableCoversEveryCounter(),
              "kCounterTable needs one row per Counter, in order");
static_assert(TenantTable::invalidTenant == CounterShards::noTenant,
              "a queue no tenant owns counts in the no-tenant column");

/**
 * Register <sp>.p50_ns, .p99_ns and .p999_ns: quantiles of the
 * histogram @p hist returns, read at scrape time.
 */
template <typename Hist>
void
addQuantiles(stats::Registry &reg, const std::string &sp, Hist hist)
{
    constexpr std::pair<const char *, double> quantiles[] = {
        {"p50_ns", 0.50}, {"p99_ns", 0.99}, {"p999_ns", 0.999}};
    for (const auto &[name, q] : quantiles) {
        reg.addScalar(sp + "." + name,
                      [hist, q = q] { return hist().quantile(q); });
    }
}

} // namespace

UdpServer::UdpServer(const ServerConfig &cfg)
    : cfg_(cfg), epoch_(steady_clock::now())
{
    hp_assert(cfg_.rxThreads > 0, "need at least one RX thread");
    hp_assert(cfg_.workers > 0, "need at least one worker");
    hp_assert(cfg_.numQueues > 0, "need at least one queue");
    hp_assert(cfg_.rxBatch > 0, "rxBatch must be positive");
}

UdpServer::~UdpServer()
{
    stop(seconds(1));
}

std::uint64_t
UdpServer::nowNs() const
{
    return static_cast<std::uint64_t>(
        duration_cast<nanoseconds>(steady_clock::now() - epoch_)
            .count());
}

Tick
UdpServer::nowTicks() const
{
    return nsToTicks(static_cast<double>(nowNs()));
}

bool
UdpServer::start()
{
    if (running_.load())
        return true;

    // Build the tenant table first: a malformed tenant list is a
    // configuration error and throws (std::invalid_argument, with the
    // same actionable messages as dp::SdpConfig::validate()) before any
    // socket or thread exists.
    tenants_ = std::make_unique<TenantTable>(
        cfg_.tenants, cfg_.numQueues, cfg_.shedLowWatermark,
        cfg_.shedHighWatermark);
    if (!openSockets()) {
        rxSockets_.clear();
        workerSockets_.clear();
        return false;
    }
    epoch_ = steady_clock::now();
    buildDataPlane();

    // Telemetry plane: the counter matrix always exists; the stage
    // histograms and flight recorder honour the enable switch.
    counters_ = std::make_unique<CounterShards>(numTelemetryShards(),
                                                tenants_->numTenants());
    const telemetry::TelemetryConfig &tcfg = cfg_.telemetry;
    if (tcfg.enabled) {
        stageLat_ = std::make_unique<telemetry::StageLatencyShards>(
            numTelemetryShards(), tenants_->numTenants());
    } else {
        stageLat_.reset();
    }
    // One sampling period for flight stamps and stage-histogram
    // samples; the recorder rounds it down to a power of two, so the
    // hot-path test is one AND.  Disabled telemetry samples nothing.
    flight_ = std::make_unique<trace::FlightRecorder>(
        numTelemetryShards(), tcfg.recorderCapacity,
        tcfg.enabled ? std::max<std::uint64_t>(1, tcfg.stageSampleEvery)
                     : 0);

    running_.store(true);

    pool_ = std::make_unique<emu::DataPlanePool>(
        *hpDev_, cfg_.workers,
        [this](QueueId qid, std::uint64_t n) {
            Lane &lane = lanes_[workerShard(static_cast<unsigned>(
                emu::DataPlanePool::workerIndex()))];
            serveGrant(lane, qid, n);
        },
        cfg_.maxBatch);
    pool_->start();

    for (unsigned i = 0; i < cfg_.rxThreads; ++i)
        rxThreads_.emplace_back([this, i] { rxLoop(i); });

    selfReg_ = std::make_unique<stats::Registry>();
    registerStats(*selfReg_);
    if (tcfg.metricsPort >= 0) {
        metrics_ = std::make_unique<telemetry::MetricsServer>();
        if (!metrics_->start(
                tcfg.metricsIp,
                static_cast<std::uint16_t>(tcfg.metricsPort),
                [this](const std::string &path, std::string &ct) {
                    return metricsPage(path, ct);
                })) {
            hp_warn("UdpServer: metrics endpoint unavailable, "
                    "continuing without it");
            metrics_.reset();
        }
    }
    return true;
}

bool
UdpServer::openSockets()
{
    // RX sockets: one SO_REUSEPORT shard per RX thread.  The first bind
    // picks the (possibly ephemeral) port; the rest join its group.
    const bool sharded = cfg_.rxThreads > 1;
    auto first = UdpSocket::bind(cfg_.bindIp, cfg_.port, sharded);
    if (!first)
        return false;
    port_ = first->localPort();
    boundIp_ = first->localIp();
    rxSockets_.push_back(std::move(*first));
    for (unsigned i = 1; i < cfg_.rxThreads; ++i) {
        auto s = UdpSocket::bind(cfg_.bindIp, port_, true);
        if (!s)
            return false;
        rxSockets_.push_back(std::move(*s));
    }
    // Worker reply sockets stay out of the REUSEPORT group (they must
    // not steal inbound datagrams); replies carry an ephemeral source.
    for (unsigned w = 0; w < cfg_.workers; ++w) {
        auto s = UdpSocket::open();
        if (!s)
            return false;
        workerSockets_.push_back(std::move(*s));
    }
    // One epoll set per RX shard.  Its eventfd lets stop() wake a
    // thread that blocks with no timeout, so there is no polling mode.
    rxWaiters_.clear();
    for (UdpSocket &sock : rxSockets_) {
        auto &w = rxWaiters_.emplace_back(std::make_unique<EpollWaiter>());
        if (!w->valid() || !w->add(sock.fd()))
            return false;
    }
    return true;
}

void
UdpServer::buildDataPlane()
{
    // Zero-copy frame pools: drain the old queues and lanes first on a
    // restart — they hold frame handles into the pools being replaced.
    reqQueues_.clear();
    lanes_.clear();
    rxPools_.clear();
    rejectPool_.reset();
    const std::uint32_t frameBytes =
        FramePool::responseHeadroom + wire::maxDatagramBytes;
    for (unsigned i = 0; i < cfg_.rxThreads; ++i) {
        rxPools_.push_back(std::make_unique<FramePool>(
            std::max<std::uint32_t>(cfg_.framesPerRxShard, cfg_.rxBatch),
            frameBytes));
    }
    // Rejects are payload-free 36-byte responses: small frames suffice.
    rejectPool_ = std::make_unique<FramePool>(kRejectReserveFrames, 64);

    hpDev_ =
        std::make_unique<emu::EmuHyperPlane>(cfg_.numQueues, cfg_.policy);
    serving_ = std::make_unique<std::mutex[]>(cfg_.numQueues);
    for (unsigned q = 0; q < cfg_.numQueues; ++q) {
        const auto qid = hpDev_->addQueue();
        hp_assert(qid && *qid == q, "queue registration out of order");
        reqQueues_.push_back(
            std::make_unique<queueing::MpmcQueue<Request>>(
                kQueueCapacity));
    }
    // Per-queue WRR weights from the tenant specs, so a weighted or
    // strict-priority policy differentiates the tenants' queue groups.
    for (unsigned t = 0; t < tenants_->numTenants(); ++t) {
        const dp::TenantSpec &spec = tenants_->spec(t);
        for (unsigned q = spec.queueFirst;
             q < spec.queueFirst + spec.queueCount; ++q) {
            hpDev_->setWeight(q, spec.weight);
        }
    }
    // One lane per serving thread, indexed like the telemetry shards:
    // RX shards first, then the pool workers.  Worker w's steerer is
    // seeded seed + w; the RX lanes take the seeds after the workers'.
    for (unsigned i = 0; i < cfg_.rxThreads + cfg_.workers; ++i) {
        Lane lane;
        lane.shard = i;
        const bool rx = i < cfg_.rxThreads;
        const unsigned w = i - cfg_.rxThreads;
        lane.track = rx ? trace::trackHardwareBase + i : w;
        lane.sock = rx ? &rxSockets_[i] : &workerSockets_[w];
        lane.steerer = std::make_unique<workloads::PacketSteering>(
            cfg_.seed + (rx ? cfg_.workers + i : w));
        lanes_.push_back(std::move(lane));
    }

    // Stateful app handlers (opcodes 3..5): one instance each, sharded
    // by queue id so a flow's state is owned by the queue its crc32c
    // hash steers it to.
    apps_.clear();
    app::AppConfig acfg = cfg_.app;
    acfg.numShards = cfg_.numQueues;
    for (unsigned k = 0; k < app::numAppKinds; ++k)
        apps_.push_back(
            app::makeHandler(static_cast<app::AppKind>(k), acfg));
}

bool
UdpServer::stop(std::chrono::nanoseconds drainDeadline)
{
    if (!running_.exchange(false))
        return true;
    const auto deadline = steady_clock::now() + drainDeadline;

    // 1. Stop accepting: wake and join the RX shards.
    for (auto &w : rxWaiters_)
        w->wake();
    for (auto &t : rxThreads_)
        t.join();
    rxThreads_.clear();
    rxWaiters_.clear();

    // 2. Drain accepted requests and the doorbell residual: every
    //    queued item was rung, so the workers serve it.
    const auto idle = [this] {
        return backlog() == 0 && hpDev_->totalPending() == 0;
    };
    while (!idle() && steady_clock::now() < deadline)
        std::this_thread::sleep_for(microseconds(200));
    const bool drained = idle();

    // 3. Stop the workers.  After this returns the pool threads are
    //    joined: no handler runs beyond this point, and every served
    //    reply has been sent by the thread that served it.
    pool_->stop();

    // The endpoint serves during the drain (an operator can scrape a
    // stopping server); it goes down with the last worker gone.
    if (metrics_) {
        metrics_->stop();
        metrics_.reset();
    }

    rxSockets_.clear();
    workerSockets_.clear();
    return drained;
}

ServerCounterSnapshot
UdpServer::counterSnapshot() const
{
    ServerCounterSnapshot s;
    if (counters_) {
        for (const CounterRow &row : kCounterTable)
            s.*row.field = counters_->total(row.counter);
        for (unsigned i = 0; i < cfg_.rxThreads; ++i)
            s.servedInline +=
                counters_->shardValue(rxShard(i), Counter::Served);
    }
    return s;
}

ServerCounterSnapshot
UdpServer::counterSnapshot(unsigned tenant) const
{
    ServerCounterSnapshot s;
    if (counters_) {
        for (const CounterRow &row : kCounterTable)
            s.*row.field = counters_->tenantTotal(tenant, row.counter);
    }
    return s;
}

std::uint64_t
UdpServer::backlog() const
{
    std::uint64_t total = 0;
    for (const auto &q : reqQueues_)
        total += q->size();
    return total;
}

/**
 * What one RX thread owns across batches: its socket, frame pool and
 * lane, the receive window and the per-batch bookkeeping of the four
 * RX stages.
 */
struct UdpServer::RxShard
{
    /** Pool-dry scratch datagrams: small, fixed, always there. */
    static constexpr unsigned maxScratch = 8;

    RxShard(UdpServer &srv, unsigned index)
        : sock(srv.rxSockets_[index]), pool(*srv.rxPools_[index]),
          lane(srv.lanes_[srv.rxShard(index)]),
          slots(std::max<std::size_t>(srv.cfg_.rxBatch, maxScratch)),
          pkts(slots.size()), lens(slots.size()),
          prefixOk(slots.size()), counts(srv.cfg_.numQueues, 0),
          admitLast(srv.cfg_.numQueues, 0),
          scratchSlots(std::min(maxScratch, srv.cfg_.rxBatch))
    {
        spare.reserve(srv.cfg_.rxBatch);
    }

    UdpSocket &sock;
    FramePool &pool;
    /** This thread's lane: it is the single writer of lane.shard. */
    Lane &lane;
    // Reusable acquired frames: recvmmsg scatters into spare[0..k),
    // consumed ones leave with their Request (or reject), unconsumed
    // and parse-failed ones stay for the next call.
    std::vector<FrameHandle> spare;
    std::vector<RxSlot> slots;
    std::vector<const std::uint8_t *> pkts;
    std::vector<std::uint32_t> lens;
    std::vector<std::uint8_t> prefixOk;
    /** Items pushed per queue this batch, and the queues touched. */
    std::vector<std::uint32_t> counts;
    std::vector<QueueId> touched;
    // Last admission timestamp per queue this batch, for the
    // admit->doorbell stage sample taken at ring time.  (For requests
    // skipped by stage decimation this is the batch rx timestamp —
    // admission itself is sub-microsecond, so the ring-wait sample
    // stays honest.)
    std::vector<std::uint64_t> admitLast;
    std::uint8_t scratchBufs[maxScratch][wire::maxDatagramBytes];
    unsigned scratchSlots;
    /** The batch landed in scratch: the pool was dry. */
    bool scratch = false;
    /** The batch's receive time. */
    std::uint64_t rxNs = 0;
};

void
UdpServer::rxLoop(unsigned index)
{
    RxShard rx(*this, index);
    EpollWaiter &waiter = *rxWaiters_[index];
    while (running_.load(std::memory_order_relaxed)) {
        waiter.wait(-1);
        while (const std::size_t n = receiveBatch(rx)) {
            admitBatch(rx, n);
            serveInline(rx.lane, ringTouched(rx));
        }
    }
}

std::size_t
UdpServer::receiveBatch(RxShard &rx)
{
    const unsigned shard = rx.lane.shard;
    // Top up the receive window with pool frames; recvmmsg scatters
    // straight into them at rxFrameOffset so the payload is already
    // where the response wants it.
    while (rx.spare.size() < cfg_.rxBatch) {
        FrameHandle h = rx.pool.tryAcquire();
        if (!h) {
            counters_->add(shard, CounterShards::noTenant,
                           Counter::PoolExhausted);
            break;
        }
        rx.spare.push_back(std::move(h));
    }
    // Pool dry: drain into stack scratch so exhaustion stays an
    // answered, typed condition (rejects from the reserve pool)
    // instead of an epoll livelock.
    rx.scratch = rx.spare.empty();
    const unsigned k = rx.scratch
        ? rx.scratchSlots
        : static_cast<unsigned>(rx.spare.size());
    for (unsigned i = 0; i < k; ++i) {
        rx.slots[i].data = rx.scratch ? rx.scratchBufs[i]
                                      : rx.spare[i].data() + rxFrameOffset;
        rx.slots[i].cap = wire::maxDatagramBytes;
    }
    const std::size_t n = rx.sock.recvBatch(rx.slots.data(), k);
    if (n == 0)
        return 0;
    counters_->add(shard, CounterShards::noTenant, Counter::RxBatches);
    counters_->add(shard, CounterShards::noTenant, Counter::RxPackets, n);
    rx.rxNs = nowNs();
    return n;
}

void
UdpServer::admitBatch(RxShard &rx, std::size_t n)
{
    // One backlog sample per batch is plenty for watermark shedding:
    // the thresholds are hundreds of requests wide.
    const std::size_t backlogNow =
        cfg_.shedHighWatermark > 0 ? backlog() : 0;

    // Batched magic/version/opcode validation through the dispatched
    // (SIMD on capable hosts) header-check kernel; the per-packet parse
    // skips what this verified.
    for (std::size_t i = 0; i < n; ++i) {
        rx.pkts[i] = rx.slots[i].data;
        rx.lens[i] = rx.slots[i].len;
    }
    wire::precheckRequests(rx.pkts.data(), rx.lens.data(), n,
                           rx.prefixOk.data());
    for (std::size_t i = 0; i < n; ++i)
        admitOne(rx, i, backlogNow);

    // Compact: moved-from handles leave holes in the receive window;
    // keep only the still-owned frames for reuse.
    if (!rx.scratch) {
        rx.spare.erase(std::remove_if(rx.spare.begin(), rx.spare.end(),
                                      [](const FrameHandle &h) {
                                          return !h;
                                      }),
                       rx.spare.end());
    }
}

void
UdpServer::admitOne(RxShard &rx, std::size_t i, std::size_t backlogNow)
{
    const unsigned shard = rx.lane.shard;
    const RxSlot &slot = rx.slots[i];
    const auto hdr = rx.prefixOk[i]
        ? wire::parseRequestPrechecked(slot.data, slot.len)
        : std::nullopt;
    if (!hdr) {
        counters_->add(shard, CounterShards::noTenant,
                       Counter::ParseErrors);
        return; // frame stays in spare for reuse
    }
    Request req;
    req.peer = slot.peer;
    req.hdr = *hdr;
    req.rxNs = req.admitNs = rx.rxNs;
    const unsigned tenant = req.tenant = tenants_->tenantOf(hdr->flowId);
    // The one sampling decision.  It is decimated on the sequence
    // number, so the extra clock reads, histogram samples and flight
    // stamps are paid for 1-in-stageSampleEvery requests at every
    // stage; the bit rides on the Request and its Response.  (A sampled
    // request implies telemetry on, so stageLat_ is live.)
    const bool sampled = req.sampled = flight_->sampled(hdr->seq);

    const FlowKey key{ntohl(slot.peer.sin_addr.s_addr), boundIp_,
                      ntohs(slot.peer.sin_port), port_, hdr->flowId};
    const QueueId qid = tenants_->steer(key, tenant);

    // Pool-dry arrivals cannot carry a frame to a worker: shed them
    // typed, like a full queue (the next-deepest overload signal).
    if (rx.scratch) {
        shed(rx.lane, Counter::ShedQueueFull, wire::statusShed, qid, req);
        return;
    }

    // Admission control at RX steering: token bucket first, then the
    // priority-ranked backlog watermark.  Rejects fail fast — a typed
    // response now, no worker time.
    wire::Status verdict = wire::statusOk;
    Counter why = Counter::ShedRateLimited;
    if (!tenants_->admit(tenant, rx.rxNs)) {
        verdict = wire::statusRateLimited;
    } else if (cfg_.shedHighWatermark > 0 &&
               tenants_->shouldShed(tenant, backlogNow)) {
        verdict = wire::statusShed;
        why = Counter::ShedWatermark;
    }
    if (sampled) {
        req.admitNs = nowNs();
        stageLat_->record(shard, telemetry::ServerStage::RxAdmit, tenant,
                          static_cast<double>(req.admitNs - rx.rxNs));
    }
    // The request, or its reject, leaves in the request's own frame.
    req.frame = std::move(rx.spare[i]);
    if (verdict != wire::statusOk) {
        shed(rx.lane, why, verdict, qid, req);
        return;
    }
    const std::uint64_t admitNs = rx.admitLast[qid] = req.admitNs;
    if (!reqQueues_[qid]->tryPush(std::move(req))) {
        // Queue full: the deepest overload signal.  Still a typed
        // reject, not a silent drop: tryPush leaves its argument
        // intact on failure, so the reject rides the request's frame.
        counters_->add(shard, tenant, Counter::QueueDrops);
        shed(rx.lane, Counter::ShedQueueFull, wire::statusShed, qid, req);
        return;
    }
    counters_->add(shard, tenant, Counter::Admitted);
    if (rx.counts[qid]++ == 0)
        rx.touched.push_back(qid);
    if (sampled) {
        flight_->stamp(shard, trace::Stage::DoorbellWrite,
                       trace::Phase::Instant, rx.lane.track,
                       nsToTicks(static_cast<double>(admitNs)), qid,
                       hdr->seq);
    }
}

bool
UdpServer::ringTouched(RxShard &rx)
{
    if (rx.touched.empty())
        return false;
    // One doorbell ring per (batch, queue), waking nobody yet: this
    // thread serves a grant itself next.
    telemetry::StageLatencyShards *lat = stageLat_.get();
    const std::uint64_t ringNs = lat ? nowNs() : 0;
    for (QueueId qid : rx.touched) {
        if (lat) {
            // One admit->doorbell sample per (batch, queue): the last
            // admitted request's wait for its ring.
            const unsigned owner = tenants_->tenantOfQueue(qid);
            lat->record(rx.lane.shard,
                        telemetry::ServerStage::AdmitDoorbell,
                        owner != TenantTable::invalidTenant ? owner : 0,
                        static_cast<double>(ringNs - rx.admitLast[qid]));
        }
        hpDev_->ring(qid, std::exchange(rx.counts[qid], 0),
                     emu::EmuHyperPlane::Wake::Deferred);
    }
    rx.touched.clear();
    return true;
}

void
UdpServer::serveInline(Lane &lane, bool rang)
{
    // Run to completion: serve one grant on this thread.  The ready set
    // picks the queue, so the service policy holds.  Its replies leave
    // with the batch's typed rejects in one sendmmsg; a worker wakes
    // only for what is left over.
    if (rang) {
        if (const auto qid = hpDev_->qwaitNonBlocking()) {
            const std::uint64_t n = hpDev_->take(*qid, cfg_.maxBatch);
            if (n > 0)
                serveGrant(lane, *qid, n);
        }
    }
    sendReplies(lane);
    if (rang)
        hpDev_->wakeOneIfGrantable();
}

void
UdpServer::shed(Lane &lane, Counter why, wire::Status status, QueueId qid,
                Request &req)
{
    counters_->add(lane.shard, req.tenant, why);
    if (req.sampled) {
        flight_->stamp(lane.shard, trace::Stage::AdmissionShed,
                       trace::Phase::Instant, lane.track,
                       nsToTicks(static_cast<double>(req.admitNs)), qid,
                       req.hdr.seq);
    }

    // A reject normally rides the request's own frame; a null handle
    // (pool-dry scratch path) draws one from the small reserve pool so
    // exhaustion still answers typed.
    if (!req.frame) {
        req.frame = rejectPool_->tryAcquire();
        if (!req.frame)
            counters_->add(lane.shard, req.tenant, Counter::PoolExhausted);
    }
    if (!req.frame) {
        // Reserve dry too: the only truly unanswerable case.
        counters_->add(lane.shard, req.tenant, Counter::PoolDrops);
        return;
    }
    Response out = respond(lane, req, status, 0);
    out.reject = true;
    lane.out.push_back(std::move(out));
}

void
UdpServer::serveGrant(Lane &lane, QueueId qid, std::uint64_t n)
{
    const unsigned shard = lane.shard;
    const std::uint32_t track = lane.track;
    telemetry::StageLatencyShards *lat = stageLat_.get();
    trace::FlightRecorder &flight = *flight_;

    // One owner per queue: the grant's pops, handlers and send happen
    // under the queue's serving lock, so the next holder pops only
    // after this one's replies are on the wire, and each flow's replies
    // leave in arrival order.  Only the server takes it, and never
    // across a QWAIT or a device call.
    std::lock_guard<std::mutex> owner(serving_[qid]);
    std::vector<Request> &reqs = lane.reqs;
    // Serve what is actually queued, up to the grant.
    reqQueues_[qid]->popBatch(reqs, n);
    if (reqs.empty())
        return;

    // One clock read per grant covers the queue-wait stage for the
    // whole batch; sampled requests get precise per-request Service
    // spans on top.
    const std::uint64_t grantNs = lat ? nowNs() : 0;
    if (flight.enabled()) {
        flight.stamp(shard, trace::Stage::QwaitReturn,
                     trace::Phase::Instant, track, nowTicks(), qid,
                     reqs.size());
    }

    for (Request &req : reqs) {
        // RX decided the sampling: unsampled requests pay no clock
        // read here.
        if (req.sampled) {
            lat->record(
                shard, telemetry::ServerStage::QwaitService,
                req.tenant,
                static_cast<double>(grantNs - req.admitNs));
            flight.stamp(shard, trace::Stage::Service,
                         trace::Phase::Begin, track, nowTicks(), qid,
                         req.hdr.seq);
        }
        Response resp = makeResponse(lane, qid, req);
        if (resp.sampled) {
            resp.doneNs = nowNs();
            flight.stamp(shard, trace::Stage::Service,
                         trace::Phase::End, track, nowTicks(), qid,
                         resp.seq);
        }
        lane.out.push_back(std::move(resp));
    }
    counters_->add(shard, tenants_->tenantOfQueue(qid), Counter::Served,
                   reqs.size());
    reqs.clear();
    sendReplies(lane);
}

UdpServer::Response
UdpServer::makeResponse(Lane &lane, QueueId qid, Request &req)
{
    // The response is built in the request's own frame.  RX received
    // the datagram at frame + responseHeadroom, which puts the request
    // payload exactly at frame + ResponseHeader::wireSize — already
    // where the response payload belongs.  Echo therefore writes a
    // header and moves nothing.
    std::uint8_t *framePayload =
        req.frame.data() + wire::ResponseHeader::wireSize;
    wire::Status status = wire::statusOk;
    std::uint32_t payloadLen = req.hdr.payloadLen;

    switch (req.hdr.opcode) {
      case wire::Opcode::Echo:
        break; // payload is already in place: zero copies
      case wire::Opcode::Encap: {
        net::PacketBuffer encapBuf(framePayload, req.hdr.payloadLen);
        static const net::Ipv6Header outer = outerTemplate();
        if (net::greEncapsulate(encapBuf, outer, req.hdr.flowId) &&
            encapBuf.size() <= wire::maxDatagramBytes -
                                   wire::ResponseHeader::wireSize) {
            // Encap grows the packet, so the transform result cannot
            // share bytes with its input: one counted copy-out.
            std::memcpy(framePayload, encapBuf.data(), encapBuf.size());
            counters_->add(lane.shard, req.tenant,
                           Counter::PayloadCopies);
            payloadLen = static_cast<std::uint32_t>(encapBuf.size());
        } else {
            status = wire::statusBadPayload;
            payloadLen = 0;
        }
        break;
      }
      case wire::Opcode::Steer: {
        queueing::WorkItem item;
        item.seq = req.hdr.seq;
        item.flowId = req.hdr.flowId;
        item.payloadBytes = req.hdr.payloadLen;
        const unsigned dest = lane.steerer->steer(item);
        // The 8-byte verdict overwrites the request payload in place
        // (the steer decision never reads the payload bytes).
        net::putBe32(framePayload, flowHash(FlowKey{0, 0, 0, 0,
                                                    req.hdr.flowId}));
        net::putBe32(framePayload + 4, dest);
        payloadLen = 8;
        break;
      }
      case wire::Opcode::HeavyHitter:
      case wire::Opcode::Conntrack:
      case wire::Opcode::SpinRtt: {
        // Stateful app dispatch: the shard is the queue id, so every
        // flow's state lives with the queue its crc32c hash steered it
        // to — no cross-core state access.  The output buffer ALIASES
        // the request payload (in-place response build); handlers
        // decode fully before writing, and never copy frame bytes, so
        // the zero-copy tripwire stays untouched.
        app::AppRequest areq;
        areq.flowId = req.hdr.flowId;
        areq.seq = req.hdr.seq;
        areq.nowNs = nowNs();
        areq.payload = req.payload();
        areq.payloadLen = req.hdr.payloadLen;
        const unsigned idx = static_cast<unsigned>(req.hdr.opcode) -
                             wire::firstAppOpcode;
        const app::AppResult ares = apps_[idx]->handle(
            static_cast<unsigned>(qid), areq, framePayload,
            req.frame.capacity() - wire::ResponseHeader::wireSize);
        if (ares.ok) {
            payloadLen = ares.payloadLen;
        } else {
            status = wire::statusBadPayload;
            payloadLen = 0;
        }
        break;
      }
    }
    return respond(lane, req, status, payloadLen);
}

UdpServer::Response
UdpServer::respond(Lane &lane, Request &req, wire::Status status,
                   std::uint32_t payloadLen)
{
    wire::ResponseHeader rh;
    rh.opcode = req.hdr.opcode;
    rh.seq = req.hdr.seq;
    rh.clientTimeNs = req.hdr.clientTimeNs;
    rh.flowId = req.hdr.flowId;
    rh.status = status;
    rh.payloadLen = payloadLen;
    std::size_t written = wire::buildResponseInPlace(
        req.frame.data(), req.frame.capacity(), rh);
    if (written == 0) {
        // Result would not fit a datagram: fail the request closed.
        rh.status = wire::statusBadPayload;
        rh.payloadLen = 0;
        written = wire::buildResponseInPlace(req.frame.data(),
                                             req.frame.capacity(), rh);
    }
    hp_assert(written != 0, "payload-free response must serialize");
    // Only served requests fail their payload (rejects carry none), so
    // this counts the served replies with a bad status.
    if (rh.status == wire::statusBadPayload)
        counters_->add(lane.shard, req.tenant, Counter::BadStatus);

    Response out;
    out.peer = req.peer;
    out.frame = std::move(req.frame);
    out.len = static_cast<std::uint32_t>(written);
    out.seq = rh.seq;
    out.rxNs = req.rxNs;
    out.tenant = req.tenant;
    out.sampled = req.sampled;
    return out;
}

void
UdpServer::sendReplies(Lane &lane)
{
    std::vector<Response> &out = lane.out;
    if (out.empty())
        return;
    const unsigned shard = lane.shard;
    telemetry::StageLatencyShards *lat = stageLat_.get();

    // sendmmsg gathers straight from the pool frames; the frames go
    // back to their pools when `out` is cleared below.
    lane.views.clear();
    for (const Response &r : out)
        lane.views.push_back(TxView{r.frame.data(), r.len, &r.peer});
    const std::size_t sent =
        lane.sock->sendBatch(lane.views.data(), lane.views.size());
    counters_->add(shard, CounterShards::noTenant, Counter::TxPackets,
                   sent);
    if (sent < out.size()) {
        counters_->add(shard, CounterShards::noTenant,
                       Counter::TxSendErrors, out.size() - sent);
    }
    if (lat) {
        // One clock read covers the whole sent batch.  Every sampled
        // reply takes a Completion stamp; a typed reject has no service
        // finish, so only served ones take the service->tx and e2e
        // samples.
        const std::uint64_t txNs = nowNs();
        const Tick t = nsToTicks(static_cast<double>(txNs));
        for (std::size_t i = 0; i < sent; ++i) {
            const Response &r = out[i];
            if (!r.sampled)
                continue;
            if (!r.reject) {
                lat->record(shard, telemetry::ServerStage::ServiceTx,
                            r.tenant,
                            static_cast<double>(txNs - r.doneNs));
                lat->record(shard, telemetry::ServerStage::EndToEnd,
                            r.tenant,
                            static_cast<double>(txNs - r.rxNs));
            }
            flight_->stamp(shard, trace::Stage::Completion,
                           trace::Phase::Instant, trace::trackDevice, t,
                           invalidQueueId, r.seq);
        }
    }
    out.clear();
}

void
UdpServer::registerStats(stats::Registry &reg, const std::string &prefix)
{
    // The declared counter table: one scalar per server-wide row, each
    // a sum over the whole matrix.  Per-tenant rows follow below.
    for (const CounterRow &row : kCounterTable) {
        if (!row.name)
            continue;
        reg.addScalar(prefix + "." + row.name, [this, c = row.counter] {
            return counters_ ? static_cast<double>(counters_->total(c))
                             : 0.0;
        });
    }
    reg.addScalar(prefix + ".requests_served_inline", [this] {
        return static_cast<double>(counterSnapshot().servedInline);
    });

    // Zero-copy pool health.  Sums across the per-RX-shard pools (plus
    // the reject reserve where it applies).
    reg.addScalar(prefix + ".pool.frames_total", [this] {
        double total = 0;
        for (const auto &p : rxPools_)
            total += static_cast<double>(p->numFrames());
        return total;
    });
    reg.addScalar(prefix + ".pool.frames_free", [this] {
        double total = 0;
        for (const auto &p : rxPools_)
            total += static_cast<double>(p->freeFrames());
        return total;
    });
    reg.addScalar(prefix + ".pool.reject_reserve_free", [this] {
        return rejectPool_
                   ? static_cast<double>(rejectPool_->freeFrames())
                   : 0.0;
    });

    // Stateful app counters: server.app.<name>.* (handlers register
    // their own single-writer cells).
    for (auto &app : apps_)
        app->registerStats(reg, prefix + ".app." + app->name());

    // SIMD dispatch provenance: which kernel tier each hot function
    // resolved to (0 = scalar, 1 = sse, 2 = avx2).
    reg.addScalar(prefix + ".simd.checksum_level", [] {
        return static_cast<double>(net::simd::kernels().checksumLevel);
    });
    reg.addScalar(prefix + ".simd.crc32c_level", [] {
        return static_cast<double>(net::simd::kernels().crc32cLevel);
    });
    reg.addScalar(prefix + ".simd.header_level", [] {
        return static_cast<double>(
            net::simd::kernels().headerCheckLevel);
    });
    reg.addScalar(prefix + ".simd.force_scalar", [] {
        return net::simd::kernels().forcedScalar ? 1.0 : 0.0;
    });

    // Telemetry-plane self-observation.
    reg.addScalar(prefix + ".telemetry.flight_recorded", [this] {
        return flight_ ? static_cast<double>(flight_->recorded())
                       : 0.0;
    });
    reg.addScalar(prefix + ".telemetry.flight_sample_every", [this] {
        return flight_ ? static_cast<double>(flight_->sampleEvery())
                       : 0.0;
    });
    reg.addScalar(prefix + ".telemetry.metrics_requests", [this] {
        return metrics_
            ? static_cast<double>(metrics_->requestsServed())
            : 0.0;
    });
    reg.addScalar(prefix + ".uptime_seconds", [this] {
        return static_cast<double>(nowNs()) / 1e9;
    });
    reg.addScalar(prefix + ".backlog", [this] {
        return static_cast<double>(backlog());
    });

    // Per-stage latency quantiles (ns), aggregated across shards and
    // tenants at read time.
    for (unsigned si = 0; si < telemetry::kNumServerStages; ++si) {
        const auto st = static_cast<telemetry::ServerStage>(si);
        const std::string sp =
            prefix + ".stage." + telemetry::toString(st);
        addQuantiles(reg, sp, [this, st] { return stageLatency(st); });
        reg.addScalar(sp + ".mean_ns",
                      [this, st] { return stageLatency(st).mean(); });
        reg.addScalar(sp + ".count", [this, st] {
            return stageLat_
                ? static_cast<double>(stageLat_->samples(st))
                : 0.0;
        });
    }
    if (tenants_)
        registerTenantStats(reg, prefix);
    if (hpDev_)
        hpDev_->registerStats(reg, prefix + ".dev");
}

void
UdpServer::registerTenantStats(stats::Registry &reg,
                               const std::string &prefix)
{
    for (unsigned t = 0; t < tenants_->numTenants(); ++t) {
        const std::string tp = prefix + ".tenant." + tenants_->name(t);
        for (const CounterRow &row : kCounterTable) {
            if (!row.tenantName)
                continue;
            reg.addScalar(tp + "." + row.tenantName,
                          [this, t, c = row.counter] {
                              return counters_
                                  ? static_cast<double>(
                                        counters_->tenantTotal(t, c))
                                  : 0.0;
                          });
        }
        // Per-tenant per-stage quantiles, merged across shards.
        for (unsigned si = 0; si < telemetry::kNumServerStages; ++si) {
            const auto st = static_cast<telemetry::ServerStage>(si);
            addQuantiles(
                reg, tp + ".stage." + telemetry::toString(st),
                [this, st, t] {
                    return stageLat_
                        ? stageLat_->aggregate(st, t)
                        : telemetry::StageLatencyShards::emptyHistogram();
                });
        }
    }
}

stats::LogHistogram
UdpServer::stageLatency(telemetry::ServerStage st) const
{
    if (stageLat_)
        return stageLat_->aggregate(st);
    return telemetry::StageLatencyShards::emptyHistogram();
}

std::string
UdpServer::flightTraceJson() const
{
    return trace::chromeTraceJson(
        flight_ ? flight_->snapshot() : std::vector<trace::TraceEvent>{});
}

bool
UdpServer::dumpFlightTrace(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << flightTraceJson();
    return os.good();
}

int
UdpServer::metricsPort() const
{
    return metrics_ && metrics_->running()
        ? static_cast<int>(metrics_->port())
        : -1;
}

std::string
UdpServer::prometheusPage() const
{
    return telemetry::prometheusText(
        *selfReg_, static_cast<double>(nowNs()) / 1e9);
}

std::string
UdpServer::metricsPage(const std::string &path,
                       std::string &contentType) const
{
    if (path == "/metrics") {
        contentType = "text/plain; version=0.0.4; charset=utf-8";
        return prometheusPage();
    }
    if (path == "/stats.json") {
        contentType = "application/json";
        return selfReg_->reportJson();
    }
    if (path == "/flight.json") {
        contentType = "application/json";
        return flightTraceJson();
    }
    if (path == "/healthz") {
        contentType = "text/plain; charset=utf-8";
        return running() ? "ok\n" : "stopping\n";
    }
    if (path == "/") {
        contentType = "text/plain; charset=utf-8";
        return "hyperplane udp server metrics endpoint\n"
               "  /metrics      Prometheus text exposition\n"
               "  /stats.json   full stats registry as JSON\n"
               "  /flight.json  flight-recorder Perfetto trace\n"
               "  /healthz      liveness probe\n";
    }
    return {};
}

} // namespace server
} // namespace hyperplane
