#include "server/loadgen.hh"

#include <arpa/inet.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "app/app.hh"
#include "net/headers.hh"
#include "server/udp_socket.hh"
#include "server/wire.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "stats/json.hh"

namespace hyperplane {
namespace server {

namespace {

using namespace std::chrono;

/** Cumulative distribution lookup: first index whose cum exceeds u. */
std::size_t
pickIndex(const std::vector<double> &cum, double u)
{
    const auto it = std::upper_bound(cum.begin(), cum.end(), u);
    const std::size_t i =
        static_cast<std::size_t>(it - cum.begin());
    return std::min(i, cum.size() - 1);
}

std::vector<double>
cumulative(const std::vector<double> &weights)
{
    double total = 0.0;
    for (double w : weights)
        total += w;
    std::vector<double> cum;
    cum.reserve(weights.size());
    double acc = 0.0;
    for (double w : weights) {
        acc += total > 0.0 ? w / total : 0.0;
        cum.push_back(acc);
    }
    if (!cum.empty())
        cum.back() = 1.0;
    return cum;
}

/** Build the per-opcode payload template (Encap needs a real IPv4
 *  packet so the server-side encapsulation parses). */
std::vector<std::uint8_t>
payloadTemplate(wire::Opcode op, std::uint32_t bytes, Rng &rng)
{
    std::uint32_t len = std::min<std::uint32_t>(
        bytes, static_cast<std::uint32_t>(wire::maxDatagramBytes -
                                          wire::RequestHeader::wireSize -
                                          64));
    if (op == wire::Opcode::Encap)
        len = std::max<std::uint32_t>(len, net::Ipv4Header::wireSize);
    std::vector<std::uint8_t> payload(len);
    for (auto &b : payload)
        b = static_cast<std::uint8_t>(rng.next());
    if (op == wire::Opcode::Encap) {
        net::Ipv4Header ip;
        ip.totalLength = static_cast<std::uint16_t>(len);
        ip.protocol = net::protoUdp;
        ip.src = 0x0a000001;
        ip.dst = 0x0a000002;
        ip.write(payload.data());
    }
    return payload;
}

} // namespace

std::string
LoadGenReport::json() const
{
    using stats::jsonNumber;
    std::string out = "{";
    const auto field = [&out](const char *name, double v, bool first =
                                                             false) {
        if (!first)
            out += ", ";
        out += stats::jsonString(name) + ": " + jsonNumber(v);
    };
    field("offered_per_sec", offeredPerSec, true);
    field("duration_sec", durationSec);
    field("sent", static_cast<double>(sent));
    field("received", static_cast<double>(received));
    field("shed", static_cast<double>(shed));
    field("answered", static_cast<double>(answered));
    field("lost", static_cast<double>(lost));
    field("bad_status", static_cast<double>(badStatus));
    field("parse_errors", static_cast<double>(parseErrors));
    field("send_failures", static_cast<double>(sendFailures));
    field("completion_ratio", completionRatio);
    field("shed_ratio", shedRatio);
    field("answered_ratio", answeredRatio);
    field("achieved_per_sec", achievedPerSec);
    field("p50_us", p50Us);
    field("p90_us", p90Us);
    field("p99_us", p99Us);
    field("p999_us", p999Us);
    field("mean_us", meanUs);
    field("max_us", maxUs);
    field("latency_samples", static_cast<double>(latencySamples));
    out += ", " + stats::jsonString("tenants") + ": [";
    for (std::size_t i = 0; i < tenants.size(); ++i) {
        const TenantSection &t = tenants[i];
        if (i)
            out += ", ";
        out += "{";
        out += stats::jsonString("tenant") + ": " +
               jsonNumber(static_cast<double>(t.tenant));
        out += ", " + stats::jsonString("answered") + ": " +
               jsonNumber(static_cast<double>(t.answered));
        out += ", " + stats::jsonString("shed") + ": " +
               jsonNumber(static_cast<double>(t.shed));
        out += ", " + stats::jsonString("latency_samples") + ": " +
               jsonNumber(static_cast<double>(t.latencySamples));
        out += ", " + stats::jsonString("p50_us") + ": " +
               jsonNumber(t.p50Us);
        out += ", " + stats::jsonString("p99_us") + ": " +
               jsonNumber(t.p99Us);
        out += ", " + stats::jsonString("p999_us") + ": " +
               jsonNumber(t.p999Us);
        out += "}";
    }
    out += "]}";
    return out;
}

UdpLoadGen::UdpLoadGen(const LoadGenConfig &cfg) : cfg_(cfg)
{
    hp_assert(cfg_.ratePerSec > 0.0, "rate must be positive");
    hp_assert(cfg_.durationSec > 0.0, "duration must be positive");
    hp_assert(cfg_.numFlows > 0, "need at least one flow");
    hp_assert(cfg_.numTenants > 0, "need at least one tenant");
    hp_assert(cfg_.tenantId < cfg_.numTenants,
              "tenantId out of range");
}

std::optional<LoadGenReport>
UdpLoadGen::run()
{
    auto sockOpt = UdpSocket::open();
    if (!sockOpt)
        return std::nullopt;
    UdpSocket sock = std::move(*sockOpt);
    EpollWaiter waiter;
    if (!waiter.valid() || !waiter.add(sock.fd()))
        return std::nullopt;
    const auto ip = parseIpv4(cfg_.serverIp);
    if (!ip)
        return std::nullopt;
    sockaddr_in server{};
    server.sin_family = AF_INET;
    server.sin_addr.s_addr = htonl(*ip);
    server.sin_port = htons(cfg_.serverPort);

    Rng rng(cfg_.seed);
    const std::vector<double> flowCum =
        cumulative(traffic::shapeWeights(cfg_.shape, cfg_.numFlows, rng));
    const std::vector<double> opCum = cumulative(std::vector<double>(
        cfg_.opcodeWeights.begin(), cfg_.opcodeWeights.end()));
    std::vector<std::vector<std::uint8_t>> payloads;
    for (std::uint8_t op = 0; op < wire::numOpcodes; ++op)
        payloads.push_back(payloadTemplate(
            static_cast<wire::Opcode>(op), cfg_.payloadBytes, rng));

    // Flow-coherent opcode assignment: each flow draws its opcode once
    // and keeps it for the run, so stateful handlers see single-app
    // streams with consistent per-flow sequences.
    std::vector<std::uint8_t> flowOpcode(cfg_.numFlows);
    for (auto &op : flowOpcode)
        op = static_cast<std::uint8_t>(pickIndex(opCum, rng.uniform()));
    // Per-flow packet counters (sender thread only) and spin-bit state
    // (receiver writes the reflected bit, sender reads it — the
    // client-side half of the spin-bit RTT protocol).
    std::vector<std::uint64_t> flowSeq(cfg_.numFlows, 0);
    auto spinState =
        std::make_unique<std::atomic<std::uint8_t>[]>(cfg_.numFlows);
    for (unsigned f = 0; f < cfg_.numFlows; ++f)
        spinState[f].store(1, std::memory_order_relaxed);

    LoadGenReport report;
    report.offeredPerSec = cfg_.ratePerSec;
    report.durationSec = cfg_.durationSec;
    report.tenants.resize(cfg_.numTenants);
    for (unsigned t = 0; t < cfg_.numTenants; ++t)
        report.tenants[t].tenant = t;

    std::atomic<std::uint64_t> sent{0};
    std::atomic<std::uint64_t> received{0};
    std::atomic<std::uint64_t> shed{0};
    std::atomic<std::uint64_t> badStatus{0};
    std::atomic<std::uint64_t> parseErrors{0};
    std::atomic<std::int64_t> outstanding{0};
    std::atomic<bool> rxRun{true};

    const auto epoch = steady_clock::now();
    const auto nowNs = [&epoch] {
        return static_cast<std::uint64_t>(
            duration_cast<nanoseconds>(steady_clock::now() - epoch)
                .count());
    };
    const std::uint64_t durationNs =
        static_cast<std::uint64_t>(cfg_.durationSec * 1e9);
    const std::uint64_t warmupEndNs = static_cast<std::uint64_t>(
        cfg_.warmupFraction * cfg_.durationSec * 1e9);

    // Receiver: drain responses, record post-warmup e2e latency.  The
    // histogram is only ever touched here, so no lock is needed.
    std::thread receiver([&] {
        std::vector<Datagram> batch;
        while (rxRun.load(std::memory_order_relaxed)) {
            waiter.wait(-1);
            for (;;) {
                batch.clear();
                if (sock.recvBatch(batch, cfg_.rxBatch) == 0)
                    break;
                const std::uint64_t now = nowNs();
                for (const Datagram &d : batch) {
                    const auto hdr = wire::parseResponse(
                        d.bytes.data(), d.bytes.size());
                    if (!hdr) {
                        parseErrors.fetch_add(
                            1, std::memory_order_relaxed);
                        continue;
                    }
                    received.fetch_add(1, std::memory_order_relaxed);
                    outstanding.fetch_sub(1,
                                          std::memory_order_relaxed);
                    // Same tenant classifier as the server's RX
                    // admission.  The per-tenant sections are only
                    // touched on this (single receiver) thread.
                    auto &ten =
                        report.tenants[hdr->flowId % cfg_.numTenants];
                    ten.answered++;
                    // A typed reject is the server *answering* — it is
                    // neither lost nor an error, and its (fast) reject
                    // turnaround must not dilute the service latency
                    // distribution.
                    const bool wasShed =
                        wire::isShedStatus(hdr->status);
                    if (wasShed) {
                        shed.fetch_add(1, std::memory_order_relaxed);
                        ten.shed++;
                        continue;
                    }
                    if (hdr->status != wire::statusOk)
                        badStatus.fetch_add(
                            1, std::memory_order_relaxed);
                    // Spin-bit client half: on seeing our bit
                    // reflected, flip the flow's outgoing bit — one
                    // client flip per round trip, so the server's edge
                    // gaps measure real RTTs.
                    if (hdr->opcode == wire::Opcode::SpinRtt &&
                        hdr->status == wire::statusOk &&
                        hdr->flowId % cfg_.numTenants == cfg_.tenantId) {
                        const std::uint32_t f =
                            (hdr->flowId - cfg_.tenantId) /
                            cfg_.numTenants;
                        const auto resp = app::decodeSpinResponse(
                            d.bytes.data() +
                                wire::ResponseHeader::wireSize,
                            hdr->payloadLen);
                        if (f < cfg_.numFlows && resp) {
                            spinState[f].store(
                                resp->spin ^ 1,
                                std::memory_order_relaxed);
                        }
                    }
                    if (hdr->clientTimeNs >= warmupEndNs &&
                        now > hdr->clientTimeNs) {
                        const double latNs = static_cast<double>(
                            now - hdr->clientTimeNs);
                        report.latencyNs.record(latNs);
                        ten.latencyNs.record(latNs);
                    }
                }
            }
        }
    });

    // Sender: open loop paces Poisson departures that never wait for
    // responses; closed loop sends whenever the window has room.
    const double meanGapNs = 1e9 / cfg_.ratePerSec;
    std::uint64_t seq = 0;
    std::uint64_t nextSendNs = 0;
    std::vector<Datagram> out;
    std::uint8_t buf[wire::maxDatagramBytes];

    std::uint8_t appPayload[64];
    const auto buildOne = [&] {
        wire::RequestHeader hdr;
        const std::uint32_t f = static_cast<std::uint32_t>(
            pickIndex(flowCum, rng.uniform()));
        // The flow's opcode is fixed for the run (flow coherence).
        hdr.opcode = static_cast<wire::Opcode>(flowOpcode[f]);
        hdr.seq = seq++;
        hdr.clientTimeNs = nowNs();
        // Stride the flow label so the server's tenant classifier
        // (flowId % numTenants) maps every request to cfg_.tenantId.
        hdr.flowId = cfg_.tenantId + cfg_.numTenants * f;
        const std::uint8_t *payloadData = nullptr;
        if (wire::isAppOpcode(hdr.opcode)) {
            // Stateful apps get a synthesized, flow-coherent payload:
            // conntrack emits open -> data... -> close cycles with
            // per-connection seqnos; spin-rtt stamps the flow's
            // current spin bit.
            const auto kind = static_cast<app::AppKind>(
                static_cast<std::uint8_t>(hdr.opcode) -
                wire::firstAppOpcode);
            const std::size_t n = app::synthesizeRequest(
                kind, hdr.flowId, flowSeq[f],
                spinState[f].load(std::memory_order_relaxed),
                appPayload, sizeof(appPayload));
            ++flowSeq[f];
            hdr.payloadLen = static_cast<std::uint32_t>(n);
            payloadData = appPayload;
        } else {
            const auto &payload =
                payloads[static_cast<std::size_t>(hdr.opcode)];
            hdr.payloadLen = static_cast<std::uint32_t>(payload.size());
            payloadData = payload.data();
        }
        const std::size_t n = wire::buildRequest(
            buf, sizeof(buf), hdr, payloadData);
        Datagram d;
        d.peer = server;
        d.bytes.assign(buf, buf + n);
        out.push_back(std::move(d));
    };

    while (nowNs() < durationNs) {
        out.clear();
        if (cfg_.openLoop) {
            const std::uint64_t now = nowNs();
            while (nextSendNs <= now && out.size() < 64)
                {
                    buildOne();
                    nextSendNs += static_cast<std::uint64_t>(
                        rng.exponential(meanGapNs));
                }
            if (out.empty()) {
                const std::uint64_t gap = nextSendNs - now;
                if (gap > 200000)
                    std::this_thread::sleep_for(
                        nanoseconds(gap - 100000));
                continue;
            }
        } else {
            const std::int64_t room =
                static_cast<std::int64_t>(cfg_.window) -
                outstanding.load(std::memory_order_relaxed);
            if (room <= 0) {
                std::this_thread::yield();
                continue;
            }
            const auto n = std::min<std::int64_t>(room, 64);
            for (std::int64_t i = 0; i < n; ++i)
                buildOne();
        }
        const std::size_t ok = sock.sendBatch(out.data(), out.size());
        sent.fetch_add(ok, std::memory_order_relaxed);
        outstanding.fetch_add(static_cast<std::int64_t>(ok),
                              std::memory_order_relaxed);
        report.sendFailures += out.size() - ok;
    }
    const double sendElapsedSec = static_cast<double>(nowNs()) / 1e9;

    // Linger for stragglers, longer if responses are still arriving.
    const auto lingerEnd =
        steady_clock::now() +
        nanoseconds(static_cast<std::uint64_t>(cfg_.lingerSec * 1e9));
    while (steady_clock::now() < lingerEnd &&
           received.load(std::memory_order_relaxed) <
               sent.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(milliseconds(1));
    }
    rxRun.store(false);
    waiter.wake();
    receiver.join();

    report.sent = sent.load();
    report.received = received.load();
    report.shed = shed.load();
    report.answered = report.received;
    report.lost = report.sent > report.received
                      ? report.sent - report.received
                      : 0;
    report.badStatus = badStatus.load();
    report.parseErrors = parseErrors.load();
    report.completionRatio =
        report.sent ? static_cast<double>(report.received) /
                          static_cast<double>(report.sent)
                    : 0.0;
    report.shedRatio =
        report.sent ? static_cast<double>(report.shed) /
                          static_cast<double>(report.sent)
                    : 0.0;
    report.answeredRatio = report.completionRatio;
    report.achievedPerSec =
        sendElapsedSec > 0.0
            ? static_cast<double>(report.received) / sendElapsedSec
            : 0.0;
    report.latencySamples = report.latencyNs.count();
    if (report.latencySamples > 0) {
        report.p50Us = report.latencyNs.quantile(0.50) / 1e3;
        report.p90Us = report.latencyNs.quantile(0.90) / 1e3;
        report.p99Us = report.latencyNs.quantile(0.99) / 1e3;
        report.p999Us = report.latencyNs.quantile(0.999) / 1e3;
        report.meanUs = report.latencyNs.mean() / 1e3;
        report.maxUs = report.latencyNs.max() / 1e3;
    }
    for (auto &t : report.tenants) {
        t.latencySamples = t.latencyNs.count();
        if (t.latencySamples == 0)
            continue;
        t.p50Us = t.latencyNs.quantile(0.50) / 1e3;
        t.p99Us = t.latencyNs.quantile(0.99) / 1e3;
        t.p999Us = t.latencyNs.quantile(0.999) / 1e3;
    }
    return report;
}

} // namespace server
} // namespace hyperplane
