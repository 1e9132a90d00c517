#include "gen.hh"

#include <arpa/inet.h>
#include <poll.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "app/app.hh"
#include "measure.hh"
#include "net/headers.hh"
#include "server/udp_socket.hh"

namespace perfbench {

namespace hp = hyperplane;
namespace wire = hyperplane::server::wire;

namespace {

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

/** UdpLoadGen's payload template: random bytes, a valid IPv4 header
 *  for Encap so the server-side encapsulation parses. */
std::vector<std::uint8_t>
payloadTemplate(wire::Opcode op, std::uint32_t bytes, hp::Rng &rng)
{
    std::uint32_t len = std::min<std::uint32_t>(
        bytes, static_cast<std::uint32_t>(wire::maxDatagramBytes -
                                          wire::RequestHeader::wireSize -
                                          64));
    if (op == wire::Opcode::Encap)
        len = std::max<std::uint32_t>(len, hp::net::Ipv4Header::wireSize);
    std::vector<std::uint8_t> payload(len);
    for (auto &b : payload)
        b = static_cast<std::uint8_t>(rng.next());
    if (op == wire::Opcode::Encap) {
        hp::net::Ipv4Header ip;
        ip.totalLength = static_cast<std::uint16_t>(len);
        ip.protocol = hp::net::protoUdp;
        ip.src = 0x0a000001;
        ip.dst = 0x0a000002;
        ip.write(payload.data());
    }
    return payload;
}

std::uint64_t
monoNs()
{
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
           static_cast<std::uint64_t>(ts.tv_nsec);
}

} // namespace

// ----- configuration ----------------------------------------------------

std::vector<std::string>
GenConfig::toArgs() const
{
    std::vector<std::string> a = {std::to_string(port), num(seconds),
                                  num(warmupSec),        num(windowSec),
                                  std::to_string(seed),
                                  std::to_string(tenants.size())};
    for (const auto &t : tenants) {
        a.push_back(num(t.rate));
        a.push_back(std::to_string(t.numFlows));
        a.push_back(std::to_string(static_cast<unsigned>(t.shape)));
        for (double w : t.opcodeWeights)
            a.push_back(num(w));
    }
    return a;
}

bool
GenConfig::fromArgs(const std::vector<std::string> &a, GenConfig &c)
{
    try {
        return parseArgs(a, c);
    } catch (const std::exception &) { // std::sto* on a malformed number
        return false;
    }
}

bool
GenConfig::parseArgs(const std::vector<std::string> &a, GenConfig &c)
{
    constexpr std::size_t head = 6;
    constexpr std::size_t perTenant = 3 + wire::numOpcodes;
    if (a.size() < head)
        return false;
    c.port = static_cast<std::uint16_t>(std::stoul(a[0]));
    c.seconds = std::stod(a[1]);
    c.warmupSec = std::stod(a[2]);
    c.windowSec = std::stod(a[3]);
    c.seed = std::stoull(a[4]);
    const std::size_t n = std::stoul(a[5]);
    if (n == 0 || a.size() != head + n * perTenant)
        return false;
    c.tenants.assign(n, TenantLoad{});
    for (std::size_t t = 0; t < n; ++t) {
        const std::size_t b = head + t * perTenant;
        c.tenants[t].rate = std::stod(a[b]);
        c.tenants[t].numFlows = static_cast<unsigned>(std::stoul(a[b + 1]));
        c.tenants[t].shape =
            static_cast<hp::traffic::Shape>(std::stoul(a[b + 2]));
        for (std::size_t o = 0; o < wire::numOpcodes; ++o)
            c.tenants[t].opcodeWeights[o] = std::stod(a[b + 3 + o]);
    }
    return c.seconds > 0.0 && c.windowSec > 0.0;
}

// ----- schedule -----------------------------------------------------------

TenantTraffic::TenantTraffic(const TenantLoad &load, std::uint64_t seed)
    : rng_(seed)
{
    flowCum_ = cumulative(
        hp::traffic::shapeWeights(load.shape, load.numFlows, rng_));
    const std::vector<double> opCum = cumulative(std::vector<double>(
        load.opcodeWeights.begin(), load.opcodeWeights.end()));
    for (std::uint8_t op = 0; op < wire::numOpcodes; ++op)
        payloads_.push_back(payloadTemplate(static_cast<wire::Opcode>(op),
                                            payloadBytes, rng_));
    flowOpcode_.resize(load.numFlows);
    for (auto &op : flowOpcode_)
        op = static_cast<std::uint8_t>(pick(opCum, rng_.uniform()));
}

std::uint32_t
TenantTraffic::pick(const std::vector<double> &cum, double u)
{
    const auto it = std::upper_bound(cum.begin(), cum.end(), u);
    const auto i = static_cast<std::size_t>(it - cum.begin());
    return static_cast<std::uint32_t>(std::min(i, cum.size() - 1));
}

Schedule::Schedule(std::uint64_t seed, const std::vector<TenantLoad> &tenants)
    : rng_(seed)
{
    double total = 0.0;
    std::vector<double> rates;
    for (std::size_t t = 0; t < tenants.size(); ++t) {
        total += tenants[t].rate;
        rates.push_back(tenants[t].rate);
        traffic_.emplace_back(tenants[t], seed + t);
    }
    meanGapNs_ = total > 0.0 ? 1e9 / total : 1e18;
    tenantCum_ = cumulative(rates);
}

Departure
Schedule::next()
{
    clockNs_ += rng_.exponential(meanGapNs_);
    Departure d;
    d.dueNs = static_cast<std::uint64_t>(clockNs_);
    if (traffic_.size() > 1) {
        const double u = rng_.uniform();
        while (d.tenant + 1 < traffic_.size() && tenantCum_[d.tenant] <= u)
            ++d.tenant;
    }
    d.flow = traffic_[d.tenant].pickFlow();
    return d;
}

// ----- result transport ---------------------------------------------------

std::vector<std::string>
GenResult::serialize() const
{
    std::vector<std::string> out;
    const auto put = [&out](const char *k, double v) {
        out.push_back(std::string(k) + " " + num(v));
    };
    put("attempted", static_cast<double>(attempted));
    put("send_fail", static_cast<double>(sendFail));
    put("ok_answered", static_cast<double>(okAnswered));
    put("bad_status", static_cast<double>(badStatus));
    put("shed", static_cast<double>(shed));
    put("parse_errors", static_cast<double>(parseErrors));
    put("unmatched", static_cast<double>(unmatched));
    put("duplicates", static_cast<double>(duplicates));
    put("payload_mismatch", static_cast<double>(payloadMismatch));
    put("flow_reorders", static_cast<double>(flowReorders));
    put("latency_samples", static_cast<double>(latencySamples));
    put("p50_us", p50Us);
    put("p99_us", p99Us);
    put("late_p50_us", lateP50Us);
    put("late_p99_us", lateP99Us);
    put("cpu_s", cpuSec);
    for (double v : windowP50Us)
        put("win_p50_us", v);
    for (double v : windowP99Us)
        put("win_p99_us", v);
    return out;
}

GenResult
GenResult::parse(const std::vector<std::string> &lines)
{
    GenResult r;
    for (const auto &l : lines) {
        std::istringstream ss(l);
        std::string k;
        double v = 0.0;
        if (!(ss >> k >> v))
            continue;
        const auto u = static_cast<std::uint64_t>(v);
        if (k == "attempted") r.attempted = u;
        else if (k == "send_fail") r.sendFail = u;
        else if (k == "ok_answered") r.okAnswered = u;
        else if (k == "bad_status") r.badStatus = u;
        else if (k == "shed") r.shed = u;
        else if (k == "parse_errors") r.parseErrors = u;
        else if (k == "unmatched") r.unmatched = u;
        else if (k == "duplicates") r.duplicates = u;
        else if (k == "payload_mismatch") r.payloadMismatch = u;
        else if (k == "flow_reorders") r.flowReorders = u;
        else if (k == "latency_samples") r.latencySamples = u;
        else if (k == "p50_us") r.p50Us = v;
        else if (k == "p99_us") r.p99Us = v;
        else if (k == "late_p50_us") r.lateP50Us = v;
        else if (k == "late_p99_us") r.lateP99Us = v;
        else if (k == "cpu_s") r.cpuSec = v;
        else if (k == "win_p50_us") r.windowP50Us.push_back(v);
        else if (k == "win_p99_us") r.windowP99Us.push_back(v);
    }
    return r;
}

// ----- the run --------------------------------------------------------------

namespace {

/** Per-request record: what a matching response must echo. */
struct Sent
{
    std::uint64_t dueNs = 0;
    std::uint32_t flowId = 0;
    std::uint8_t opcode = 0;
    std::uint8_t state = 0; ///< 0 unsent, 1 in flight, 2 answered
};

/** Most requests one sendmmsg carries (the server's RX batch). */
constexpr std::size_t burst = 32;
/** Spin (yielding), not sleep, this close to a due time. */
constexpr std::uint64_t spinNs = 100000;
/** Wait this long for stragglers after the last send. */
constexpr std::uint64_t lingerNs = 500000000;

class Runner
{
  public:
    Runner(const GenConfig &cfg, hp::server::UdpSocket &sock,
           const sockaddr_in &server)
        : cfg_(cfg), sock_(sock), server_(server),
          sched_(cfg.seed, cfg.tenants)
    {
        const unsigned nt = sched_.numTenants();
        unsigned maxFlows = 0;
        for (const auto &t : cfg.tenants)
            maxFlows = std::max(maxFlows, t.numFlows);
        const std::size_t labels = std::size_t{nt} * maxFlows;
        lastSeq_.assign(labels, -1);
        spin_.assign(labels, 1);
        flowSeq_.assign(labels, 0);
        endNs_ = static_cast<std::uint64_t>(cfg.seconds * 1e9);
        warmupNs_ = static_cast<std::uint64_t>(cfg.warmupSec * 1e9);
        windowNs_ = static_cast<std::uint64_t>(cfg.windowSec * 1e9);
        const double span = cfg.seconds - cfg.warmupSec;
        numWindows_ = span > 0.0
                          ? static_cast<std::size_t>(span / cfg.windowSec +
                                                     1e-9)
                          : 0;
        windows_.resize(numWindows_);
    }

    GenResult run();

  private:
    void sendDue(std::uint64_t now);
    void drain();
    void onResponse(const std::uint8_t *data, std::size_t len,
                    std::uint64_t now);

    const GenConfig &cfg_;
    hp::server::UdpSocket &sock_;
    sockaddr_in server_;
    Schedule sched_;
    Departure next_;
    bool exhausted_ = false;
    std::uint64_t epochNs_ = 0;
    std::uint64_t endNs_ = 0, warmupNs_ = 0, windowNs_ = 0;
    std::size_t numWindows_ = 0;

    std::vector<Sent> sent_;
    std::vector<std::int64_t> lastSeq_;
    std::vector<std::uint8_t> spin_;
    std::vector<std::uint64_t> flowSeq_;
    std::vector<std::vector<double>> windows_;
    std::vector<double> all_;
    std::vector<double> late_;
    std::vector<hp::server::Datagram> out_;
    std::vector<hp::server::Datagram> in_;
    std::uint64_t inFlight_ = 0;
    GenResult r_;
};

void
Runner::sendDue(std::uint64_t now)
{
    out_.clear();
    std::vector<std::uint64_t> dues;
    std::uint8_t buf[wire::maxDatagramBytes];
    std::uint8_t appPayload[64];
    const unsigned nt = sched_.numTenants();
    while (!exhausted_ && next_.dueNs <= now && out_.size() < burst) {
        TenantTraffic &tt = sched_.tenant(next_.tenant);
        wire::RequestHeader hdr;
        hdr.opcode = static_cast<wire::Opcode>(tt.opcodeOf(next_.flow));
        hdr.seq = sent_.size();
        hdr.clientTimeNs = next_.dueNs;
        hdr.flowId = next_.tenant + nt * next_.flow;
        const std::uint8_t *payload = nullptr;
        if (wire::isAppOpcode(hdr.opcode)) {
            const auto kind = static_cast<hp::app::AppKind>(
                static_cast<std::uint8_t>(hdr.opcode) -
                wire::firstAppOpcode);
            hdr.payloadLen = static_cast<std::uint32_t>(
                hp::app::synthesizeRequest(kind, hdr.flowId,
                                           flowSeq_[hdr.flowId]++,
                                           spin_[hdr.flowId], appPayload,
                                           sizeof(appPayload)));
            payload = appPayload;
        } else {
            const auto &p = tt.payload(static_cast<std::uint8_t>(hdr.opcode));
            hdr.payloadLen = static_cast<std::uint32_t>(p.size());
            payload = p.data();
        }
        const std::size_t n =
            wire::buildRequest(buf, sizeof(buf), hdr, payload);
        hp::server::Datagram d;
        d.peer = server_;
        d.bytes.assign(buf, buf + n);
        out_.push_back(std::move(d));
        sent_.push_back(Sent{next_.dueNs, hdr.flowId,
                             static_cast<std::uint8_t>(hdr.opcode), 1});
        dues.push_back(next_.dueNs);
        next_ = sched_.next();
        exhausted_ = next_.dueNs >= endNs_;
    }
    if (out_.empty())
        return;
    const std::size_t ok = sock_.sendBatch(out_.data(), out_.size());
    const std::uint64_t at = monoNs() - epochNs_;
    r_.attempted += out_.size();
    r_.sendFail += out_.size() - ok;
    inFlight_ += ok;
    // sendmmsg stops at the first failure: the tail was never sent.
    for (std::size_t i = ok; i < out_.size(); ++i)
        sent_[sent_.size() - out_.size() + i].state = 0;
    for (std::uint64_t due : dues)
        if (due >= warmupNs_)
            late_.push_back(static_cast<double>(at - due) / 1e3);
}

void
Runner::onResponse(const std::uint8_t *data, std::size_t len,
                   std::uint64_t now)
{
    const auto hdr = wire::parseResponse(data, len);
    if (!hdr) {
        ++r_.parseErrors;
        return;
    }
    if (hdr->seq >= sent_.size()) {
        ++r_.unmatched;
        return;
    }
    Sent &s = sent_[hdr->seq];
    if (s.state == 2) {
        ++r_.duplicates;
        return;
    }
    if (s.state != 1 || s.flowId != hdr->flowId ||
        s.opcode != static_cast<std::uint8_t>(hdr->opcode) ||
        s.dueNs != hdr->clientTimeNs) {
        ++r_.unmatched;
        return;
    }
    s.state = 2;
    --inFlight_;
    std::int64_t &last = lastSeq_[hdr->flowId];
    if (static_cast<std::int64_t>(hdr->seq) < last)
        ++r_.flowReorders;
    else
        last = static_cast<std::int64_t>(hdr->seq);

    if (wire::isShedStatus(hdr->status)) {
        ++r_.shed;
        return;
    }
    if (hdr->status != wire::statusOk) {
        ++r_.badStatus;
        return;
    }
    ++r_.okAnswered;
    const std::uint8_t *payload = data + wire::ResponseHeader::wireSize;
    const unsigned nt = sched_.numTenants();
    if (hdr->opcode == wire::Opcode::Echo) {
        const auto &p = sched_.tenant(hdr->flowId % nt)
                            .payload(static_cast<std::uint8_t>(
                                wire::Opcode::Echo));
        if (hdr->payloadLen != p.size() ||
            std::memcmp(payload, p.data(), p.size()) != 0)
            ++r_.payloadMismatch;
    } else if (hdr->opcode == wire::Opcode::SpinRtt) {
        // Client half of the spin-bit protocol: flip on reflection.
        const auto resp =
            hp::app::decodeSpinResponse(payload, hdr->payloadLen);
        if (resp)
            spin_[hdr->flowId] = resp->spin ^ 1;
    }
    if (s.dueNs < warmupNs_ || now < s.dueNs)
        return;
    const double us = static_cast<double>(now - s.dueNs) / 1e3;
    all_.push_back(us);
    const std::size_t w = (s.dueNs - warmupNs_) / windowNs_;
    if (w < numWindows_)
        windows_[w].push_back(us);
}

void
Runner::drain()
{
    for (;;) {
        in_.clear();
        if (sock_.recvBatch(in_, 32) == 0)
            return;
        const std::uint64_t now = monoNs() - epochNs_;
        for (const auto &d : in_)
            onResponse(d.bytes.data(), d.bytes.size(), now);
    }
}

GenResult
Runner::run()
{
    const double cpu0 = threadCpuSec();
    next_ = sched_.next();
    exhausted_ = next_.dueNs >= endNs_;
    // A generator this late measures its host, not the server.
    constexpr std::uint64_t overrunNs = 1000000000ull;
    pollfd pfd{sock_.fd(), POLLIN, 0};
    epochNs_ = monoNs();
    while (!exhausted_) {
        std::uint64_t now = monoNs() - epochNs_;
        if (now >= endNs_ + overrunNs) {
            // Far behind the schedule: what is still due is never
            // sent, a client-side failure.
            while (!exhausted_) {
                ++r_.attempted;
                ++r_.sendFail;
                next_ = sched_.next();
                exhausted_ = next_.dueNs >= endNs_;
            }
            break;
        }
        sendDue(now);
        if (out_.size() == burst) {
            // Catching up after this process lost its CPU: let the
            // server's RX thread (on the same CPU) drain each burst
            // rather than flood its socket with the whole backlog.
            sched_yield();
            continue;
        }
        if (exhausted_)
            break;
        now = monoNs() - epochNs_;
        if (next_.dueNs > now + spinNs) {
            const std::uint64_t wait = next_.dueNs - now - spinNs;
            timespec ts{static_cast<time_t>(wait / 1000000000ull),
                        static_cast<long>(wait % 1000000000ull)};
            pfd.revents = 0;
            if (ppoll(&pfd, 1, &ts, nullptr) > 0)
                drain();
        } else {
            // Spin the last stretch so the send is on time even when
            // waking from ppoll() is slow, yielding so a server thread
            // sharing this CPU is never held up.
            drain();
            sched_yield();
        }
    }
    const std::uint64_t lingerEnd =
        monoNs() + lingerNs;
    while (inFlight_ > 0) {
        const std::uint64_t now = monoNs();
        if (now >= lingerEnd)
            break;
        const std::uint64_t wait = std::min<std::uint64_t>(
            lingerEnd - now, 10000000ull);
        timespec ts{0, static_cast<long>(wait)};
        pfd.revents = 0;
        if (ppoll(&pfd, 1, &ts, nullptr) > 0)
            drain();
    }
    drain();

    r_.latencySamples = all_.size();
    r_.p50Us = percentile(all_, 0.5).value;
    r_.p99Us = percentile(all_, 0.99).value;
    r_.lateP50Us = percentile(late_, 0.5).value;
    r_.lateP99Us = percentile(late_, 0.99).value;
    for (auto &w : windows_) {
        if (w.empty())
            continue;
        r_.windowP50Us.push_back(percentile(w, 0.5).value);
        r_.windowP99Us.push_back(percentile(w, 0.99).value);
    }
    r_.cpuSec = threadCpuSec() - cpu0;
    return r_;
}

} // namespace

int
generatorMain(const GenConfig &cfg)
{
    // Wake from ppoll() when asked, not up to the default 50 us later.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    auto sockOpt = hp::server::UdpSocket::open();
    if (!sockOpt)
        return 3;
    hp::server::UdpSocket sock = std::move(*sockOpt);
    // Room for a burst of responses while this process waits for its
    // CPU (the kernel caps the request at net.core.rmem_max).
    const int rcvbuf = 4 << 20;
    setsockopt(sock.fd(), SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
    sockaddr_in server{};
    server.sin_family = AF_INET;
    server.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    server.sin_port = htons(cfg.port);

    Runner runner(cfg, sock, server);
    if (!writeLine(STDOUT_FILENO, "ready"))
        return 4;
    std::string line;
    if (!readLine(STDIN_FILENO, line) || line != "go")
        return 0; // set-up probe: the parent only wanted "ready"
    const GenResult r = runner.run();
    for (const auto &l : r.serialize())
        writeLine(STDOUT_FILENO, l);
    writeLine(STDOUT_FILENO, "end");
    return 0;
}

} // namespace perfbench
