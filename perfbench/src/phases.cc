#include "phases.hh"

#include <cstring>
#include <type_traits>

namespace perfbench {

namespace hp = hyperplane;
using hp::dp::PlaneKind;
using hp::dp::QueueOrg;
using hp::server::ServerConfig;
using hp::traffic::Shape;

// ----- workloads -----------------------------------------------------------

namespace {

Workload
echo1k()
{
    Workload w;
    w.name = "echo-1k";
    w.sim.plane = PlaneKind::HyperPlane;
    w.sim.numCores = 4;
    w.sim.numQueues = 400;
    w.sim.org = QueueOrg::ScaleUpAll;
    w.sim.workload = hp::workloads::Kind::PacketSteering;
    w.sim.shape = Shape::FB;
    // Simulated capacity is about 1.43 Mtasks/s: at 0.8 the p99 does not
    // depend on the window length.
    w.sim.offeredRatePerSec = 0.8e6;
    w.sim.warmupUs = 1000.0;
    w.sim.measureUs = 20000.0;
    w.lightRate = 2000.0;
    w.busyRate = 6000.0;
    TenantLoad t;
    t.rate = 1.0;
    t.numFlows = 1024;
    t.shape = Shape::FB;
    w.mix = {t};
    w.zeroCopy = true;
    return w;
}

Workload
stateZipf()
{
    Workload w;
    w.name = "state-zipf";
    w.sim.plane = PlaneKind::Spinning;
    w.sim.numCores = 16;
    w.sim.numQueues = 16;
    w.sim.org = QueueOrg::ScaleUpAll;
    w.sim.workload = hp::workloads::Kind::ConntrackLb;
    w.sim.shape = Shape::Zipf;
    // Well below capacity: p99 holds from 2 to 6 Mtasks/s offered.
    w.sim.offeredRatePerSec = 4e6;
    w.sim.warmupUs = 1000.0;
    w.sim.measureUs = 10000.0;
    w.lightRate = 2000.0;
    w.busyRate = 5000.0;
    TenantLoad t;
    t.rate = 1.0;
    t.numFlows = 65536;
    t.shape = Shape::Zipf;
    t.opcodeWeights = {0.0, 0.0, 0.0, 1.0, 1.0, 1.0};
    w.mix = {t};
    return w;
}

Workload
tenantShed()
{
    Workload w;
    w.name = "tenant-shed";
    w.sim.plane = PlaneKind::HyperPlane;
    w.sim.numCores = 4;
    w.sim.numQueues = 64;
    w.sim.org = QueueOrg::ScaleUpAll;
    w.sim.policy = hp::core::ServicePolicy::WeightedRoundRobin;
    w.sim.workload = hp::workloads::Kind::PacketEncapsulation;
    w.sim.shape = Shape::FB;
    // At 2 Mtasks/s the p99 grows with the window; at 1 it holds.
    w.sim.offeredRatePerSec = 1e6;
    w.sim.warmupUs = 1000.0;
    w.sim.measureUs = 20000.0;
    hp::dp::TenantSpec victim;
    victim.name = "victim";
    victim.weight = 8;
    victim.priority = 1;
    victim.rateLimitPerSec = 1e9;
    victim.queueFirst = 0;
    victim.queueCount = 32;
    hp::dp::TenantSpec aggressor;
    aggressor.name = "aggressor";
    aggressor.weight = 1;
    aggressor.queueFirst = 32;
    aggressor.queueCount = 32;
    w.sim.tenants = {victim, aggressor};
    w.lightRate = 2000.0;
    w.busyRate = 6000.0;
    TenantLoad v;
    v.rate = 0.5;
    v.numFlows = 64;
    v.opcodeWeights = {1.0, 1.0, 0.0, 0.0, 0.0, 0.0};
    TenantLoad a;
    a.rate = 0.5;
    a.numFlows = 64;
    w.mix = {v, a};
    w.shedExpected = true;
    return w;
}

} // namespace

ServerConfig
Workload::serverConfig(double rate) const
{
    ServerConfig sc; // shipping defaults: 1 RX, 1 TX, 2 workers, 16 queues
    if (mix.size() == 2) {
        const double aggressorRate = rate * mix[1].rate;
        sc.policy = hp::core::ServicePolicy::WeightedRoundRobin;
        hp::dp::TenantSpec victim;
        victim.name = "victim";
        victim.weight = 8;
        victim.priority = 1;
        victim.rateLimitPerSec = rate * 8.0; // never the limiter
        victim.queueFirst = 0;
        victim.queueCount = sc.numQueues / 2;
        hp::dp::TenantSpec aggressor;
        aggressor.name = "aggressor";
        aggressor.weight = 1;
        aggressor.rateLimitPerSec = aggressorRate / 2.0; // offered 2x
        aggressor.queueFirst = sc.numQueues / 2;
        aggressor.queueCount = sc.numQueues / 2;
        sc.tenants = {victim, aggressor};
        sc.shedLowWatermark = 512;
        sc.shedHighWatermark = 4096;
    }
    return sc;
}

std::vector<TenantLoad>
Workload::loads(double rate) const
{
    std::vector<TenantLoad> out = mix;
    for (auto &t : out)
        t.rate *= rate;
    return out;
}

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> all = {echo1k(), stateZipf(),
                                              tenantShed()};
    return all;
}

const Workload *
findWorkload(const std::string &name)
{
    for (const auto &w : workloads())
        if (w.name == name)
            return &w;
    return nullptr;
}

// ----- simulator phase ------------------------------------------------------

bool
sameResults(const hp::dp::SdpResults &a, const hp::dp::SdpResults &b)
{
    // Every field is an 8-byte scalar, so the struct has no padding and
    // a byte compare is a bit-identity check of every result.
    static_assert(std::is_trivially_copyable_v<hp::dp::SdpResults>);
    static_assert(sizeof(hp::dp::SdpResults) % 8 == 0);
    return std::memcmp(&a, &b, sizeof(a)) == 0;
}

namespace {

SimCounters
readCounters(hp::dp::SdpSystem &sys)
{
    SimCounters c;
    c.events = sys.eventQueue().dispatched();
    c.directoryLines = sys.memory().directoryLines();
    const auto u = [](double v) {
        return v == v ? static_cast<std::uint64_t>(v) : 0;
    };
    sys.registry().forEach([&](const std::string &path, double v) {
        const auto ends = [&path](const char *suffix) {
            const std::size_t n = std::strlen(suffix);
            return path.size() >= n &&
                   path.compare(path.size() - n, n, suffix) == 0;
        };
        if (path == "source.arrivals_generated") c.tasks = u(v);
        else if (path == "mem.l1_hits") c.l1Hits = u(v);
        else if (path == "mem.llc_hits") c.llcHits = u(v);
        else if (path == "mem.remote_l1_forwards") c.remoteForwards = u(v);
        else if (path == "mem.memory_accesses") c.memAccesses = u(v);
        else if (path == "mem.directory_lookups") c.dirLookups = u(v);
        else if (path.rfind("hyperplane", 0) != 0) return;
        // Per-cluster QWAIT units: sum across clusters.
        else if (ends(".qwait_calls")) c.qwaitCalls += u(v);
        else if (ends(".qwait_blocked")) c.qwaitBlocked += u(v);
        else if (ends(".spurious_wakeups")) c.spuriousWakeups += u(v);
        else if (ends(".monitoring.snoop_lookups")) c.snoopLookups += u(v);
        else if (ends(".monitoring.snoop_matches")) c.snoopMatches += u(v);
        else if (ends(".monitoring.insert_conflicts"))
            c.insertConflicts += u(v);
    });
    return c;
}

} // namespace

SimPhase
runSimPhase(const hp::dp::SdpConfig &cfg, double cpuBudgetSec,
            unsigned minReps, unsigned maxReps)
{
    SimPhase p;
    double spent = 0.0;
    for (unsigned rep = 0; rep < maxReps; ++rep) {
        if (rep >= minReps && spent >= cpuBudgetSec)
            break;
        const double t0 = wallSec();
        hp::dp::SdpSystem sys(cfg);
        p.constructSec.push_back(wallSec() - t0);
        const double c0 = threadCpuSec();
        const hp::dp::SdpResults r = sys.run();
        const double cpu = threadCpuSec() - c0;
        spent += cpu;
        p.runCpuSec.push_back(cpu);
        const std::uint64_t events = sys.eventQueue().dispatched();
        p.eventsPerCpuSec.push_back(cpu > 0.0 ? events / cpu : 0.0);
        if (rep == 0) {
            p.results = r;
            p.counters = readCounters(sys);
        } else if (!sameResults(r, p.results)) {
            p.identical = false;
        }
    }
    return p;
}

// ----- server phase -----------------------------------------------------------

namespace {

/** Start the server and a generator; fills the set-up times. */
bool
bringUp(hp::server::UdpServer &srv, const GenConfig &base, Child &gen,
        ServerPhase &p)
{
    const double t0 = wallSec();
    const bool started = srv.start();
    p.startSec = wallSec() - t0;
    if (!started)
        return false;
    GenConfig g = base;
    g.port = srv.port();
    std::vector<std::string> args = {"--generator"};
    for (auto &a : g.toArgs())
        args.push_back(a);
    const double t1 = wallSec();
    gen = spawnSelf(args);
    std::string line;
    if (gen.pid <= 0 || !readLine(gen.fromChild, line) || line != "ready")
        return false;
    p.genReadySec = wallSec() - t1;
    return true;
}

} // namespace

ServerPhase
setupCycle(const ServerConfig &scfg, GenConfig gcfg)
{
    ServerPhase p;
    const double t0 = wallSec();
    auto srv = std::make_unique<hp::server::UdpServer>(scfg);
    const double construct = wallSec() - t0;
    Child gen;
    p.ok = bringUp(*srv, gcfg, gen, p);
    p.startSec += construct;
    finishChild(gen); // EOF instead of "go": the generator exits
    srv->stop();
    return p;
}

ServerPhase
runServerPhase(const ServerConfig &scfg, GenConfig gcfg)
{
    ServerPhase p;
    const double t0 = wallSec();
    auto srv = std::make_unique<hp::server::UdpServer>(scfg);
    const double construct = wallSec() - t0;
    Child gen;
    const bool up = bringUp(*srv, gcfg, gen, p);
    p.startSec += construct;
    if (!up) {
        finishChild(gen);
        srv->stop();
        return p;
    }

    const Usage u0 = selfUsage();
    const CpuStat c0 = readCpuStat();
    const std::uint64_t k0 = readUdpRcvbufErrors();
    writeLine(gen.toChild, "go");
    std::vector<std::string> lines;
    std::string line;
    bool ended = false;
    while (readLine(gen.fromChild, line)) {
        if (line == "end") {
            ended = true;
            break;
        }
        lines.push_back(line);
    }
    const Usage u1 = selfUsage();
    const CpuStat c1 = readCpuStat();
    const std::uint64_t k1 = readUdpRcvbufErrors();
    const int status = finishChild(gen);

    p.gen = GenResult::parse(lines);
    p.counters = srv->counterSnapshot();
    const auto &dev = srv->device();
    p.devWakeups = dev.wakeups();
    p.devSpurious = dev.spuriousWakes();
    p.devTimeouts = dev.qwaitTimeouts();
    hp::stats::Registry reg;
    srv->registerStats(reg);
    reg.forEach([&p](const std::string &path, double v) {
        if (path.rfind("server.app.", 0) == 0)
            p.appStats[path.substr(7)] = v;
    });
    for (unsigned s = 0; s < hp::telemetry::kNumServerStages; ++s)
        p.stages.push_back(
            srv->stageLatency(static_cast<hp::telemetry::ServerStage>(s)));
    srv->stop();

    p.usage.cpuSec = u1.cpuSec - u0.cpuSec;
    p.usage.vcsw = u1.vcsw - u0.vcsw;
    p.usage.ivcsw = u1.ivcsw - u0.ivcsw;
    p.host = hostShares(c0, c1);
    p.kernelRcvbuf = k1 >= k0 ? k1 - k0 : 0;
    const std::uint64_t received = p.gen.received();
    p.cpuUsPerReq =
        received ? p.usage.cpuSec * 1e6 / static_cast<double>(received)
                 : 0.0;
    const auto &c = p.counters;
    p.loss = attributeLoss(p.gen.attempted,
                           p.gen.okAnswered + p.gen.badStatus, p.gen.shed,
                           p.gen.sendFail,
                           c.queueDrops + c.poolDrops + c.txDrops +
                               c.txSendErrors,
                           p.kernelRcvbuf);
    p.ok = ended && status == 0 && p.gen.attempted > 0;
    return p;
}

} // namespace perfbench
