/**
 * @file
 * Standalone UDP data-plane server.
 *
 * Binds the real server (RX shards -> per-flow queues -> EmuHyperPlane
 * doorbells -> one grant served inline on RX, the rest by QWAIT workers,
 * each sending its own replies) on a UDP port and serves the wire
 * protocol until SIGINT.  Pair it with examples/udp_loadgen from
 * another terminal:
 *
 *   ./udp_server --port 9000 --workers 4 --metrics-port 9100 &
 *   ./udp_loadgen --port 9000 --rate 100000 --duration 2
 *   curl -s localhost:9100/metrics          # Prometheus text
 *   curl -s localhost:9100/stats.json       # full registry
 *   kill -USR1 %1                           # flight-recorder dump
 *
 * Flags:
 *   --ip A            bind address        (default 127.0.0.1)
 *   --port P          bind port, 0 = ephemeral (printed at startup)
 *   --rx N            RX threads / SO_REUSEPORT shards (default 2)
 *   --workers N       QWAIT worker threads             (default 2)
 *   --queues N        task queues                      (default 16)
 *   --stats-sec S     print received, served, sent and queue drops
 *                     every S seconds
 *   --metrics-port P  HTTP metrics endpoint (0 = ephemeral;
 *                     omitted = no endpoint)
 *   --metrics-ip A    metrics bind address (default 127.0.0.1)
 *   --sample-every N  per-request sampling period for flight stamps
 *                     and stage histograms (rounded down to a power of
 *                     two; default 32; 1 = trace every request)
 *   --flight-prefix S SIGUSR1 flight dump path prefix
 *                     (default hyperplane_flight)
 *   --no-telemetry    disable histograms + flight recorder
 *   --dump-metrics    print the Prometheus page to stdout on exit
 *
 * SIGUSR1 dumps the flight recorder to "<flight-prefix>_usr1.json" —
 * a Perfetto-loadable trace of the most recent sampled requests.
 */

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "harness/export.hh"
#include "server/server.hh"
#include "stats/registry.hh"

using namespace hyperplane;

namespace {

std::atomic<bool> interrupted{false};
std::atomic<bool> dumpFlight{false};

void
onSignal(int)
{
    interrupted.store(true);
}

void
onUsr1(int)
{
    dumpFlight.store(true);
}

} // namespace

int
main(int argc, char **argv)
{
    server::ServerConfig cfg;
    std::string flightPrefix = "hyperplane_flight";
    if (const char *v = harness::argValue(argc, argv, "--ip"))
        cfg.bindIp = v;
    if (const char *v = harness::argValue(argc, argv, "--port"))
        cfg.port = static_cast<std::uint16_t>(std::atoi(v));
    if (const char *v = harness::argValue(argc, argv, "--rx"))
        cfg.rxThreads = static_cast<unsigned>(std::atoi(v));
    if (const char *v = harness::argValue(argc, argv, "--workers"))
        cfg.workers = static_cast<unsigned>(std::atoi(v));
    if (const char *v = harness::argValue(argc, argv, "--queues"))
        cfg.numQueues = static_cast<unsigned>(std::atoi(v));
    if (const char *v = harness::argValue(argc, argv, "--metrics-port"))
        cfg.telemetry.metricsPort = std::atoi(v);
    if (const char *v = harness::argValue(argc, argv, "--metrics-ip"))
        cfg.telemetry.metricsIp = v;
    if (const char *v = harness::argValue(argc, argv, "--sample-every"))
        cfg.telemetry.stageSampleEvery =
            static_cast<std::uint64_t>(std::atoll(v));
    if (const char *v =
            harness::argValue(argc, argv, "--flight-prefix"))
        flightPrefix = v;
    if (harness::argPresent(argc, argv, "--no-telemetry"))
        cfg.telemetry.enabled = false;
    const bool dumpMetricsAtExit =
        harness::argPresent(argc, argv, "--dump-metrics");
    double statsSec = 0.0;
    if (const char *v = harness::argValue(argc, argv, "--stats-sec"))
        statsSec = std::atof(v);

    server::UdpServer srv(cfg);
    if (!srv.start()) {
        std::fprintf(stderr,
                     "error: could not bind %s:%u (sockets denied?)\n",
                     cfg.bindIp.c_str(), cfg.port);
        return 1;
    }
    std::printf("udp_server listening on %s:%u  "
                "(rx=%u workers=%u queues=%u)\n",
                cfg.bindIp.c_str(), srv.port(), cfg.rxThreads,
                cfg.workers, cfg.numQueues);
    if (srv.metricsPort() >= 0) {
        std::printf("metrics endpoint on %s:%d  "
                    "(/metrics /stats.json /flight.json)\n",
                    cfg.telemetry.metricsIp.c_str(), srv.metricsPort());
    }
    std::fflush(stdout);

    stats::Registry reg;
    srv.registerStats(reg);

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    std::signal(SIGUSR1, onUsr1);
    auto lastStats = std::chrono::steady_clock::now();
    while (!interrupted.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        if (dumpFlight.exchange(false)) {
            const std::string path = flightPrefix + "_usr1.json";
            const bool ok = srv.dumpFlightTrace(path);
            std::printf("flight dump -> %s (%s)\n", path.c_str(),
                        ok ? "ok" : "FAILED");
            std::fflush(stdout);
        }
        if (statsSec > 0.0) {
            const auto now = std::chrono::steady_clock::now();
            if (std::chrono::duration<double>(now - lastStats).count() >=
                statsSec) {
                lastStats = now;
                const server::ServerCounterSnapshot s =
                    srv.counterSnapshot();
                std::printf(
                    "rx=%llu served=%llu tx=%llu drops=%llu\n",
                    static_cast<unsigned long long>(s.rxPackets),
                    static_cast<unsigned long long>(s.served),
                    static_cast<unsigned long long>(s.txPackets),
                    static_cast<unsigned long long>(s.queueDrops));
                std::fflush(stdout);
            }
        }
    }

    std::puts("draining...");
    if (dumpMetricsAtExit)
        std::fputs(srv.prometheusPage().c_str(), stdout);
    const bool drained = srv.stop();
    std::printf("served %llu requests (%s)\n",
                static_cast<unsigned long long>(
                    srv.counterSnapshot().served),
                drained ? "drained clean" : "drain deadline expired");
    return drained ? 0 : 1;
}
