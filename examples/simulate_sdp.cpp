/**
 * @file
 * Example: drive the full simulated software data plane.
 *
 * Runs the same packet-encapsulation scenario twice — once on the
 * spin-polling baseline and once on HyperPlane — and prints the
 * head-to-head comparison (throughput, latency, IPC, power) that the
 * paper's evaluation is built from.  Exits non-zero unless both planes
 * carry traffic and HyperPlane draws less power and wastes fewer
 * instructions than spin-polling at light load.
 *
 * Usage: simulate_sdp [numQueues] [numCores] [--stats]
 *   --stats  dump the gem5-style per-component statistics report of
 *            the final (HyperPlane) run
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>

#include "dp/sdp_system.hh"
#include "harness/experiment.hh"
#include "harness/runner.hh"
#include "stats/table.hh"

using namespace hyperplane;

int
main(int argc, char **argv)
{
    bool dumpStats = false;
    unsigned positional[2] = {400, 1};
    unsigned nPos = 0;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--stats") == 0)
            dumpStats = true;
        else if (nPos < 2)
            positional[nPos++] = static_cast<unsigned>(std::atoi(argv[i]));
    }
    const unsigned numQueues = positional[0];
    const unsigned numCores = positional[1];

    harness::printTableI();
    std::printf("Scenario: packet encapsulation, %u queues, %u core(s), "
                "PC traffic\n\n",
                numQueues, numCores);

    stats::Table table("spin-polling vs HyperPlane");
    table.header({"plane", "peak Mtps", "avg us", "p99 us", "IPC",
                  "useless IPC", "power W"});

    bool carried = true;
    dp::SdpResults spinLight, hpLight;

    for (const auto plane :
         {dp::PlaneKind::Spinning, dp::PlaneKind::HyperPlane}) {
        dp::SdpConfig cfg;
        cfg.plane = plane;
        cfg.numQueues = numQueues;
        cfg.numCores = numCores;
        cfg.workload = workloads::Kind::PacketEncapsulation;
        cfg.shape = traffic::Shape::PC;
        cfg.seed = 42;

        const auto peak = harness::measureAtSaturation(cfg);

        auto zero = harness::zeroLoadConfig(cfg, 800);
        dp::SdpSystem lightSys(zero);
        const auto light = lightSys.run();
        if (dumpStats && plane == dp::PlaneKind::HyperPlane) {
            std::puts("--- component statistics (HyperPlane light-load "
                      "run) ---");
            lightSys.dumpStats(std::cout);
            std::puts("");
        }

        carried = carried && peak.throughputMtps > 0.0 &&
                  light.completions > 0;
        (plane == dp::PlaneKind::HyperPlane ? hpLight : spinLight) = light;

        table.row({dp::toString(plane), stats::fmt(peak.throughputMtps),
                   stats::fmt(light.avgLatencyUs, 2),
                   stats::fmt(light.p99LatencyUs, 2),
                   stats::fmt(light.ipc, 2),
                   stats::fmt(light.uselessIpc, 2),
                   stats::fmt(light.avgCorePowerW, 2)});
    }
    table.print();

    if (!carried) {
        std::fprintf(stderr, "a plane completed no tasks\n");
        return 1;
    }
    if (!(hpLight.avgCorePowerW < spinLight.avgCorePowerW) ||
        !(hpLight.uselessIpc < spinLight.uselessIpc)) {
        std::fprintf(stderr, "HyperPlane did not beat spin-polling on "
                             "light-load power and useless IPC\n");
        return 1;
    }
    return 0;
}
