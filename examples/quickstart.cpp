/**
 * @file
 * Quickstart: the HyperPlane programming model in 60 lines.
 *
 * A producer thread feeds work into eight queues; a data-plane thread
 * runs the Algorithm 1 loop against the software emulation front-end
 * (emu::EmuHyperPlane), which has the same semantics as the accelerated
 * QWAIT instructions:
 *
 *   loop:
 *     qid = QWAIT()                 // blocks while all queues idle
 *     n = take(qid)                 // VERIFY + dequeue + RECONSIDER
 *     process the n items
 */

#include <cstdio>
#include <thread>

#include "emu/emu_hyperplane.hh"

using namespace hyperplane;

int
main()
{
    constexpr unsigned numQueues = 8;
    constexpr std::uint64_t itemsPerQueue = 1000;

    emu::EmuHyperPlane hp(numQueues);

    // Control plane: register the tenants' queues (QWAIT-ADD).
    std::vector<QueueId> qids;
    for (unsigned i = 0; i < numQueues; ++i)
        qids.push_back(*hp.addQueue());

    // Tenant/producer side: ring doorbells as work arrives.
    std::thread producer([&] {
        for (std::uint64_t round = 0; round < itemsPerQueue; ++round)
            for (QueueId q : qids)
                hp.ring(q);
    });

    // Data plane: the QWAIT service loop.
    std::vector<std::uint64_t> served(numQueues, 0);
    std::uint64_t total = 0;
    while (total < itemsPerQueue * numQueues) {
        const auto qid = hp.qwait(std::chrono::seconds(5));
        if (!qid) {
            std::fprintf(stderr, "timed out waiting for work\n");
            return 1;
        }
        const std::uint64_t n = hp.take(*qid, /*maxItems=*/16);
        served[*qid] += n; // "process" the items
        total += n;
    }
    producer.join();

    std::printf("served %llu items across %u queues "
                "(%llu QWAIT grants):\n",
                static_cast<unsigned long long>(total), numQueues,
                static_cast<unsigned long long>(hp.grants()));
    for (unsigned i = 0; i < numQueues; ++i)
        std::printf("  queue %u: %llu\n", i,
                    static_cast<unsigned long long>(served[i]));
    for (unsigned i = 0; i < numQueues; ++i) {
        if (served[i] != itemsPerQueue) {
            std::fprintf(stderr, "queue %u served %llu items\n", i,
                         static_cast<unsigned long long>(served[i]));
            return 1;
        }
    }
    return 0;
}
