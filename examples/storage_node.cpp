/**
 * @file
 * Example: a storage-node data plane on the HyperPlane API.
 *
 * Client queues carry 4 KiB write requests.  The data-plane thread
 * QWAITs across them and, per request, erasure-codes the block with
 * RS(6,3) over a Cauchy matrix and computes RAID-6 P+Q parity for the
 * local stripe — the paper's two storage workloads, end to end on real
 * bytes, including a verification pass that drops two shards and two
 * stripe blocks and reconstructs them.
 */

#include <cstdio>
#include <thread>
#include <vector>

#include "codes/raid.hh"
#include "codes/reed_solomon.hh"
#include "emu/emu_hyperplane.hh"
#include "queueing/mpmc_queue.hh"
#include "sim/rng.hh"

using namespace hyperplane;

namespace {

constexpr unsigned numClients = 4;
constexpr std::uint64_t requestsPerClient = 100;
constexpr std::size_t blockBytes = 4096;

using Request = std::vector<std::uint8_t>;

} // namespace

int
main()
{
    emu::EmuHyperPlane hp(numClients);
    codes::ReedSolomon rs(6, 3);
    codes::Raid6 raid(8);

    std::vector<std::unique_ptr<queueing::MpmcQueue<Request>>> rings;
    std::vector<QueueId> qids;
    for (unsigned c = 0; c < numClients; ++c) {
        rings.push_back(
            std::make_unique<queueing::MpmcQueue<Request>>(256));
        qids.push_back(*hp.addQueue());
    }

    std::vector<std::thread> clients;
    for (unsigned c = 0; c < numClients; ++c) {
        clients.emplace_back([&, c] {
            Rng rng(1000 + c);
            for (std::uint64_t s = 0; s < requestsPerClient; ++s) {
                Request block(blockBytes);
                for (auto &b : block)
                    b = static_cast<std::uint8_t>(rng.next());
                while (!rings[c]->tryPush(std::move(block)))
                    std::this_thread::yield();
                hp.ring(qids[c]);
            }
        });
    }

    std::uint64_t encoded = 0, verified = 0, total = 0;
    while (total < numClients * requestsPerClient) {
        const auto qid = hp.qwait(std::chrono::seconds(5));
        if (!qid) {
            std::fprintf(stderr, "storage node stalled\n");
            return 1;
        }
        const std::uint64_t n = hp.take(*qid, 4);
        for (std::uint64_t i = 0; i < n; ++i) {
            auto block = rings[*qid]->tryPop();
            if (!block)
                return 1;

            // Erasure-code the block into 6 data + 3 parity shards.
            const std::size_t shardLen = blockBytes / 6;
            std::vector<codes::Shard> data(6);
            for (unsigned s = 0; s < 6; ++s)
                data[s].assign(block->begin() + s * shardLen,
                               block->begin() + (s + 1) * shardLen);
            const auto parity = rs.encode(data);
            ++encoded;

            // RAID-6 P+Q over the local stripe (block split 8 ways).
            const std::size_t strip = blockBytes / 8;
            std::vector<codes::Block> stripe(8);
            for (unsigned s = 0; s < 8; ++s)
                stripe[s].assign(block->begin() + s * strip,
                                 block->begin() + (s + 1) * strip);
            const auto [p, q] = raid.computePQ(stripe);

            // Periodic scrub: lose shards/blocks and reconstruct.
            if (encoded % 50 == 0) {
                std::vector<codes::Shard> shards = data;
                shards.insert(shards.end(), parity.begin(),
                              parity.end());
                shards[1].clear();
                shards[7].clear();
                const auto dec = rs.decode(shards);
                auto damaged = stripe;
                damaged[0].clear();
                damaged[5].clear();
                const auto [r0, r5] =
                    raid.recoverTwoData(damaged, p, q, 0, 5);
                if (!dec || *dec != data || r0 != stripe[0] ||
                    r5 != stripe[5]) {
                    std::fprintf(stderr, "reconstruction mismatch!\n");
                    return 1;
                }
                ++verified;
            }
        }
        total += n;
    }
    for (auto &c : clients)
        c.join();

    std::printf("storage node processed %llu blocks (%llu scrub "
                "reconstructions verified)\n",
                static_cast<unsigned long long>(encoded),
                static_cast<unsigned long long>(verified));
    std::printf("per block: RS(6,3) Cauchy encode + RAID-6 P+Q over "
                "%zu bytes\n", blockBytes);
    if (encoded != numClients * requestsPerClient ||
        verified != encoded / 50) {
        std::fprintf(stderr, "block count mismatch\n");
        return 1;
    }
    return 0;
}
