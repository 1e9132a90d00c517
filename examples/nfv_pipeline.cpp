/**
 * @file
 * Example: a miniature NFV data plane on the HyperPlane API.
 *
 * Three tenants send IPv4 packets.  A data-plane thread uses QWAIT to
 * pick the next ready tenant queue (weighted round-robin — tenant 0 is
 * a premium tenant with weight 4), then runs a two-stage network
 * function on each packet: GRE IPv4-in-IPv6 encapsulation followed by
 * AES-CBC-256 encryption of the tunneled packet — the packet
 * encapsulation and crypto forwarding workloads of the paper chained
 * into one pipeline, on real packet bytes.
 */

#include <cstdio>
#include <thread>
#include <vector>

#include "crypto/aes.hh"
#include "crypto/cbc.hh"
#include "emu/emu_hyperplane.hh"
#include "net/headers.hh"
#include "queueing/mpmc_queue.hh"

using namespace hyperplane;

namespace {

constexpr unsigned numTenants = 3;
constexpr std::uint64_t packetsPerTenant = 400;

net::PacketBuffer
makeTenantPacket(unsigned tenant, std::uint64_t seq)
{
    const std::size_t payload = 200 + 32 * tenant;
    net::PacketBuffer pkt(net::Ipv4Header::wireSize + payload);
    net::Ipv4Header hdr;
    hdr.totalLength =
        static_cast<std::uint16_t>(net::Ipv4Header::wireSize + payload);
    hdr.identification = static_cast<std::uint16_t>(seq);
    hdr.protocol = net::protoUdp;
    hdr.src = 0x0a000000u + tenant;
    hdr.dst = 0xc0a80001u;
    hdr.write(pkt.data());
    for (std::size_t i = 0; i < payload; ++i)
        pkt[net::Ipv4Header::wireSize + i] =
            static_cast<std::uint8_t>(seq + i);
    return pkt;
}

} // namespace

int
main()
{
    emu::EmuHyperPlane hp(numTenants,
                          core::ServicePolicy::WeightedRoundRobin);

    // Per-tenant packet rings + registered queues.
    std::vector<std::unique_ptr<queueing::MpmcQueue<net::PacketBuffer>>>
        rings;
    std::vector<QueueId> qids;
    for (unsigned t = 0; t < numTenants; ++t) {
        rings.push_back(
            std::make_unique<queueing::MpmcQueue<net::PacketBuffer>>(
                1024));
        qids.push_back(*hp.addQueue());
    }
    hp.setWeight(qids[0], 4); // premium tenant

    // Tenant producers.
    std::vector<std::thread> producers;
    for (unsigned t = 0; t < numTenants; ++t) {
        producers.emplace_back([&, t] {
            for (std::uint64_t s = 0; s < packetsPerTenant; ++s) {
                while (!rings[t]->tryPush(makeTenantPacket(t, s)))
                    std::this_thread::yield();
                hp.ring(qids[t]);
            }
        });
    }

    // The network functions.
    net::Ipv6Header tunnel;
    tunnel.src[15] = 1;
    tunnel.dst[15] = 2;
    const std::uint8_t key[32] = {0x42};
    const crypto::Aes aes(key, sizeof(key));

    std::vector<std::uint64_t> processed(numTenants, 0);
    std::vector<std::size_t> bytesOut(numTenants, 0);
    std::uint64_t total = 0;

    while (total < numTenants * packetsPerTenant) {
        const auto qid = hp.qwait(std::chrono::seconds(5));
        if (!qid) {
            std::fprintf(stderr, "pipeline stalled\n");
            return 1;
        }
        const std::uint64_t n = hp.take(*qid, 8);
        for (std::uint64_t i = 0; i < n; ++i) {
            auto pkt = rings[*qid]->tryPop();
            if (!pkt) {
                std::fprintf(stderr, "ring/doorbell mismatch\n");
                return 1;
            }
            // Stage 1: GRE tunnel into IPv6.
            if (!net::greEncapsulate(*pkt, tunnel, *qid)) {
                std::fprintf(stderr, "encapsulation failed\n");
                return 1;
            }
            // Stage 2: encrypt the tunneled packet for the wire.
            crypto::Iv iv{};
            iv[0] = static_cast<std::uint8_t>(processed[*qid]);
            const auto cipher =
                crypto::cbcEncrypt(aes, iv, pkt->data(), pkt->size());
            ++processed[*qid];
            bytesOut[*qid] += cipher.size();
        }
        total += n;
    }
    for (auto &p : producers)
        p.join();

    std::puts("NFV pipeline complete (GRE encap + AES-CBC-256):");
    for (unsigned t = 0; t < numTenants; ++t) {
        std::printf(
            "  tenant %u (%s): %llu packets, %zu encrypted bytes\n", t,
            t == 0 ? "premium, weight 4" : "standard",
            static_cast<unsigned long long>(processed[t]),
            bytesOut[t]);
    }
    for (unsigned t = 0; t < numTenants; ++t) {
        if (processed[t] != packetsPerTenant) {
            std::fprintf(stderr, "tenant %u: %llu of %llu packets\n", t,
                         static_cast<unsigned long long>(processed[t]),
                         static_cast<unsigned long long>(
                             packetsPerTenant));
            return 1;
        }
    }
    return 0;
}
