#include "dp/dp_core.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace hyperplane {
namespace dp {

DataPlaneCore::DataPlaneCore(CoreId id, EventQueue &eq,
                             mem::MemorySystem &mem,
                             queueing::QueueSet &queues,
                             workloads::Workload &workload,
                             const CoreTimingParams &params,
                             ServiceJitter jitter, std::uint64_t seed)
    : id_(id), eq_(eq), mem_(mem), queues_(queues), workload_(workload),
      params_(params), jitter_(jitter), rng_(seed ^ (id * 0x5bd1e995ULL))
{
}

void
DataPlaneCore::assignQueues(std::vector<QueueId> qids)
{
    hp_assert(!qids.empty(), "core needs at least one queue");
    qids_ = std::move(qids);
}

void
DataPlaneCore::stop()
{
    running_ = false;
}

Tick
DataPlaneCore::touchTaskBuffer(const queueing::WorkItem &item)
{
    const unsigned lines = workload_.dataLines(item);
    // Each queue owns a small pool of buffer slots; successive items
    // rotate through the slots, so the live working set scales with the
    // number of *active* queues (the LLC-pressure effect of Figure 8).
    const Addr slotBytes =
        static_cast<Addr>(lines + 1) * cacheLineBytes;
    const Addr queuePool = queueing::AddressMap::taskDataBase +
                           static_cast<Addr>(item.qid) *
                               params_.slotsPerQueue * slotBytes;
    const Addr base =
        queuePool + (item.seq % params_.slotsPerQueue) * slotBytes;

    Tick latency = 0;
    for (unsigned l = 0; l < lines; ++l) {
        const Addr a = base + static_cast<Addr>(l) * cacheLineBytes;
        // Roughly half the lines are written (output buffers).
        const auto r = (l % 2 == 0) ? mem_.read(id_, a)
                                    : mem_.write(id_, a);
        latency += r.latency;
    }
    return latency;
}

Tick
DataPlaneCore::jitteredService(Tick base)
{
    switch (jitter_) {
      case ServiceJitter::None:
        return base;
      case ServiceJitter::Exponential:
        return static_cast<Tick>(
            std::max(1.0, rng_.exponential(static_cast<double>(base))));
    }
    return base;
}

Tick
DataPlaneCore::processItem(const queueing::WorkItem &item)
{
    // Transport/workload processing (Figure 2, step 2b).  onItem lets
    // stateful workloads mutate per-flow state and charge
    // state-dependent cost; stateless workloads forward to
    // serviceCycles unchanged.
    const Tick service = jitteredService(workload_.onItem(item));
    const Tick bufferLat = touchTaskBuffer(item);

    // Tenant notification (steps 2c-2d): write the tenant-side doorbell.
    const auto notif = mem_.write(
        id_, queueing::AddressMap::tenantDoorbellAddr(item.qid));

    const Tick total =
        service + bufferLat + params_.notifyCycles + notif.latency;

    const auto serviceInstr = static_cast<std::uint64_t>(
        params_.serviceInstrPerCycle * static_cast<double>(service));
    chargeActive(total, serviceInstr + params_.notifyInstr, true);
    ++activity_.tasks;

    if (tracer_) {
        tracer_->stamp(0, trace::Stage::Completion, trace::Phase::Instant,
                       id_, freeAt_ + total, item.qid, item.seq);
    }
    if (completionHook_)
        completionHook_(item, freeAt_ + total);
    return total;
}

void
DataPlaneCore::chargeActive(Tick cycles, std::uint64_t instr, bool useful)
{
    activity_.activeTicks += cycles;
    if (useful)
        activity_.usefulInstr += instr;
    else
        activity_.uselessInstr += instr;
}

} // namespace dp
} // namespace hyperplane
