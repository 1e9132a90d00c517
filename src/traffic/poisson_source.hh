/**
 * @file
 * Open-loop Poisson traffic generation.
 *
 * Each active queue receives an independent Poisson arrival process whose
 * rate is its weight share of the total offered rate — the memoryless
 * inter-arrival behaviour the paper's evaluation uses ("our arrivals
 * follow a Poisson process", Section V-B).  Arrivals enqueue a WorkItem
 * into the device-side queue and perform the producer's doorbell write
 * through the memory system, which is what the monitoring set snoops.
 */

#ifndef HYPERPLANE_TRAFFIC_POISSON_SOURCE_HH
#define HYPERPLANE_TRAFFIC_POISSON_SOURCE_HH

#include <functional>
#include <vector>

#include "mem/memory_system.hh"
#include "queueing/task_queue.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "stats/counter.hh"

namespace hyperplane {
namespace traffic {

/** Poisson source configuration. */
struct SourceConfig
{
    /** Total offered rate across all queues, tasks/second. */
    double totalRatePerSec = 1e5;
    /** Payload size attached to each work item, bytes. */
    std::uint32_t payloadBytes = 1024;
    /** Per-queue backlog cap; arrivals beyond it are dropped. */
    std::size_t maxQueueDepth = 4096;
    /** RNG seed. */
    std::uint64_t seed = 1;
};

/**
 * Drives arrivals into a QueueSet via an EventQueue.
 */
class PoissonSource
{
  public:
    /** Called after each accepted arrival. */
    using ArrivalHook =
        std::function<void(QueueId, const queueing::WorkItem &)>;

    /**
     * @param eq      Simulation event queue.
     * @param queues  Destination queues.
     * @param mem     Memory system for doorbell writes (may be null in
     *                unit tests, skipping the coherence traffic).
     * @param cfg     Rate/payload configuration.
     * @param weights Per-queue rate weights (see shapes.hh).
     */
    PoissonSource(EventQueue &eq, queueing::QueueSet &queues,
                  mem::MemorySystem *mem, const SourceConfig &cfg,
                  std::vector<double> weights);

    /** Begin generating arrivals at the current simulation time. */
    void start();

    /** Stop generating (pending per-queue events are cancelled). */
    void stop();

    void setArrivalHook(ArrivalHook hook) { hook_ = std::move(hook); }

    /** Update the total offered rate (takes effect per queue lazily). */
    void setRate(double totalRatePerSec);

    std::uint64_t generated() const { return generated_.value(); }
    std::uint64_t dropped() const { return dropped_.value(); }

    stats::Counter generated_{"arrivals_generated"};
    stats::Counter dropped_{"arrivals_dropped"};

  private:
    void scheduleNext(QueueId qid);
    void arrive(QueueId qid);

    EventQueue &eq_;
    queueing::QueueSet &queues_;
    mem::MemorySystem *mem_;
    SourceConfig cfg_;
    std::vector<double> weights_;
    Rng rng_;
    bool running_ = false;
    std::uint64_t nextSeq_ = 0;
    std::vector<EventId> pending_;
    ArrivalHook hook_;
};

} // namespace traffic
} // namespace hyperplane

#endif // HYPERPLANE_TRAFFIC_POISSON_SOURCE_HH
