/**
 * @file
 * Common machinery for simulated data-plane cores.
 *
 * A data-plane core is an event-driven state machine over the shared
 * EventQueue.  Its activity advances a private time cursor (freeAt());
 * memory operations go through the shared MemorySystem and contribute
 * their latencies.  Cores account executed instructions (split into
 * useful work and useless spinning), cycles per C-state, and completion
 * latencies — everything Figures 8-13 need.
 */

#ifndef HYPERPLANE_DP_DP_CORE_HH
#define HYPERPLANE_DP_DP_CORE_HH

#include <functional>
#include <vector>

#include "mem/memory_system.hh"
#include "queueing/task_queue.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "trace/flight_recorder.hh"
#include "workloads/workload.hh"

namespace hyperplane {
namespace dp {

/** Abstract-core timing parameters (instruction-level costs). */
struct CoreTimingParams
{
    /**
     * Pure-compute cycles of one poll-loop iteration (no memory): the
     * rx_burst-style per-queue dispatch, ring-state checks, and branch
     * overhead of a DPDK-class poll-mode driver.
     */
    Tick pollLoopCycles = 280;
    /** Instructions retired per poll-loop iteration (wide unrolled
     *  descriptor checks executing at high IPC while spinning). */
    unsigned pollInstr = 800;
    /**
     * Poll cost when the sweep covers only a few queues: the loop stays
     * tight and branch-predicted with per-queue state register-resident
     * (a tenant polling its own queue, or an SDP with <= tightLoopMax
     * queues), which is why spinning still wins by a hair at a single
     * queue (Section V-B).
     */
    Tick tightLoopCycles = 15;
    unsigned tightLoopInstr = 45;
    unsigned tightLoopMax = 4;
    /** Compute cycles of a dequeue (descriptor parse, bookkeeping). */
    Tick dequeueCycles = 20;
    unsigned dequeueInstr = 30;
    /** Compute cycles to notify the tenant (build + ring doorbell). */
    Tick notifyCycles = 10;
    unsigned notifyInstr = 15;
    /** QWAIT-VERIFY / QWAIT-RECONSIDER instruction overhead, cycles. */
    Tick verifyCycles = 8;
    Tick reconsiderCycles = 8;
    /** Instructions per cycle while executing workload service code
     *  (memory-bound transport processing). */
    double serviceInstrPerCycle = 1.1;
    /** Task-buffer slots per queue (bounds the buffer working set). */
    unsigned slotsPerQueue = 16;
    /**
     * Extra per-dequeue synchronization cost when multiple cores share
     * queues without HyperPlane (spin-polling scale-up): lock/CAS
     * acquire + release on the queue's synchronization line.
     */
    Tick sharedDequeueSyncCycles = 150;
    /**
     * Items a spinning core drains from a non-empty queue per sweep
     * visit (DPDK rx_burst-style batching; the doorbell counter is
     * decremented by the batch size).
     */
    unsigned spinBurst = 6;
};

/** Service-time variability applied on top of the workload model. */
enum class ServiceJitter : std::uint8_t
{
    None,        ///< deterministic service times
    Exponential, ///< exponential multiplier, mean 1 (cv = 1)
};

/** Completion callback: (item, completionTick). */
using CompletionHook =
    std::function<void(const queueing::WorkItem &, Tick)>;

/** Per-core activity statistics (reset at the measurement boundary). */
struct CoreActivity
{
    std::uint64_t tasks = 0;
    std::uint64_t usefulInstr = 0;
    std::uint64_t uselessInstr = 0;
    std::uint64_t polls = 0;
    std::uint64_t emptyPolls = 0;
    Tick activeTicks = 0;
    Tick c0HaltTicks = 0;
    Tick c1HaltTicks = 0;
    std::uint64_t wakeups = 0;
    /** Low-priority background-task execution (non-blocking QWAIT). */
    Tick backgroundTicks = 0;
    std::uint64_t backgroundInstr = 0;

    void clear() { *this = CoreActivity{}; }

    double
    ipc(Tick window) const
    {
        if (window == 0)
            return 0.0;
        return static_cast<double>(usefulInstr + uselessInstr) /
               static_cast<double>(window);
    }
};

/**
 * Base class for all data-plane core models.
 */
class DataPlaneCore
{
  public:
    DataPlaneCore(CoreId id, EventQueue &eq, mem::MemorySystem &mem,
                  queueing::QueueSet &queues,
                  workloads::Workload &workload,
                  const CoreTimingParams &params, ServiceJitter jitter,
                  std::uint64_t seed);

    virtual ~DataPlaneCore() = default;

    CoreId id() const { return id_; }

    /** Queues this core services (scale-out subset or all). */
    void assignQueues(std::vector<QueueId> qids);
    const std::vector<QueueId> &assignedQueues() const { return qids_; }

    /** Begin executing (schedules the first step). */
    virtual void start() = 0;

    /** Stop executing (the core stops rescheduling itself). */
    virtual void stop();

    void setCompletionHook(CompletionHook hook)
    {
        completionHook_ = std::move(hook);
    }

    /** Attach a recorder; events stamp on this core's track (= id). */
    virtual void setTracer(trace::FlightRecorder *tracer) { tracer_ = tracer; }

    /** Reset activity counters at the measurement boundary. */
    virtual void resetStats() { activity_.clear(); }

    /** Close any open halt/idle accounting at the end of a window. */
    virtual void finalize(Tick endTick) { (void)endTick; }

    const CoreActivity &activity() const { return activity_; }

    /** The core's time cursor: when it next becomes free. */
    Tick freeAt() const { return freeAt_; }

  protected:
    /**
     * One task-buffer access pass: touch the item's buffer lines
     * through the memory system.
     * @return Total memory latency incurred, cycles.
     */
    Tick touchTaskBuffer(const queueing::WorkItem &item);

    /**
     * Process a dequeued item: charge service time + buffer traffic +
     * tenant notification, record the completion.
     * @return Cycles consumed.
     */
    Tick processItem(const queueing::WorkItem &item);

    /** Apply service jitter to a base cycle count. */
    Tick jitteredService(Tick base);

    /** Charge an active interval (updates instruction + cycle stats). */
    void chargeActive(Tick cycles, std::uint64_t instr, bool useful);

    CoreId id_;
    EventQueue &eq_;
    mem::MemorySystem &mem_;
    queueing::QueueSet &queues_;
    workloads::Workload &workload_;
    CoreTimingParams params_;
    ServiceJitter jitter_;
    Rng rng_;
    std::vector<QueueId> qids_;
    CompletionHook completionHook_;
    trace::FlightRecorder *tracer_ = nullptr;
    CoreActivity activity_;
    Tick freeAt_ = 0;
    bool running_ = false;
};

} // namespace dp
} // namespace hyperplane

#endif // HYPERPLANE_DP_DP_CORE_HH
