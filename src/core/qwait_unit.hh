/**
 * @file
 * The QWAIT unit: HyperPlane's full hardware subsystem, tying the
 * monitoring set to the ready set and implementing the instruction
 * semantics of Algorithm 1 in the paper.
 *
 * Instruction mapping:
 *  - QWAIT_init       -> constructor + MemorySystem::watchRange
 *  - QWAIT-ADD        -> qwaitAdd() (the simulator binds each queue at
 *                        its fixed AddressMap doorbell; a conflict
 *                        demotes the queue instead of redrawing it)
 *  - QWAIT-REMOVE     -> qwaitRemove()
 *  - QWAIT            -> qwait() (returns nullopt when the caller would
 *                        halt; the wake callback fires on next arrival)
 *  - QWAIT-VERIFY     -> qwaitVerify()
 *  - QWAIT-RECONSIDER -> qwaitReconsider()
 *  - QWAIT-ENABLE / QWAIT-DISABLE -> qwaitEnable() / qwaitDisable()
 *
 * The unit implements mem::Snooper; registering it over the doorbell
 * range makes GetM transactions flow into the monitoring set exactly as
 * in Figure 4.
 */

#ifndef HYPERPLANE_CORE_QWAIT_UNIT_HH
#define HYPERPLANE_CORE_QWAIT_UNIT_HH

#include <functional>
#include <optional>
#include <unordered_map>

#include "core/monitoring_set.hh"
#include "core/ready_set.hh"
#include "mem/memory_system.hh"
#include "queueing/doorbell.hh"
#include "sim/types.hh"

namespace hyperplane {
namespace core {

/** Full HyperPlane hardware configuration. */
struct QwaitConfig
{
    MonitoringSetConfig monitoring{};
    ReadySetConfig ready{};
    /**
     * End-to-end QWAIT instruction latency, cycles.  The paper
     * conservatively charges 50 cycles, above the sum of component
     * latencies (Section IV-C).
     */
    Tick qwaitLatency = 50;
};

/** Outcome of a QWAIT-ADD attempt. */
enum class AddResult : std::uint8_t
{
    Ok,            ///< bound and monitoring
    Conflict,      ///< Cuckoo conflict; reallocate the address and retry
    DuplicateAddr, ///< doorbell line already monitored (by another qid)
    DuplicateQid,  ///< qid already bound; retrying can never succeed
};

const char *toString(AddResult r);

/**
 * The HyperPlane notification subsystem, shared by all data-plane cores.
 */
class QwaitUnit : public mem::Snooper
{
  public:
    explicit QwaitUnit(const QwaitConfig &cfg = {});

    const QwaitConfig &config() const { return cfg_; }

    // --- Control plane (privileged; kernel driver) -------------------

    /**
     * QWAIT-ADD: bind @p doorbell to @p qid and start monitoring.
     * Only AddResult::Conflict (and DuplicateAddr, under an address
     * allocator that can re-draw a taken line) is worth retrying with a
     * fresh address; DuplicateQid is a caller bug or a benign re-bind.
     * The insert is deterministic, so retrying the same address after a
     * conflict conflicts again.
     */
    AddResult qwaitAdd(QueueId qid, Addr doorbell);

    /** QWAIT-REMOVE: disconnect a tenant's queue. */
    bool qwaitRemove(QueueId qid);

    /** Doorbell address bound to @p qid, if any. */
    std::optional<Addr> doorbellOf(QueueId qid) const;

    // --- Data plane --------------------------------------------------

    /**
     * QWAIT: return the next ready QID per the service policy, or
     * std::nullopt if every queue is idle (the calling core halts and is
     * woken via the wake callback).
     */
    std::optional<QueueId> qwait();

    /**
     * QWAIT-VERIFY: atomically test the doorbell; if the queue is empty,
     * re-arm it in the monitoring set.
     *
     * @return true if the queue really has work (proceed to dequeue);
     *         false on a spurious wake-up (re-execute QWAIT).
     */
    bool qwaitVerify(QueueId qid, const queueing::Doorbell &doorbell);

    /**
     * QWAIT-RECONSIDER: after dequeuing, atomically either re-arm the
     * queue in the monitoring set (empty) or re-activate it in the ready
     * set (items remain).
     */
    void qwaitReconsider(QueueId qid, const queueing::Doorbell &doorbell);

    /**
     * QWAIT-ENABLE / QWAIT-DISABLE (rate limiting / congestion ctrl).
     * Enabling a queue that became ready while masked re-fires the
     * wake callback: the hardware select re-evaluates, so halted cores
     * must not sleep through the newly grantable QID.
     */
    void qwaitEnable(QueueId qid);
    void qwaitDisable(QueueId qid) { readySet_.disable(qid); }

    // --- Recovery / fault-injection hooks ----------------------------

    /**
     * Watchdog audit of one queue: if its monitoring entry is armed
     * while the doorbell already advertises work and the queue is not
     * ready, the doorbell snoop was lost — replay the activation
     * (disarm + activate + wake), exactly what the missed write
     * transaction would have done.
     *
     * @return true if a lost notification was recovered.
     */
    bool watchdogVerify(QueueId qid, const queueing::Doorbell &doorbell);

    /**
     * Fault injection: activate @p qid in the ready set with no backing
     * work (a spurious wake source).  QWAIT-VERIFY filters the result.
     */
    void injectSpuriousActivation(QueueId qid);

    // --- Coherence snoop path (Figure 4, steps 1-3) -------------------

    void onWriteTransaction(Addr line, CoreId writer) override;

    /**
     * Register the callback fired when the ready set transitions from
     * empty to non-empty (wakes halted cores).
     */
    void setWakeCallback(std::function<void()> cb)
    {
        wakeCallback_ = std::move(cb);
    }

    /**
     * Observability hook: fired once per notification-path activation
     * (snoop hit, watchdog replay, injected spurious activation) with
     * the activated qid — the ready-set re-activations of
     * QWAIT-RECONSIDER are not notifications and do not fire it.
     */
    void setActivationHook(std::function<void(QueueId)> hook)
    {
        activationHook_ = std::move(hook);
    }

    /**
     * Attach a flight recorder under hardware track @p track, stamping
     * at @p clock's time: forwards to the monitoring and ready sets and
     * stamps spurious_wake instants when QWAIT-VERIFY filters an empty
     * grant.
     */
    void setTracer(trace::FlightRecorder *tracer, const EventQueue *clock,
                   std::uint32_t track)
    {
        tracer_ = tracer;
        clock_ = clock;
        track_ = track;
        monitoring_.setTracer(tracer, clock, track);
        readySet_.setTracer(tracer, clock, track);
    }

    /** QWAIT instruction latency, cycles. */
    Tick qwaitLatency() const { return cfg_.qwaitLatency; }

    MonitoringSet &monitoringSet() { return monitoring_; }
    const MonitoringSet &monitoringSet() const { return monitoring_; }
    ReadySet &readySet() { return readySet_; }
    const ReadySet &readySet() const { return readySet_; }

    stats::Counter qwaitCalls{"qwait_calls"};
    stats::Counter qwaitBlocked{"qwait_blocked"};
    stats::Counter spuriousWakeups{"spurious_wakeups"};

  private:
    QwaitConfig cfg_;
    MonitoringSet monitoring_;
    ReadySet readySet_;
    std::unordered_map<QueueId, Addr> doorbellByQid_;
    std::function<void()> wakeCallback_;
    std::function<void(QueueId)> activationHook_;
    trace::FlightRecorder *tracer_ = nullptr;
    const EventQueue *clock_ = nullptr;
    std::uint32_t track_ = 0;
};

} // namespace core
} // namespace hyperplane

#endif // HYPERPLANE_CORE_QWAIT_UNIT_HH
