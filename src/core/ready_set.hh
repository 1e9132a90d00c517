/**
 * @file
 * The ready set: tracks queues with available work and grants the next
 * QID to service according to the configured service policy
 * (Sections III-B and IV-B of the paper).
 *
 * State mirrors Figure 6: a ready-bit vector (set when the monitoring set
 * reports an arrival), a mask-bit vector (QWAIT-ENABLE / QWAIT-DISABLE),
 * a current-priority one-hot position, and — for weighted round-robin —
 * a per-queue weight table with a countdown counter.  Selection is
 * performed by a Programmable Priority Arbiter; the Brent-Kung design is
 * the default, the ripple design is available for the ablation study.
 */

#ifndef HYPERPLANE_CORE_READY_SET_HH
#define HYPERPLANE_CORE_READY_SET_HH

#include <memory>
#include <optional>
#include <vector>

#include "core/bitvec.hh"
#include "core/ppa.hh"
#include "sim/types.hh"
#include "stats/counter.hh"
#include "trace/flight_recorder.hh"

namespace hyperplane {

class EventQueue;

namespace core {

/** Service policies supported by the ready set (Section IV-B). */
enum class ServicePolicy : std::uint8_t
{
    RoundRobin,
    WeightedRoundRobin,
    StrictPriority,
};

const char *toString(ServicePolicy p);

/** Which PPA implementation the ready set instantiates. */
enum class ArbiterKind : std::uint8_t
{
    BrentKung,
    Ripple,
};

/** Ready set configuration. */
struct ReadySetConfig
{
    /** Number of QIDs tracked (ready/mask vector width). */
    unsigned capacity = 1024;
    ServicePolicy policy = ServicePolicy::RoundRobin;
    ArbiterKind arbiter = ArbiterKind::BrentKung;
    /** Default weight for weighted round-robin. */
    std::uint32_t defaultWeight = 1;
};

/**
 * Hardware ready set model.
 *
 * A granted QID's ready bit is cleared; QWAIT-RECONSIDER re-activates it
 * if the queue still holds items, which is how "the current queue runs
 * out of work items" passes priority onward in WRR.
 */
class ReadySet
{
  public:
    explicit ReadySet(const ReadySetConfig &cfg = {});

    const ReadySetConfig &config() const { return cfg_; }
    unsigned capacity() const { return cfg_.capacity; }

    /** Mark @p qid ready (monitoring set matched an arrival). */
    void activate(QueueId qid);

    /** Clear @p qid's ready bit (e.g. on QWAIT-REMOVE). */
    void deactivate(QueueId qid);

    bool isReady(QueueId qid) const;

    /** QWAIT-ENABLE: allow @p qid to be granted again. */
    void enable(QueueId qid);

    /** QWAIT-DISABLE: inhibit grants of @p qid (rate limiting). */
    void disable(QueueId qid);

    bool isEnabled(QueueId qid) const;

    /** Set the WRR weight of @p qid (>= 1). */
    void setWeight(QueueId qid, std::uint32_t weight);
    std::uint32_t weight(QueueId qid) const;

    /**
     * Grant the next QID per the service policy and clear its ready bit.
     * @return std::nullopt if no enabled queue is ready.
     */
    std::optional<QueueId> selectNext();

    /** True if any enabled queue is ready (QWAIT would not block). */
    bool anyReady() const;

    /** Number of enabled ready queues. */
    unsigned readyCount() const;

    /** The arbiter in use (for delay/area queries). */
    const PriorityArbiter &arbiter() const { return *arbiter_; }

    /** Reset dynamic state (ready bits, priority, counters). */
    void reset();

    /**
     * Attach a flight recorder: activations stamp ready_activate and
     * grants stamp ready_grant on @p track at @p clock's time.
     */
    void setTracer(trace::FlightRecorder *tracer, const EventQueue *clock,
                   std::uint32_t track)
    {
        tracer_ = tracer;
        clock_ = clock;
        track_ = track;
    }

    stats::Counter activations{"activations"};
    stats::Counter grants{"grants"};

  private:
    ReadySetConfig cfg_;
    std::unique_ptr<PriorityArbiter> arbiter_;
    BitVec ready_;
    BitVec mask_;
    unsigned currentPriority_ = 0;
    std::vector<std::uint32_t> weights_;
    /** WRR sticky state: queue holding priority and remaining credit. */
    QueueId stickyQid_ = invalidQueueId;
    std::uint32_t stickyCredit_ = 0;
    trace::FlightRecorder *tracer_ = nullptr;
    const EventQueue *clock_ = nullptr;
    std::uint32_t track_ = 0;
};

} // namespace core
} // namespace hyperplane

#endif // HYPERPLANE_CORE_READY_SET_HH
