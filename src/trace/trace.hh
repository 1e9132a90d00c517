/**
 * @file
 * Low-overhead notification-path event tracer.
 *
 * The tracer is a fixed-capacity ring buffer of compact TraceEvent
 * records stamped at each stage of the notification path (doorbell
 * write -> coherence snoop -> monitoring-set hit -> ready-set grant ->
 * QWAIT return -> service -> completion), plus fault/recovery events
 * (watchdog rescues, demotions, promotions).  Overflow drops the oldest
 * events and counts them, so a trace of a long run keeps its tail.
 *
 * Two gates keep the cost of *not* tracing at zero:
 *  - compile time: building with -DHYPERPLANE_TRACE=0 turns every stamp
 *    site into a constant-false branch the compiler removes
 *    (trace::kCompiledIn).  The Tracer class itself always exists so
 *    tooling and tests build in every configuration.
 *  - run time: components hold a Tracer pointer that is null unless
 *    SdpConfig::trace.enable is set, so a disabled run pays one
 *    pointer test per stamp site at most.
 *
 * Exporters (chrome_trace.hh) turn the buffer into Chrome/Perfetto
 * trace-event JSON loadable in ui.perfetto.dev or about:tracing.
 */

#ifndef HYPERPLANE_TRACE_TRACE_HH
#define HYPERPLANE_TRACE_TRACE_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "sim/types.hh"

/** Compile-time gate; override with -DHYPERPLANE_TRACE=0. */
#ifndef HYPERPLANE_TRACE
#define HYPERPLANE_TRACE 1
#endif

namespace hyperplane {
namespace trace {

/** True when stamp sites are compiled in. */
inline constexpr bool kCompiledIn = HYPERPLANE_TRACE != 0;

/** Notification-path stages and fault/recovery event kinds. */
enum class Stage : std::uint8_t
{
    DoorbellWrite,    ///< producer rang a doorbell (arrival)
    SnoopDeliver,     ///< coherence write transaction hit a snooper
    MonitorHit,       ///< monitoring set matched an armed entry
    MonitorConflict,  ///< Cuckoo walk failed on QWAIT-ADD
    ReadyActivate,    ///< ready bit set for a queue
    ReadyGrant,       ///< arbiter granted a queue
    QwaitReturn,      ///< QWAIT returned a qid to a core
    Service,          ///< span: core processing dequeued items
    Halt,             ///< span: core blocked in QWAIT
    Wake,             ///< halted core woken
    SpuriousWake,     ///< QWAIT-VERIFY filtered an empty grant
    SnoopDropped,     ///< fault injection swallowed a snoop
    SnoopDelayed,     ///< fault injection delayed a snoop
    WatchdogSweep,    ///< periodic watchdog audit ran
    WatchdogRecovery, ///< watchdog replayed a lost activation
    WakeRefire,       ///< watchdog re-fired a suppressed wake
    Demotion,         ///< queue demoted to software polling
    Promotion,        ///< queue promoted back to hardware monitoring
    FallbackServe,    ///< task served via the software-polled path
    Completion,       ///< task finished (tenant notified)
    AdmissionShed,    ///< request refused at RX steering (typed reject)
};

const char *toString(Stage s);

/** Event flavour: point event or span boundary. */
enum class Phase : std::uint8_t
{
    Instant,
    Begin,
    End,
};

/** One compact trace record (32 bytes). */
struct TraceEvent
{
    Tick ts = 0;
    std::uint64_t arg = 0; ///< task seq, address, or aux value
    QueueId qid = invalidQueueId;
    std::uint32_t track = 0; ///< exported as the Perfetto thread id
    Stage stage = Stage::DoorbellWrite;
    Phase phase = Phase::Instant;
};

// Track ids above any plausible core id are pseudo-threads.
constexpr std::uint32_t trackHardwareBase = 0xFFFF0000u; ///< + cluster
constexpr std::uint32_t trackDevice = 0xFFFFFF00u;
constexpr std::uint32_t trackWatchdog = 0xFFFFFF01u;

/** Human-readable name of a track ("core3", "hw0", "device", ...). */
std::string trackName(std::uint32_t track);

/**
 * Ring-buffered event sink.  Records only while enabled; overflow
 * drops the oldest event (dropped() counts the casualties).
 *
 * Only the simulator stamps a Tracer; the UDP server stamps
 * telemetry::FlightRecorder, which is lock-free.  push/snapshot/clear
 * still serialize on an internal mutex, so a tracer may be read from
 * another thread while a run stamps it; in the single-threaded
 * simulator the lock is never contended.
 */
class Tracer
{
  public:
    explicit Tracer(std::size_t capacity = 1 << 16);

    /** Clock used when a stamp site has no tick of its own. */
    void setClock(std::function<Tick()> clock)
    {
        clock_ = std::move(clock);
    }

    /** Current tick per the installed clock (0 without one). */
    Tick now() const { return clock_ ? clock_() : 0; }

    void setEnabled(bool on)
    {
        enabled_.store(on, std::memory_order_relaxed);
    }
    bool enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    void instant(Stage stage, std::uint32_t track, Tick ts,
                 QueueId qid = invalidQueueId, std::uint64_t arg = 0)
    {
        push({ts, arg, qid, track, stage, Phase::Instant});
    }

    void begin(Stage stage, std::uint32_t track, Tick ts,
               QueueId qid = invalidQueueId, std::uint64_t arg = 0)
    {
        push({ts, arg, qid, track, stage, Phase::Begin});
    }

    void end(Stage stage, std::uint32_t track, Tick ts,
             QueueId qid = invalidQueueId, std::uint64_t arg = 0)
    {
        push({ts, arg, qid, track, stage, Phase::End});
    }

    /** Events currently buffered, oldest first. */
    std::vector<TraceEvent> snapshot() const;

    std::size_t size() const
    {
        std::lock_guard<std::mutex> lock(m_);
        return count_;
    }
    std::size_t capacity() const { return buf_.size(); }

    /** Events evicted by ring overflow. */
    std::uint64_t dropped() const
    {
        std::lock_guard<std::mutex> lock(m_);
        return dropped_;
    }

    /** Total events ever recorded (buffered + dropped). */
    std::uint64_t recorded() const
    {
        std::lock_guard<std::mutex> lock(m_);
        return recorded_;
    }

    void clear();

  private:
    void push(const TraceEvent &e);

    mutable std::mutex m_;
    std::vector<TraceEvent> buf_;
    std::size_t head_ = 0;  ///< index of the oldest event
    std::size_t count_ = 0; ///< live events in the buffer
    std::uint64_t dropped_ = 0;
    std::uint64_t recorded_ = 0;
    std::atomic<bool> enabled_{false};
    std::function<Tick()> clock_;
};

/** Result of a span-pairing audit. */
struct SpanCheck
{
    bool ok = true;
    std::string error;
};

/**
 * Verify Begin/End pairing per track: every End must match the stage
 * of the innermost open Begin on its track, and no Begin may remain
 * open.  (Only meaningful on buffers that did not overflow: eviction
 * can orphan the End of a dropped Begin.)
 */
SpanCheck checkSpanPairing(const std::vector<TraceEvent> &events);

} // namespace trace
} // namespace hyperplane

/**
 * True when the pointed-to tracer should receive a stamp.  With the
 * subsystem compiled out this folds to `false` and the stamp site
 * disappears entirely.
 */
#define HP_TRACE_ON(tracer)                                            \
    (::hyperplane::trace::kCompiledIn && (tracer) != nullptr &&        \
     (tracer)->enabled())

#endif // HYPERPLANE_TRACE_TRACE_HH
