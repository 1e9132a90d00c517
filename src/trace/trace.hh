/**
 * @file
 * Notification-path trace vocabulary shared by both front ends.
 *
 * A TraceEvent is a compact record stamped at each stage of the
 * notification path (doorbell write -> coherence snoop -> monitoring-set
 * hit -> ready-set grant -> QWAIT return -> service -> completion), plus
 * fault/recovery events (watchdog rescues, demotions, promotions).  The
 * simulator and the UDP server stamp the same stages into the same ring,
 * trace::FlightRecorder (flight_recorder.hh).
 *
 * The only gate is at run time: components hold a recorder pointer that
 * is null unless tracing is on (SdpConfig::trace.enable in the
 * simulator, TelemetryConfig::enabled in the server), so an untraced
 * run pays one pointer test per stamp site.
 *
 * Exporters (chrome_trace.hh) turn events into Chrome/Perfetto
 * trace-event JSON loadable in ui.perfetto.dev or about:tracing.
 */

#ifndef HYPERPLANE_TRACE_TRACE_HH
#define HYPERPLANE_TRACE_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace hyperplane {
namespace trace {

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

#endif // HYPERPLANE_TRACE_TRACE_HH
