#include "trace/trace.hh"

namespace hyperplane {
namespace trace {

const char *
toString(Stage s)
{
    switch (s) {
      case Stage::DoorbellWrite:
        return "doorbell_write";
      case Stage::SnoopDeliver:
        return "snoop_deliver";
      case Stage::MonitorHit:
        return "monitor_hit";
      case Stage::MonitorConflict:
        return "monitor_conflict";
      case Stage::ReadyActivate:
        return "ready_activate";
      case Stage::ReadyGrant:
        return "ready_grant";
      case Stage::QwaitReturn:
        return "qwait_return";
      case Stage::Service:
        return "service";
      case Stage::Halt:
        return "halt";
      case Stage::Wake:
        return "wake";
      case Stage::SpuriousWake:
        return "spurious_wake";
      case Stage::SnoopDropped:
        return "snoop_dropped";
      case Stage::SnoopDelayed:
        return "snoop_delayed";
      case Stage::WatchdogSweep:
        return "watchdog_sweep";
      case Stage::WatchdogRecovery:
        return "watchdog_recovery";
      case Stage::WakeRefire:
        return "wake_refire";
      case Stage::Demotion:
        return "demotion";
      case Stage::Promotion:
        return "promotion";
      case Stage::FallbackServe:
        return "fallback_serve";
      case Stage::Completion:
        return "completion";
      case Stage::AdmissionShed:
        return "admission_shed";
    }
    return "?";
}

std::string
trackName(std::uint32_t track)
{
    if (track == trackDevice)
        return "device";
    if (track == trackWatchdog)
        return "watchdog";
    if (track >= trackHardwareBase)
        return "hw" + std::to_string(track - trackHardwareBase);
    return "core" + std::to_string(track);
}

SpanCheck
checkSpanPairing(const std::vector<TraceEvent> &events)
{
    // Per-track stack of open Begin stages.
    std::vector<std::pair<std::uint32_t, std::vector<Stage>>> stacks;
    auto stackFor = [&stacks](std::uint32_t track) -> std::vector<Stage> & {
        for (auto &[t, s] : stacks) {
            if (t == track)
                return s;
        }
        stacks.emplace_back(track, std::vector<Stage>{});
        return stacks.back().second;
    };

    for (const auto &e : events) {
        if (e.phase == Phase::Begin) {
            stackFor(e.track).push_back(e.stage);
        } else if (e.phase == Phase::End) {
            auto &stack = stackFor(e.track);
            if (stack.empty()) {
                return {false,
                        std::string("unmatched End(") +
                            toString(e.stage) + ") on track " +
                            trackName(e.track)};
            }
            if (stack.back() != e.stage) {
                return {false, std::string("End(") + toString(e.stage) +
                                   ") closes Begin(" +
                                   toString(stack.back()) +
                                   ") on track " + trackName(e.track)};
            }
            stack.pop_back();
        }
    }
    for (const auto &[track, stack] : stacks) {
        if (!stack.empty()) {
            return {false, std::string("unclosed Begin(") +
                               toString(stack.back()) + ") on track " +
                               trackName(track)};
        }
    }
    return {};
}

} // namespace trace
} // namespace hyperplane
