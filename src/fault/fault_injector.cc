#include "fault/fault_injector.hh"

#include <algorithm>

namespace hyperplane {
namespace fault {

namespace {

/** Per-concern stream tweaks (decorrelate the Rng streams). */
constexpr std::uint64_t dropTweak = 0xd409d409d409d409ULL;
constexpr std::uint64_t delayTweak = 0xde1aede1aede1aedULL;
constexpr std::uint64_t suppressTweak = 0x5a99e555a99e555aULL;
constexpr std::uint64_t spuriousTweak = 0x59a210c559a210c5ULL;
constexpr std::uint64_t stormTweak = 0x57042b57042b5704ULL;

} // namespace

FaultInjector::FaultInjector(const FaultPlan &plan, std::uint64_t seed)
    : plan_(plan), dropRng_(seed ^ dropTweak), delayRng_(seed ^ delayTweak),
      suppressRng_(seed ^ suppressTweak),
      spuriousRng_(seed ^ spuriousTweak), stormRng_(seed ^ stormTweak)
{
}

bool
FaultInjector::rollDropSnoop()
{
    // Zero-rate dimensions consume no draws, so enabling one fault does
    // not perturb the streams of the others.
    if (plan_.dropSnoopRate <= 0.0)
        return false;
    if (!dropRng_.chance(plan_.dropSnoopRate))
        return false;
    snoopsDropped.inc();
    return true;
}

std::optional<Tick>
FaultInjector::rollDelaySnoop()
{
    if (plan_.delaySnoopRate <= 0.0)
        return std::nullopt;
    if (!delayRng_.chance(plan_.delaySnoopRate))
        return std::nullopt;
    snoopsDelayed.inc();
    const double us = delayRng_.exponential(plan_.delayMeanUs);
    return std::max<Tick>(1, usToTicks(us));
}

bool
FaultInjector::rollSuppressWake()
{
    if (plan_.suppressWakeRate <= 0.0)
        return false;
    if (!suppressRng_.chance(plan_.suppressWakeRate))
        return false;
    wakesSuppressed.inc();
    return true;
}

double
FaultInjector::nextSpuriousGapUs()
{
    return spuriousRng_.exponential(1e6 / plan_.spuriousWakesPerSec);
}

double
FaultInjector::nextStormGapUs()
{
    return stormRng_.exponential(1e6 / plan_.stormRatePerSec);
}

std::uint64_t
FaultInjector::pickSpuriousTarget(std::uint64_t bound)
{
    return spuriousRng_.uniformInt(bound);
}

std::uint64_t
FaultInjector::pickStormTarget(std::uint64_t bound)
{
    return stormRng_.uniformInt(bound);
}

bool
FaultInjector::recordLost(QueueId qid)
{
    if (!lost_.insert(qid).second)
        return false; // episode already open; one recovery covers both
    lostInjected.inc();
    return true;
}

bool
FaultInjector::recordWatchdogRecovery(QueueId qid)
{
    if (lost_.erase(qid) == 0)
        return false;
    watchdogRecovered.inc();
    return true;
}

bool
FaultInjector::recordSelfRecovery(QueueId qid)
{
    if (lost_.erase(qid) == 0)
        return false;
    selfRecovered.inc();
    return true;
}

} // namespace fault
} // namespace hyperplane
