/**
 * @file
 * The benchmark's workloads and its two phases.
 *
 * A workload feeds one traffic mix first through the simulator
 * (SdpSystem) and then through the UDP server (UdpServer driven by a
 * forked generator).  The phases run one after the other and never
 * overlap.
 */

#ifndef PERFBENCH_PHASES_HH
#define PERFBENCH_PHASES_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "dp/sdp_system.hh"
#include "gen.hh"
#include "measure.hh"
#include "server/server.hh"

namespace perfbench {

struct Workload
{
    std::string name;
    /** Simulator phase (seed filled in from --seed). */
    hyperplane::dp::SdpConfig sim;
    /** Offered requests/s of the server's light and busy phases. */
    double lightRate = 0.0;
    double busyRate = 0.0;
    /** Traffic mix; tenant rates are shares of the phase rate. */
    std::vector<TenantLoad> mix;
    /** Echo path must stay zero-copy (payloadCopies == 0). */
    bool zeroCopy = false;
    /** Typed rejects are the designed answer to an over-rate tenant,
     *  not failed operations. */
    bool shedExpected = false;

    /** Server configuration for a phase offered @p rate requests/s. */
    hyperplane::server::ServerConfig serverConfig(double rate) const;
    /** Generator mix scaled to @p rate requests/s. */
    std::vector<TenantLoad> loads(double rate) const;
};

/** Every workload, in BENCHMARK.json order. */
const std::vector<Workload> &workloads();
const Workload *findWorkload(const std::string &name);

// ----- simulator phase --------------------------------------------------

/** Public counters of one simulated run, read after run(). */
struct SimCounters
{
    std::uint64_t events = 0; ///< EventQueue::dispatched(), whole run
    std::uint64_t tasks = 0;  ///< source arrivals, whole run
    std::uint64_t l1Hits = 0, llcHits = 0, remoteForwards = 0,
                  memAccesses = 0, dirLookups = 0;
    std::uint64_t qwaitCalls = 0, qwaitBlocked = 0, spuriousWakeups = 0;
    std::uint64_t snoopLookups = 0, snoopMatches = 0, insertConflicts = 0;
    std::uint64_t directoryLines = 0;

    std::uint64_t accesses() const
    {
        return l1Hits + llcHits + remoteForwards + memAccesses;
    }
};

struct SimPhase
{
    hyperplane::dp::SdpResults results;
    SimCounters counters;
    /** Per inner repetition. */
    std::vector<double> constructSec;
    std::vector<double> runCpuSec;
    std::vector<double> eventsPerCpuSec;
    /** Every repetition returned bit-identical SdpResults. */
    bool identical = true;
};

/** True if @p a and @p b are bit-identical. */
bool sameResults(const hyperplane::dp::SdpResults &a,
                 const hyperplane::dp::SdpResults &b);

/**
 * Construct + run @p cfg repeatedly until @p cpuBudgetSec of simulating
 * thread CPU time is spent (at least @p minReps, at most @p maxReps).
 */
SimPhase runSimPhase(const hyperplane::dp::SdpConfig &cfg,
                     double cpuBudgetSec, unsigned minReps = 5,
                     unsigned maxReps = 101);

// ----- server phase -----------------------------------------------------

struct ServerPhase
{
    bool ok = false; ///< server started and the generator reported
    GenResult gen;
    LossReport loss;
    double startSec = 0.0;    ///< UdpServer construction + start()
    double genReadySec = 0.0; ///< generator spawn -> "ready"
    Usage usage;              ///< server process, over the phase
    double cpuUsPerReq = 0.0;
    HostShares host;
    std::uint64_t kernelRcvbuf = 0;
    hyperplane::server::ServerCounterSnapshot counters;
    std::uint64_t devWakeups = 0, devSpurious = 0, devTimeouts = 0;
    std::vector<hyperplane::stats::LogHistogram> stages;
    /** The server's app counters ("app.<kind>.<counter>"). */
    std::map<std::string, double> appStats;
};

/** One server phase: fresh server, one forked generator, torn down. */
ServerPhase runServerPhase(const hyperplane::server::ServerConfig &scfg,
                           GenConfig gcfg);

/** Set-up only: start a server and a generator, wait for "ready",
 *  tear both down.  Fills startSec/genReadySec. */
ServerPhase setupCycle(const hyperplane::server::ServerConfig &scfg,
                       GenConfig gcfg);

} // namespace perfbench

#endif // PERFBENCH_PHASES_HH
