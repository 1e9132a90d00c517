/**
 * @file
 * Measurement primitives of the benchmark: clocks, process and host
 * counters read from /proc and getrusage, percentiles with a minimum
 * tail support, the loss identity, child-process plumbing, and the
 * ordered metric list the driver prints.
 */

#ifndef PERFBENCH_MEASURE_HH
#define PERFBENCH_MEASURE_HH

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "stats/histogram.hh"

namespace perfbench {

// ----- clocks ----------------------------------------------------------

/** Monotonic wall clock, seconds. */
double wallSec();
/** CPU time of the calling thread, seconds (CLOCK_THREAD_CPUTIME_ID). */
double threadCpuSec();

/** getrusage() snapshot: CPU seconds, context switches, peak RSS. */
struct Usage
{
    double cpuSec = 0.0;
    long vcsw = 0;  ///< voluntary context switches
    long ivcsw = 0; ///< involuntary context switches
    long maxRssKb = 0;
};

/** This process (every thread, no children). */
Usage selfUsage();
/** Reaped children of this process. */
Usage childrenUsage();

// ----- host counters ---------------------------------------------------

/** Aggregate "cpu" line of /proc/stat, in jiffies. */
struct CpuStat
{
    std::uint64_t total = 0;
    std::uint64_t idle = 0; ///< idle + iowait
    std::uint64_t steal = 0;
};

CpuStat readCpuStat();

/** Steal and idle shares of all host CPU time between two snapshots. */
struct HostShares
{
    double stealPct = 0.0;
    double idlePct = 0.0;
};

HostShares hostShares(const CpuStat &before, const CpuStat &after);

/** Udp RcvbufErrors from /proc/net/snmp (0 when unreadable). */
std::uint64_t readUdpRcvbufErrors();

// ----- statistics ------------------------------------------------------

/**
 * A percentile backed by enough tail samples.  Requested at @p q, it is
 * reported at the highest rung of {q, 0.99, 0.9, 0.5} (not above q)
 * that leaves at least @p minBeyond samples beyond it; @ref q says
 * which rung was used, and @ref ok is false when even the median lacks
 * support (the value is then the median of what there is, or 0).
 */
struct Percentile
{
    double value = 0.0;
    double q = 0.0;
    bool ok = false;
};

/** Rung for @p count samples requested at @p q (0 if none fits). */
double supportedQuantile(std::uint64_t count, double q,
                         std::uint64_t minBeyond = 10);

/** Exact percentile of @p samples (sorted in place). */
Percentile percentile(std::vector<double> &samples, double q,
                      std::uint64_t minBeyond = 10);

/** Percentile of a log histogram. */
Percentile percentile(const hyperplane::stats::LogHistogram &h, double q,
                      std::uint64_t minBeyond = 10);

/** Median (0 for an empty vector). */
double median(std::vector<double> v);

// ----- loss accounting -------------------------------------------------

/**
 * Where each attempted request of a server phase went.  The identity
 * attempted = answered + shed + lost always holds, and lost splits
 * into client send failures, server drops, kernel receive-buffer
 * overflows and whatever no counter explains.
 */
struct LossReport
{
    std::uint64_t attempted = 0;
    std::uint64_t answered = 0; ///< responses other than typed rejects
    std::uint64_t shed = 0;     ///< typed rejects
    std::uint64_t lost = 0;
    std::uint64_t sendFail = 0;
    std::uint64_t serverDrops = 0;
    std::uint64_t kernelRcvbuf = 0;
    std::uint64_t unattributed = 0;

    bool identityHolds() const;
};

/**
 * Attribute a phase's loss.  Counters are credited in order of
 * certainty — send failures, then server drops, then the host-wide
 * kernel counter — each capped at what is still unexplained, so
 * unrelated traffic on the host cannot make attribution exceed loss.
 * More responses than attempts (impossible with unique sequence
 * numbers) leaves lost at 0 and breaks the identity.
 */
LossReport attributeLoss(std::uint64_t attempted, std::uint64_t answered,
                         std::uint64_t shed, std::uint64_t sendFail,
                         std::uint64_t serverDrops,
                         std::uint64_t kernelRcvbuf);

// ----- child processes -------------------------------------------------

/** A child running this executable, with pipes to its stdin/stdout. */
struct Child
{
    pid_t pid = -1;
    int toChild = -1;
    int fromChild = -1;
};

/** Fork and exec /proc/self/exe with @p args. */
Child spawnSelf(const std::vector<std::string> &args);

/**
 * Scoped pin of the calling thread — and so of every thread and child
 * it starts meanwhile — to the last CPU it may use; the old affinity
 * comes back on destruction.  On a virtual machine a wake-up across
 * vCPUs costs a halted vCPU's exit and re-entry, which varies with the
 * hypervisor's load; on one CPU the server's hand-offs and the
 * generator's round trips measure the program instead.  Measured on a
 * 4-vCPU KVM guest at 2k req/s (echo), the spread of the client p50
 * across runs fell from 0.7 to 0.12 of its median.
 */
class CpuPin
{
  public:
    CpuPin();
    ~CpuPin();
    CpuPin(const CpuPin &) = delete;
    CpuPin &operator=(const CpuPin &) = delete;

    /** The CPU pinned to, or -1 if the affinity could not be set. */
    int cpu() const { return cpu_; }

  private:
    int cpu_ = -1;
    std::vector<int> saved_;
};

/** Read one '\n'-terminated line (without it); false on EOF. */
bool readLine(int fd, std::string &line);
/** Write @p line plus '\n'. */
bool writeLine(int fd, const std::string &line);

/** Close the pipes and reap the child; @return its exit status or -1. */
int finishChild(Child &c);

// ----- reported metrics ------------------------------------------------

/** Ordered (name, value, unit) list rendered as the result JSON. */
class Metrics
{
  public:
    void add(const std::string &name, double value,
             const std::string &unit);
    double get(const std::string &name) const;
    const std::vector<std::pair<std::string, std::pair<double,
                                                       std::string>>> &
    all() const
    {
        return items_;
    }

    /** {"name": {"value": v, "unit": u}, ...} */
    std::string json() const;

  private:
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        items_;
};

/** A JSON number with full precision (non-finite values become 0). */
std::string num(double v);

} // namespace perfbench

#endif // PERFBENCH_MEASURE_HH
