/**
 * @file
 * The monitoring set: a Cuckoo-hashed associative structure mapping
 * doorbell cache-line tags to queue ids (Section IV-A of the paper).
 *
 * Lookups (snoops, re-arms) probe one row in each of the two ways — the
 * cost profile of a 2-way set-associative tag array.  Insertions
 * (QWAIT-ADD) may walk the table, relocating entries between ways as in
 * ZCache/Cuckoo hashing, which keeps the conflict rate negligible when
 * the table is modestly over-provisioned.  Entries carry the paper's
 * exact fields: tag, QID, monitoring (armed) bit, valid bit.
 *
 * The structure can be banked (distributed-directory deployments); the
 * bank is selected by address hash and each bank is an independent
 * Cuckoo table.
 */

#ifndef HYPERPLANE_CORE_MONITORING_SET_HH
#define HYPERPLANE_CORE_MONITORING_SET_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/types.hh"
#include "stats/counter.hh"
#include "trace/flight_recorder.hh"

namespace hyperplane {

class EventQueue;

namespace core {

/** One monitoring-set entry (tag, QID, monitoring bit, valid bit). */
struct MonitorEntry
{
    Addr tag = 0;
    QueueId qid = invalidQueueId;
    bool armed = false;
    bool valid = false;
};

/** Configuration of the monitoring set hardware. */
struct MonitoringSetConfig
{
    /** Total entries across all banks and ways. */
    unsigned capacity = 1024;
    /**
     * Cuckoo ways (hash functions).  Two-choice/one-slot cuckoo tables
     * cap out at 50% occupancy; the ZCache-style 4-way walk sustains
     * >95%, which is what lets a 1024-entry table track 1000 doorbells
     * with a few percent of over-provisioning (Section IV-A).
     */
    unsigned ways = 4;
    /** Banks (>= 1); for distributed directories. */
    unsigned banks = 1;
    /** Maximum relocation steps before an insert reports a conflict. */
    unsigned maxWalkSteps = 64;
    /** Tag lookup latency, cycles (Section IV-C: within 5 CPU cycles). */
    Tick lookupCycles = 5;
};

/**
 * Cuckoo-hashed monitoring set.
 *
 * All addresses are line-aligned internally.
 */
class MonitoringSet
{
  public:
    explicit MonitoringSet(const MonitoringSetConfig &cfg = {});

    const MonitoringSetConfig &config() const { return cfg_; }

    /** Outcome of an insert() attempt. */
    enum class InsertResult : std::uint8_t
    {
        Ok,        ///< inserted and armed
        Duplicate, ///< doorbell line already registered; retrying the
                   ///< same address can never succeed
        Conflict,  ///< Cuckoo walk failed; reallocate the address
    };

    /**
     * QWAIT-ADD: associate @p doorbell with @p qid and arm it.
     *
     * Duplicate registrations and Cuckoo conflicts are reported
     * separately (and counted separately): only a conflict can be fixed
     * by a fresh address.
     */
    InsertResult insert(Addr doorbell, QueueId qid);

    /**
     * QWAIT-REMOVE: drop the entry for @p doorbell.
     * @return false if no such entry exists.
     */
    bool remove(Addr doorbell);

    /**
     * Snoop path: a write transaction on @p line was observed.  If an
     * armed entry matches, it is disarmed (monitoring bit cleared).
     *
     * @return The QID to activate in the ready set, if any.
     */
    std::optional<QueueId> onWriteTransaction(Addr line);

    /**
     * Re-arm the entry for @p doorbell (QWAIT-VERIFY / QWAIT-RECONSIDER
     * on an empty queue).
     * @return false if the doorbell is not registered.
     */
    bool arm(Addr doorbell);

    /**
     * Clear the monitoring bit for @p doorbell without consuming a
     * snoop (watchdog recovery path).
     * @return false if the doorbell is not registered or already
     *         disarmed.
     */
    bool disarm(Addr doorbell);

    /** Entry lookup (tests/inspection). */
    const MonitorEntry *find(Addr doorbell) const;

    /** True if the entry exists and is armed. */
    bool isArmed(Addr doorbell) const;

    /** Number of valid entries. */
    unsigned occupancy() const { return occupancy_; }

    /**
     * Attach a flight recorder: armed snoop matches stamp monitor_hit
     * and failed Cuckoo walks stamp monitor_conflict on @p track at
     * @p clock's time.
     */
    void setTracer(trace::FlightRecorder *tracer, const EventQueue *clock,
                   std::uint32_t track)
    {
        tracer_ = tracer;
        clock_ = clock;
        track_ = track;
    }

    /** Fraction of capacity in use. */
    double loadFactor() const
    {
        return static_cast<double>(occupancy_) / cfg_.capacity;
    }

    stats::Counter inserts{"inserts"};
    stats::Counter insertConflicts{"insert_conflicts"};
    stats::Counter duplicateInserts{"duplicate_inserts"};
    stats::Counter walkSteps{"cuckoo_walk_steps"};
    stats::Counter snoops{"snoop_lookups"};
    stats::Counter snoopMatches{"snoop_matches"};

  private:
    /** Row count per way per bank. */
    unsigned rowsPerWay() const;

    unsigned bankOf(Addr tag) const;
    unsigned hashOf(Addr tag, unsigned way) const;

    /** Slot reference inside one bank. */
    MonitorEntry &slot(unsigned bank, unsigned way, unsigned row);
    const MonitorEntry &slot(unsigned bank, unsigned way,
                             unsigned row) const;

    MonitorEntry *findMutable(Addr doorbell);

    MonitoringSetConfig cfg_;
    /** banks * ways * rows entries, flattened. */
    std::vector<MonitorEntry> table_;
    unsigned occupancy_ = 0;
    trace::FlightRecorder *tracer_ = nullptr;
    const EventQueue *clock_ = nullptr;
    std::uint32_t track_ = 0;
};

} // namespace core
} // namespace hyperplane

#endif // HYPERPLANE_CORE_MONITORING_SET_HH
