#include "core/monitoring_set.hh"

#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/logging.hh"

namespace hyperplane {
namespace core {

namespace {

/** Strong 64-bit mixer (splitmix64 finalizer) with a per-way tweak. */
std::uint64_t
mix(std::uint64_t x, std::uint64_t tweak)
{
    x ^= tweak;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

constexpr std::uint64_t wayTweaks[8] = {
    0x243f6a8885a308d3ULL, 0x13198a2e03707344ULL, 0xa4093822299f31d0ULL,
    0x082efa98ec4e6c89ULL, 0x452821e638d01377ULL, 0xbe5466cf34e90c6cULL,
    0xc0ac29b7c97c50ddULL, 0x3f84d5b5b5470917ULL,
};

constexpr std::uint64_t bankTweak = 0x9216d5d98979fb1bULL;

} // namespace

MonitoringSet::MonitoringSet(const MonitoringSetConfig &cfg) : cfg_(cfg)
{
    hp_assert(cfg_.ways >= 2 && cfg_.ways <= 8,
              "monitoring set supports 2..8 ways");
    hp_assert(cfg_.banks >= 1, "need at least one bank");
    hp_assert(cfg_.capacity % (cfg_.ways * cfg_.banks) == 0,
              "capacity must divide evenly into banks * ways");
    table_.resize(cfg_.capacity);
}

unsigned
MonitoringSet::rowsPerWay() const
{
    return cfg_.capacity / (cfg_.ways * cfg_.banks);
}

unsigned
MonitoringSet::bankOf(Addr tag) const
{
    if (cfg_.banks == 1)
        return 0;
    return static_cast<unsigned>(mix(tag, bankTweak) % cfg_.banks);
}

unsigned
MonitoringSet::hashOf(Addr tag, unsigned way) const
{
    return static_cast<unsigned>(mix(tag, wayTweaks[way]) % rowsPerWay());
}

MonitorEntry &
MonitoringSet::slot(unsigned bank, unsigned way, unsigned row)
{
    const unsigned rows = rowsPerWay();
    return table_[(static_cast<std::size_t>(bank) * cfg_.ways + way) *
                      rows +
                  row];
}

const MonitorEntry &
MonitoringSet::slot(unsigned bank, unsigned way, unsigned row) const
{
    return const_cast<MonitoringSet *>(this)->slot(bank, way, row);
}

MonitorEntry *
MonitoringSet::findMutable(Addr doorbell)
{
    const Addr tag = lineBase(doorbell);
    const unsigned bank = bankOf(tag);
    for (unsigned w = 0; w < cfg_.ways; ++w) {
        MonitorEntry &e = slot(bank, w, hashOf(tag, w));
        if (e.valid && e.tag == tag)
            return &e;
    }
    return nullptr;
}

const MonitorEntry *
MonitoringSet::find(Addr doorbell) const
{
    return const_cast<MonitoringSet *>(this)->findMutable(doorbell);
}

MonitoringSet::InsertResult
MonitoringSet::insert(Addr doorbell, QueueId qid)
{
    const Addr tag = lineBase(doorbell);
    if (findMutable(tag) != nullptr) {
        duplicateInserts.inc();
        return InsertResult::Duplicate;
    }

    const unsigned bank = bankOf(tag);
    MonitorEntry incoming{tag, qid, /*armed=*/true, /*valid=*/true};

    // Cuckoo insertion: place in the first empty candidate slot; if all
    // are occupied, evict one and re-place it with its alternate hash,
    // walking until an empty slot or the step limit.  The displaced-slot
    // path is recorded so a failed walk can be unwound exactly, leaving
    // the table untouched (registered doorbells must never vanish).
    std::vector<MonitorEntry *> path;
    unsigned way = 0;
    for (unsigned step = 0; step < cfg_.maxWalkSteps; ++step) {
        for (unsigned w = 0; w < cfg_.ways; ++w) {
            MonitorEntry &e = slot(bank, w, hashOf(incoming.tag, w));
            if (!e.valid) {
                e = incoming;
                ++occupancy_;
                inserts.inc();
                walkSteps.inc(step);
                return InsertResult::Ok;
            }
        }
        // All candidates full: displace the occupant of the current way
        // (rotating through ways across steps, as the table walk does).
        MonitorEntry &victim = slot(bank, way, hashOf(incoming.tag, way));
        std::swap(incoming, victim);
        path.push_back(&victim);
        way = (way + 1) % cfg_.ways;
    }
    // Walk failed: unwind the displacement chain in reverse, restoring
    // every entry to its original slot.
    for (auto it = path.rbegin(); it != path.rend(); ++it)
        std::swap(incoming, **it);
    walkSteps.inc(cfg_.maxWalkSteps);
    insertConflicts.inc();
    if (tracer_) {
        tracer_->stamp(0, trace::Stage::MonitorConflict,
                       trace::Phase::Instant, track_, clock_->now(), qid,
                       tag);
    }
    return InsertResult::Conflict;
}

bool
MonitoringSet::remove(Addr doorbell)
{
    MonitorEntry *e = findMutable(doorbell);
    if (e == nullptr)
        return false;
    e->valid = false;
    e->armed = false;
    --occupancy_;
    return true;
}

std::optional<QueueId>
MonitoringSet::onWriteTransaction(Addr line)
{
    snoops.inc();
    MonitorEntry *e = findMutable(line);
    if (e == nullptr || !e->armed)
        return std::nullopt;
    e->armed = false;
    snoopMatches.inc();
    if (tracer_) {
        tracer_->stamp(0, trace::Stage::MonitorHit, trace::Phase::Instant,
                       track_, clock_->now(), e->qid, line);
    }
    return e->qid;
}

bool
MonitoringSet::arm(Addr doorbell)
{
    MonitorEntry *e = findMutable(doorbell);
    if (e == nullptr)
        return false;
    e->armed = true;
    return true;
}

bool
MonitoringSet::disarm(Addr doorbell)
{
    MonitorEntry *e = findMutable(doorbell);
    if (e == nullptr || !e->armed)
        return false;
    e->armed = false;
    return true;
}

bool
MonitoringSet::isArmed(Addr doorbell) const
{
    const MonitorEntry *e = find(doorbell);
    return e != nullptr && e->armed;
}

} // namespace core
} // namespace hyperplane
