/**
 * @file
 * Set-associative cache tag array with LRU replacement.
 *
 * CacheArray models only tags and per-line coherence state; data values are
 * never simulated (timing and state are what the experiments need).  It is
 * used for both private L1s and the shared LLC by MemorySystem.
 */

#ifndef HYPERPLANE_MEM_CACHE_HH
#define HYPERPLANE_MEM_CACHE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "mem/huge_alloc.hh"
#include "sim/types.hh"
#include "stats/counter.hh"

namespace hyperplane {
namespace mem {

/** MESI line states (plus Invalid encoded as absence). */
enum class LineState : std::uint8_t
{
    Invalid,
    Shared,
    Exclusive,
    Modified,
};

/** Geometry of one cache level. */
struct CacheGeometry
{
    std::uint64_t sizeBytes;
    unsigned ways;
    unsigned lineBytes = cacheLineBytes;

    std::uint64_t sets() const { return sizeBytes / (ways * lineBytes); }
};

/**
 * LRU set-associative tag array.
 *
 * Addresses are line-aligned internally; callers may pass any byte address.
 */
class CacheArray
{
  private:
    /**
     * One tag-array way, packed to 16 bytes (four per host cache line):
     * meta holds (lastUse << 2) | state.  The LRU clock is monotonic
     * and unique, so ordering ways by the shifted clock is identical
     * to ordering by a full-width one — victim selection is unchanged.
     * A simulated machine carries cores x sets x ways of these, so the
     * per-way footprint is what decides whether the tag arrays stay
     * resident in the host's caches as core count grows.
     */
    struct Way
    {
        Addr tag = 0;
        std::uint64_t meta = 0; ///< zero == Invalid, never used

        LineState state() const
        {
            return static_cast<LineState>(meta & 3);
        }

        std::uint64_t lastUse() const { return meta >> 2; }

        void setState(LineState st)
        {
            meta = (meta & ~std::uint64_t{3}) |
                   static_cast<std::uint64_t>(st);
        }

        void stamp(LineState st, std::uint64_t clock)
        {
            meta = (clock << 2) | static_cast<std::uint64_t>(st);
        }
    };

  public:
    explicit CacheArray(const CacheGeometry &geom);

    /**
     * Mutable handle to one resident way, returned by lookup().  One
     * probe of the set resolves presence, state, LRU update, and state
     * change, where the legacy contains()/touch()/setState() chain
     * re-walked the tags once per call.  A handle is invalidated by any
     * subsequent insert(), invalidate(), or flush() on the array.
     */
    class WayRef
    {
      public:
        WayRef() = default;

        /** True if the probe hit a resident line. */
        explicit operator bool() const { return way_ != nullptr; }

        /** State of the resident line (Invalid when the probe missed). */
        LineState state() const
        {
            return way_ != nullptr ? way_->state() : LineState::Invalid;
        }

        /** Update LRU. @pre the probe hit */
        void touch() { way_->stamp(way_->state(), ++arr_->useClock_); }

        /** Change coherence state. @pre the probe hit; st != Invalid */
        void setState(LineState st) { way_->setState(st); }

      private:
        friend class CacheArray;
        WayRef(CacheArray *arr, Way *way) : arr_(arr), way_(way) {}

        CacheArray *arr_ = nullptr;
        Way *way_ = nullptr;
    };

    /** Single-probe lookup; the handle tests false on a miss. */
    WayRef lookup(Addr addr) { return WayRef(this, find(addr)); }

    /** Line state, or Invalid if not present. */
    LineState state(Addr addr) const;

    /** True if the line is present in any valid state. */
    bool contains(Addr addr) const { return state(addr) != LineState::Invalid; }

    /** Update LRU on a hit. @pre contains(addr) */
    void touch(Addr addr);

    /** Change the state of a resident line. @pre contains(addr) */
    void setState(Addr addr, LineState st);

    /**
     * Insert a line (in the given state), evicting the LRU way if the set
     * is full.
     *
     * @return The victim line's (address, state) if one was evicted.
     */
    std::optional<std::pair<Addr, LineState>> insert(Addr addr,
                                                     LineState st);

    /** Remove a line if present. @return prior state. */
    LineState invalidate(Addr addr);

    /** Number of valid lines currently resident. */
    std::uint64_t residentLines() const { return resident_; }

    /** Total line capacity. */
    std::uint64_t capacityLines() const
    {
        return geom_.sets() * geom_.ways;
    }

    const CacheGeometry &geometry() const { return geom_; }

    /** Invalidate everything. */
    void flush();

    stats::Counter hits{"hits"};
    stats::Counter misses{"misses"};
    stats::Counter evictions{"evictions"};

  private:
    std::uint64_t setIndex(Addr addr) const;
    Way *find(Addr addr);
    const Way *find(Addr addr) const;

    CacheGeometry geom_;
    // sets() * ways, row-major by set.  Huge-page-backed: the LLC array
    // alone is several MB and probed at random line addresses.
    std::vector<Way, HugePageAllocator<Way>> ways_;
    std::uint64_t useClock_ = 0;
    std::uint64_t resident_ = 0;
};

} // namespace mem
} // namespace hyperplane

#endif // HYPERPLANE_MEM_CACHE_HH
