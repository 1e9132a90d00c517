/**
 * @file
 * Set-associative cache tag array with LRU replacement.
 *
 * CacheArray models only tags and per-line coherence state; data values are
 * never simulated (timing and state are what the experiments need).  It is
 * used for both private L1s and the shared LLC by MemorySystem.
 *
 * Each way also carries one auxiliary word the array never interprets.
 * MemorySystem keeps the coherence directory there: an LLC way's word is
 * its line's sharer set, an L1 way's word is the LLC slot of its line.
 */

#ifndef HYPERPLANE_MEM_CACHE_HH
#define HYPERPLANE_MEM_CACHE_HH

#include <cstdint>
#include <optional>
#include <utility>

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
 *
 * Each set is one contiguous block of 3 x ways words: the tags (line|1,
 * zero when the way is invalid), then the LRU/state words
 * ((lastUse << 2) | state), then the aux words.  A probe scans one run
 * of tags and the hit's other words lie a few host lines further on in
 * the same block.  (Three separate tag, state and aux arrays, where an
 * access touches three distant host lines, measured no faster; see
 * docs/PERFORMANCE.md.)  The LRU clock is monotonic and unique, so
 * ordering ways by the state word orders them by last use.
 */
class CacheArray
{
  public:
    /** Position of one way in the array; stable while its line stays
     *  resident. */
    using Slot = std::uint32_t;

    static constexpr Slot noSlot = ~Slot{0};

    explicit CacheArray(const CacheGeometry &geom);

    /**
     * Mutable handle to one resident way, returned by lookup().  One
     * probe of the set resolves presence, state, LRU update, and state
     * change.  A handle is invalidated by any subsequent insert(),
     * invalidate(), or flush() on the array.
     */
    class WayRef
    {
      public:
        WayRef() = default;

        /** True if the probe hit a resident line. */
        explicit operator bool() const { return slot_ != noSlot; }

        /** State of the resident line (Invalid when the probe missed). */
        LineState state() const
        {
            return slot_ != noSlot ? arr_->stateAt(slot_)
                                   : LineState::Invalid;
        }

        /** Update LRU. @pre the probe hit */
        void touch() { arr_->touchAt(slot_); }

        /** Change coherence state. @pre the probe hit; st != Invalid */
        void setState(LineState st)
        {
            std::uint64_t &m = arr_->words_[slot_ + arr_->ways_];
            m = (m & ~std::uint64_t{3}) | static_cast<std::uint64_t>(st);
        }

        /** The way's slot (noSlot when the probe missed). */
        Slot slot() const { return slot_; }

      private:
        friend class CacheArray;
        WayRef(CacheArray *arr, Slot slot) : arr_(arr), slot_(slot) {}

        CacheArray *arr_ = nullptr;
        Slot slot_ = noSlot;
    };

    /** Slot holding @p addr's line, or noSlot if not resident. */
    Slot find(Addr addr) const
    {
        const std::uint64_t key = lineBase(addr) | 1;
        const Slot base = setBase(addr);
        for (unsigned w = 0; w < ways_; ++w) {
            if (words_[base + w] == key)
                return base + w;
        }
        return noSlot;
    }

    /** Single-probe lookup; the handle tests false on a miss. */
    WayRef lookup(Addr addr) { return WayRef(this, find(addr)); }

    /** Line state, or Invalid if not present. */
    LineState state(Addr addr) const
    {
        const Slot s = find(addr);
        return s != noSlot ? stateAt(s) : LineState::Invalid;
    }

    /** True if the line is present in any valid state. */
    bool contains(Addr addr) const { return find(addr) != noSlot; }

    /** Update LRU on a hit. @pre contains(addr) */
    void touch(Addr addr);

    /** Change the state of a resident line. @pre contains(addr) */
    void setState(Addr addr, LineState st);

    /** Outcome of insert(). */
    struct Fill
    {
        /** Way now holding the inserted line. */
        Slot slot;
        /** The evicted line's (address, state), if the fill evicted
         *  one.  Its aux word is still in the slot. */
        std::optional<std::pair<Addr, LineState>> victim;
    };

    /**
     * Insert a line (in the given state).  One scan of the set finds the
     * line if resident (its state is then updated and its LRU touched),
     * else the first invalid way, else the LRU way, which is evicted.
     * The aux word is left as it was.
     */
    Fill insert(Addr addr, LineState st);

    /** Remove a line if present. @return prior state. */
    LineState invalidate(Addr addr);

    /** Update LRU of resident slot @p s. */
    void touchAt(Slot s) { stampAt(s, stateAt(s)); }

    /** Set resident slot @p s's state and update its LRU. */
    void stampAt(Slot s, LineState st)
    {
        words_[s + ways_] =
            (++useClock_ << 2) | static_cast<std::uint64_t>(st);
    }

    /** State of resident slot @p s. */
    LineState stateAt(Slot s) const
    {
        return static_cast<LineState>(words_[s + ways_] & 3);
    }

    /** Auxiliary word of slot @p s (owned by the array's user). */
    std::uint64_t &aux(Slot s) { return words_[s + 2 * ways_]; }
    std::uint64_t aux(Slot s) const { return words_[s + 2 * ways_]; }

    /** Visit every resident way as f(slot, line, state). */
    template <typename F>
    void forEachResident(F &&f) const
    {
        for (std::size_t set = 0; set < words_.size(); set += 3 * ways_) {
            for (unsigned w = 0; w < ways_; ++w) {
                const std::uint64_t tag = words_[set + w];
                if (tag != 0) {
                    const Slot s = static_cast<Slot>(set + w);
                    f(s, tag & ~Addr{1}, stateAt(s));
                }
            }
        }
    }

    /** Number of valid lines currently resident. */
    std::uint64_t residentLines() const { return resident_; }

    /** Total line capacity. */
    std::uint64_t capacityLines() const
    {
        return geom_.sets() * geom_.ways;
    }

    const CacheGeometry &geometry() const { return geom_; }

    /** Invalidate everything and clear every aux word. */
    void flush();

    stats::Counter hits{"hits"};
    stats::Counter misses{"misses"};
    stats::Counter evictions{"evictions"};

  private:
    /** First word of @p addr's set. */
    Slot setBase(Addr addr) const
    {
        return static_cast<Slot>(((addr >> lineShift_) & setMask_) *
                                 (3 * ways_));
    }

    CacheGeometry geom_;
    unsigned ways_;
    unsigned lineShift_;
    std::uint64_t setMask_;
    // sets() x 3 x ways words, one block per set.  Huge-page-backed:
    // the LLC array alone is several MB and probed at random lines.
    HugeArray<std::uint64_t> words_;
    std::uint64_t useClock_ = 0;
    std::uint64_t resident_ = 0;
};

} // namespace mem
} // namespace hyperplane

#endif // HYPERPLANE_MEM_CACHE_HH
