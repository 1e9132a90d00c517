#include "mem/cache.hh"

#include <algorithm>
#include <bit>

#include "sim/logging.hh"

namespace hyperplane {
namespace mem {

CacheArray::CacheArray(const CacheGeometry &geom)
    : geom_(geom), ways_(geom.ways),
      lineShift_(static_cast<unsigned>(std::countr_zero(geom.lineBytes))),
      setMask_(geom.sets() - 1), words_(geom.sets() * 3 * geom.ways)
{
    hp_assert(geom.sizeBytes % (geom.ways * geom.lineBytes) == 0,
              "cache size must be a multiple of ways * line size");
    hp_assert(std::has_single_bit(geom.lineBytes),
              "line size must be a power of two");
    hp_assert(std::has_single_bit(geom.sets()),
              "number of sets must be a power of two");
    hp_assert(words_.size() < noSlot, "cache too large for 32-bit slots");
}

void
CacheArray::touch(Addr addr)
{
    WayRef w = lookup(addr);
    hp_assert(static_cast<bool>(w), "touch on non-resident line");
    w.touch();
}

void
CacheArray::setState(Addr addr, LineState st)
{
    WayRef w = lookup(addr);
    hp_assert(static_cast<bool>(w), "setState on non-resident line");
    hp_assert(st != LineState::Invalid, "use invalidate() to remove lines");
    w.setState(st);
}

CacheArray::Fill
CacheArray::insert(Addr addr, LineState st)
{
    hp_assert(st != LineState::Invalid, "cannot insert an Invalid line");
    const std::uint64_t key = lineBase(addr) | 1;
    const Slot base = setBase(addr);
    const std::uint64_t *tags = &words_[base];
    const std::uint64_t *meta = tags + ways_;
    unsigned invalid = ways_;
    unsigned lru = 0;
    for (unsigned w = 0; w < ways_; ++w) {
        if (tags[w] == key) {
            // Already resident: treat as a state update + LRU touch.
            stampAt(base + w, st);
            return {base + w, std::nullopt};
        }
        if (tags[w] == 0) {
            if (invalid == ways_)
                invalid = w;
        } else if (meta[w] < meta[lru]) {
            lru = w;
        }
    }
    // With no invalid way every way is valid, so lru is the true LRU.
    const Slot s = base + (invalid != ways_ ? invalid : lru);
    Fill fill{s, std::nullopt};
    if (words_[s] != 0) {
        fill.victim = std::make_pair(words_[s] & ~Addr{1}, stateAt(s));
        evictions.inc();
    } else {
        ++resident_;
    }
    words_[s] = key;
    stampAt(s, st);
    return fill;
}

LineState
CacheArray::invalidate(Addr addr)
{
    const Slot s = find(addr);
    if (s == noSlot)
        return LineState::Invalid;
    words_[s] = 0;
    --resident_;
    return stateAt(s);
}

void
CacheArray::flush()
{
    std::fill(words_.begin(), words_.end(), 0);
    resident_ = 0;
}

} // namespace mem
} // namespace hyperplane
