/**
 * @file
 * Directory-based MESI memory-system timing model.
 *
 * MemorySystem owns a private L1 per core and one shared, inclusive LLC
 * (Table I: 32 KB 4-way L1s, 1 MB/core 16-way LLC, 64 B lines).  Every
 * access returns the latency it would incur and keeps all tag/state arrays
 * coherent, so queue-head ping-pong between spinning cores and the
 * capacity pressure of task data emerge naturally from the model.
 *
 * Coherence queries are served by an explicit directory: a per-line
 * {sharer bitmask, owner id} index colocated with the inclusive LLC and
 * maintained on every L1 insert/state-change/invalidate/evict.  The
 * directory is a simulator-side index over state the tag arrays already
 * hold — it changes no modelled latency and no simulated number, it only
 * turns the owner/sharer/invalidate sweeps over numCores tag arrays into
 * O(1) popcount/bit-scan work so per-event simulation cost stays flat as
 * core count grows (see docs/PERFORMANCE.md).
 *
 * Write transactions that grant exclusive ownership (GetM / upgrade) in a
 * watched address range are reported to registered Snooper objects.  This
 * is the hook HyperPlane's monitoring set uses: it behaves as part of the
 * directory and sees all relevant coherence traffic without being a sharer
 * (Section IV-A of the paper).
 */

#ifndef HYPERPLANE_MEM_MEMORY_SYSTEM_HH
#define HYPERPLANE_MEM_MEMORY_SYSTEM_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "mem/cache.hh"
#include "mem/huge_alloc.hh"
#include "sim/logging.hh"
#include "sim/types.hh"
#include "stats/counter.hh"
#include "trace/flight_recorder.hh"

namespace hyperplane {

class EventQueue;

namespace mem {

/** Where an access was ultimately serviced. */
enum class AccessLevel : std::uint8_t
{
    L1,
    LLC,
    RemoteL1, ///< cache-to-cache forward from another core's L1
    Memory,
};

/** Outcome of one memory access. */
struct AccessResult
{
    Tick latency = 0;
    AccessLevel servedBy = AccessLevel::L1;
    /** True if the miss was caused by coherence (line was elsewhere). */
    bool coherence = false;
};

/** Latency parameters, in core cycles. */
struct MemLatencies
{
    Tick l1Hit = 4;
    Tick llcHit = 40;
    Tick memAccess = 200;
    Tick remoteL1Forward = 60;
    Tick atomicExtra = 15;
};

/**
 * Observer of coherence write transactions in a watched address range.
 * Implemented by HyperPlane's monitoring set.
 */
class Snooper
{
  public:
    virtual ~Snooper() = default;

    /**
     * A GetM/upgrade transaction was observed.
     *
     * @param line   Line-aligned address being written.
     * @param writer Core performing the write, or deviceWriter for DMA.
     */
    virtual void onWriteTransaction(Addr line, CoreId writer) = 0;
};

/** Pseudo core-id used for device (DMA) writes. */
constexpr CoreId deviceWriter = ~CoreId{0};

/** Sharer-bitmask words per directory entry (64 cores each).  Sixteen
 *  words cover 1024-core configurations (ext_core_scaling's largest
 *  point).  Only the rare >=2-sharer overflow-pool records pay for the
 *  wider mask: the hash table itself stores 16-byte packed slots whose
 *  inline single-sharer form is independent of this constant, so the
 *  hottest structure in the simulator is unchanged. */
constexpr unsigned dirMaskWords = 16;

/** Largest core count the directory's inline sharer mask can track. */
constexpr unsigned maxDirectoryCores = dirMaskWords * 64;

/**
 * The full cache hierarchy + directory for one simulated CMP.
 */
class MemorySystem
{
  public:
    /**
     * @param numCores Number of cores with private L1s (at most
     *                 maxDirectoryCores).
     * @param l1Geom   Geometry of each private L1.
     * @param llcGeom  Geometry of the shared LLC.
     * @param lat      Latency parameters.
     */
    MemorySystem(unsigned numCores, const CacheGeometry &l1Geom,
                 const CacheGeometry &llcGeom,
                 const MemLatencies &lat = MemLatencies{});

    /** Load by @p core from @p addr. */
    AccessResult read(CoreId core, Addr addr);

    /** Store by @p core to @p addr (obtains M state). */
    AccessResult write(CoreId core, Addr addr);

    /** Atomic read-modify-write (e.g. doorbell counter update). */
    AccessResult atomicRmw(CoreId core, Addr addr);

    /**
     * Write performed by an I/O device / producer outside the modelled
     * cores (DMA / DDIO).  Invalidates all cached copies, installs the
     * line in the LLC, and fires snoopers.  No latency is charged to any
     * simulated core.
     */
    void deviceWrite(Addr addr);

    /**
     * Register a snooper over [lo, hi).  Multiple ranges may be
     * registered; overlaps fire every matching snooper.
     */
    void watchRange(Addr lo, Addr hi, Snooper *snooper);

    /** Drop a previously registered snooper (all its ranges). */
    void unwatch(Snooper *snooper);

    /**
     * Interposer on the snoop-delivery path (fault injection).  Called
     * once per (matching range, write transaction) before the snooper
     * would be notified; returning true means the interposer took
     * ownership of delivery (dropped it, delayed it, or delivered it
     * itself) and the memory system must not call the snooper.
     */
    using SnoopInterposer =
        std::function<bool(Addr line, CoreId writer, Snooper *target)>;

    /** Install (or clear, with an empty function) the interposer. */
    void setSnoopInterposer(SnoopInterposer interposer)
    {
        interposer_ = std::move(interposer);
    }

    /**
     * Attach a flight recorder: every snoop delivery in a watched range
     * stamps a snoop_deliver instant at @p clock's time (null detaches).
     */
    void setTracer(trace::FlightRecorder *tracer, const EventQueue *clock)
    {
        tracer_ = tracer;
        clock_ = clock;
    }

    unsigned numCores() const { return static_cast<unsigned>(l1s_.size()); }

    /**
     * Read-only L1 access.  All L1 mutations must flow through the
     * MemorySystem access methods so the coherence directory stays in
     * sync with the tag arrays — which is why no mutable reference is
     * exposed.
     */
    const CacheArray &l1(CoreId core) const;
    const CacheArray &llc() const { return llc_; }
    const MemLatencies &latencies() const { return lat_; }

    /** Invalidate all caches (between experiment phases). */
    void flushAll();

    /** Lines currently tracked by the coherence directory. */
    std::uint64_t directoryLines() const { return dir_.size(); }

    /**
     * Recompute sharers/owner from the L1 tag arrays and panic on any
     * divergence from the directory (test hook; O(cores x lines)).
     */
    void checkDirectoryConsistency() const;

    stats::Counter l1Hits{"l1_hits"};
    stats::Counter llcHits{"llc_hits"};
    stats::Counter remoteForwards{"remote_l1_forwards"};
    stats::Counter memAccesses{"memory_accesses"};
    stats::Counter invalidations{"invalidations_sent"};
    stats::Counter writeTransactions{"getm_transactions"};
    stats::Counter snoopHits{"snoop_matches"};
    /** Directory index probes (owner/sharer/invalidate queries). */
    mutable stats::Counter dirLookups{"directory_lookups"};
    /** Probes that found a tracked line. */
    mutable stats::Counter dirHits{"directory_hits"};

  private:
    struct WatchedRange
    {
        Addr lo;
        Addr hi;
        Snooper *snooper;
    };

    /**
     * One directory entry, materialized: which cores' L1s hold the
     * line, and which core (if any) holds it in M/E.  MESI guarantees
     * at most one M/E holder, so a single owner id suffices.  This is
     * the overflow-pool and consistency-check representation; the hash
     * table itself stores the packed form below.
     */
    struct DirEntry
    {
        std::array<std::uint64_t, dirMaskWords> mask{};
        int owner = -1;

        bool empty() const
        {
            for (const std::uint64_t w : mask) {
                if (w != 0)
                    return false;
            }
            return true;
        }

        unsigned popcount() const
        {
            unsigned n = 0;
            for (const std::uint64_t w : mask)
                n += static_cast<unsigned>(std::popcount(w));
            return n;
        }
    };

    /**
     * Flat open-addressing hash index of directory entries, keyed by
     * line address.  L1 tag churn drops and re-tracks entries on nearly
     * every miss, so the node-per-entry std::unordered_map costs a
     * malloc/free plus dependent cache misses per probe; this table
     * colocates key and entry in one 16-byte slot, so every probe and
     * nearly every entry update touches a single cache line.
     *
     * The 16-byte slot matters more than it looks: the directory for a
     * 128-core machine tracks ~64K lines, and with a mask-array entry
     * per slot the table outgrew the host's L2, which alone made
     * per-event simulation cost scale with core count.  MESI lets the
     * entry pack into one word instead: an M/E owner is always the
     * *sole* sharer, so the overwhelmingly common popcount<=1 entry is
     * {hasSharer, ownerValid, sharer id}, and only lines with two or
     * more sharers in S state spill into a small side pool of full
     * sharer-mask DirEntry records (freelist-recycled, a handful of
     * hot queue-head lines in practice).
     *
     * Deletion is backward-shift (no tombstones), so load factor never
     * degrades.  (Two designs were tried here and lost: a
     * locality-preserving identity-style hash — the address map's
     * dense regions alias mod the table size and linear probing
     * clusters — and no-erase stable slots, where dead slots
     * accumulate faster than probe chains recycle them and the table
     * doubles past its reserved footprint.)
     */
    class DirectoryIndex
    {
      public:
        static constexpr std::size_t npos = ~std::size_t{0};

        /** Size the table for @p entries lines; stays allocation-free
         *  until occupancy crosses half of the slot count. */
        void reserve(std::size_t entries)
        {
            grow(std::bit_ceil(std::max<std::size_t>(64, entries * 2)));
        }

        std::size_t find(Addr line) const
        {
            if (slots_.empty())
                return npos;
            const Addr tag = line | 1;
            std::size_t s = idealSlot(tag);
            while (slots_[s].key != 0) {
                if (slots_[s].key == tag)
                    return s;
                s = (s + 1) & mask_;
            }
            return npos;
        }

        /** Start pulling @p line's home slot toward the host caches;
         *  pairs with a find() a few dozen instructions later (L1
         *  eviction knows the victim before the victim's untrack). */
        void prefetch(Addr line) const
        {
            if (!slots_.empty())
                __builtin_prefetch(&slots_[idealSlot(line | 1)]);
        }

        std::size_t findOrInsert(Addr line)
        {
            if ((used_ + 1) * 2 > slots_.size())
                grow(std::max<std::size_t>(64, slots_.size() * 2));
            const Addr tag = line | 1;
            std::size_t s = idealSlot(tag);
            while (slots_[s].key != 0) {
                if (slots_[s].key == tag)
                    return s;
                s = (s + 1) & mask_;
            }
            slots_[s].key = tag;
            slots_[s].packed = 0;
            ++used_;
            return s;
        }

        /** Add @p core as a sharer of slot @p s; @p exclusive marks it
         *  the M/E owner (callers guarantee it is then the sole
         *  sharer). */
        void trackSharer(std::size_t s, CoreId core, bool exclusive)
        {
            std::uint64_t &p = slots_[s].packed;
            if ((p & kOverflow) == 0) {
                const CoreId id = inlineId(p);
                if ((p & kHasSharer) == 0) {
                    p = kHasSharer | (exclusive ? kOwned : 0) |
                        (std::uint64_t{core} << kIdShift);
                    return;
                }
                if (id == core) {
                    if (exclusive)
                        p |= kOwned;
                    else
                        p &= ~kOwned;
                    return;
                }
                // Second sharer: spill to a full mask entry.  An owner
                // would have been downgraded before another core could
                // join, so the spilled entry is ownerless.
                hp_assert(!exclusive && (p & kOwned) == 0,
                          "exclusive track with another sharer present");
                const std::uint32_t idx = allocPool();
                DirEntry &e = pool_[idx];
                e = DirEntry{};
                e.mask[id / 64] |= std::uint64_t{1} << (id % 64);
                e.mask[core / 64] |= std::uint64_t{1} << (core % 64);
                p = kOverflow | (std::uint64_t{idx} << 1);
                return;
            }
            DirEntry &e = pool_[p >> 1];
            hp_assert(!exclusive,
                      "exclusive track with multiple sharers present");
            e.mask[core / 64] |= std::uint64_t{1} << (core % 64);
        }

        /** Drop @p core as a sharer; erases the slot (invalidating
         *  slot indices) when the entry empties. */
        void untrackSharer(std::size_t s, CoreId core)
        {
            std::uint64_t &p = slots_[s].packed;
            if ((p & kOverflow) == 0) {
                if ((p & kHasSharer) != 0 && inlineId(p) == core)
                    eraseAt(s);
                return;
            }
            const std::uint32_t idx =
                static_cast<std::uint32_t>(p >> 1);
            DirEntry &e = pool_[idx];
            e.mask[core / 64] &= ~(std::uint64_t{1} << (core % 64));
            demoteIfSole(s, idx);
        }

        /** M/E holder of slot @p s, or -1. */
        int ownerOf(std::size_t s) const
        {
            const std::uint64_t p = slots_[s].packed;
            if ((p & kOverflow) == 0)
                return (p & kOwned) != 0 ? static_cast<int>(inlineId(p))
                                         : -1;
            return pool_[p >> 1].owner;
        }

        bool anyOtherSharer(std::size_t s, CoreId except) const
        {
            const std::uint64_t p = slots_[s].packed;
            if ((p & kOverflow) == 0)
                return (p & kHasSharer) != 0 && inlineId(p) != except;
            const DirEntry &e = pool_[p >> 1];
            for (unsigned w = 0; w < dirMaskWords; ++w) {
                std::uint64_t bits = e.mask[w];
                if (except / 64 == w)
                    bits &= ~(std::uint64_t{1} << (except % 64));
                if (bits != 0)
                    return true;
            }
            return false;
        }

        /**
         * Remove every sharer of slot @p s except @p except, calling
         * @p f(core) (ascending core order) for each removed one.
         * Erases the slot when the entry empties; returns the count.
         */
        template <typename F>
        unsigned removeOthers(std::size_t s, CoreId except, F &&f)
        {
            std::uint64_t &p = slots_[s].packed;
            if ((p & kOverflow) == 0) {
                if ((p & kHasSharer) == 0)
                    return 0;
                const CoreId id = inlineId(p);
                if (id == except)
                    return 0;
                f(id);
                eraseAt(s);
                return 1;
            }
            const std::uint32_t idx =
                static_cast<std::uint32_t>(p >> 1);
            DirEntry &e = pool_[idx];
            unsigned n = 0;
            for (unsigned w = 0; w < dirMaskWords; ++w) {
                std::uint64_t bits = e.mask[w];
                while (bits != 0) {
                    const unsigned b =
                        static_cast<unsigned>(std::countr_zero(bits));
                    bits &= bits - 1;
                    const CoreId c = w * 64 + b;
                    if (c == except)
                        continue;
                    f(c);
                    e.mask[w] &= ~(std::uint64_t{1} << b);
                    ++n;
                }
            }
            demoteIfSole(s, idx);
            return n;
        }

        /** Lines currently tracked. */
        std::size_t size() const { return used_; }

        void clear()
        {
            for (Slot &s : slots_)
                s.key = 0;
            used_ = 0;
            pool_.clear();
            poolFree_.clear();
        }

        /** Visit every tracked line with its materialized entry. */
        template <typename F>
        void forEach(F &&f) const
        {
            for (const Slot &s : slots_) {
                if (s.key != 0)
                    f(s.key & ~Addr{1}, materialize(s.packed));
            }
        }

      private:
        /** 16-byte table slot; packed is either an inline popcount<=1
         *  entry or an overflow-pool index (kOverflow set). */
        struct Slot
        {
            Addr key = 0; ///< line|1 when occupied, 0 when empty
            std::uint64_t packed = 0;
        };

        static constexpr std::uint64_t kOverflow = 1;  ///< bit 0
        static constexpr std::uint64_t kHasSharer = 2; ///< bit 1
        static constexpr std::uint64_t kOwned = 4;     ///< bit 2
        static constexpr unsigned kIdShift = 3; ///< sharer id bits 3..
        /** Inline sharer-id field width: holds maxDirectoryCores-1. */
        static constexpr std::uint64_t kIdMask = 0x7FF;
        static_assert(maxDirectoryCores - 1 <= kIdMask,
                      "inline sharer id field too narrow");

        static CoreId inlineId(std::uint64_t p)
        {
            return static_cast<CoreId>((p >> kIdShift) & kIdMask);
        }

        DirEntry materialize(std::uint64_t p) const
        {
            if ((p & kOverflow) != 0)
                return pool_[p >> 1];
            DirEntry e;
            if ((p & kHasSharer) != 0) {
                const CoreId id = inlineId(p);
                e.mask[id / 64] |= std::uint64_t{1} << (id % 64);
                if ((p & kOwned) != 0)
                    e.owner = static_cast<int>(id);
            }
            return e;
        }

        std::uint32_t allocPool()
        {
            if (!poolFree_.empty()) {
                const std::uint32_t idx = poolFree_.back();
                poolFree_.pop_back();
                return idx;
            }
            pool_.emplace_back();
            return static_cast<std::uint32_t>(pool_.size() - 1);
        }

        /** Collapse slot @p s's overflow entry back inline once it is
         *  down to one (or zero) sharers, recycling pool record
         *  @p idx; an emptied entry erases the slot. */
        void demoteIfSole(std::size_t s, std::uint32_t idx)
        {
            const DirEntry &e = pool_[idx];
            const unsigned pop = e.popcount();
            if (pop > 1)
                return;
            std::uint64_t repl = 0;
            if (pop == 1) {
                for (unsigned w = 0; w < dirMaskWords; ++w) {
                    if (e.mask[w] != 0) {
                        const std::uint64_t sole =
                            w * 64 + static_cast<unsigned>(
                                         std::countr_zero(e.mask[w]));
                        // Spilled entries are ownerless (see
                        // trackSharer); dirTrack re-grants ownership
                        // after an upgrade.
                        repl = kHasSharer | (sole << kIdShift);
                    }
                }
            }
            poolFree_.push_back(idx);
            slots_[s].packed = repl;
            if (repl == 0)
                eraseAt(s); // no sharers left: drop the slot
        }

        void eraseAt(std::size_t i)
        {
            --used_;
            std::size_t j = i;
            for (;;) {
                j = (j + 1) & mask_;
                if (slots_[j].key == 0)
                    break;
                const std::size_t k = idealSlot(slots_[j].key);
                // Move j's entry into the hole unless its home slot
                // lies cyclically inside (i, j] — then the hole does
                // not break j's probe chain.
                const bool move =
                    j > i ? (k <= i || k > j) : (k <= i && k > j);
                if (move) {
                    slots_[i] = slots_[j];
                    i = j;
                }
            }
            slots_[i].key = 0;
        }

        std::size_t idealSlot(Addr tag) const
        {
            // Fibonacci hashing: the multiply mixes the high bits best,
            // so shift the product down rather than masking its low
            // bits.
            return static_cast<std::size_t>(tag * 0x9e3779b97f4a7c15ull >>
                                            shift_) &
                   mask_;
        }

        void grow(std::size_t n)
        {
            const std::vector<Slot, HugePageAllocator<Slot>> old =
                std::move(slots_);
            slots_.assign(n, Slot{});
            mask_ = n - 1;
            shift_ = 64 - static_cast<unsigned>(std::bit_width(n) - 1);
            used_ = 0;
            for (const Slot &s : old) {
                if (s.key == 0)
                    continue;
                slots_[findOrInsert(s.key & ~Addr{1})].packed = s.packed;
            }
        }

        // Huge-page-backed: 2 MB of slots at 128 cores, probed at
        // hashed (random) indices on nearly every event.
        std::vector<Slot, HugePageAllocator<Slot>> slots_;
        std::size_t mask_ = 0;
        unsigned shift_ = 63;
        std::size_t used_ = 0;
        /** Full-mask records for lines with >= 2 sharers. */
        std::vector<DirEntry> pool_;
        std::vector<std::uint32_t> poolFree_;
    };

    /** Find the core (other than @p except) holding the line in M/E. */
    int findOwner(Addr line, CoreId except) const;

    /** True if any core other than @p except holds the line. */
    bool anyOtherSharer(Addr line, CoreId except) const;

    /** Invalidate the line in every L1 except @p except's. */
    unsigned invalidateOthers(Addr line, CoreId except);

    /** Invalidate the line in every L1 (inclusive back-invalidation). */
    unsigned invalidateAll(Addr line);

    /** Insert into LLC, back-invalidating L1 copies of any LLC victim. */
    void insertLlc(Addr line);

    /** Insert into a core's L1, spilling any dirty victim into the LLC. */
    void insertL1(CoreId core, Addr line, LineState st);

    /** Change a resident L1 line's state, keeping the directory true. */
    void setL1State(CoreId core, Addr line, LineState st);

    /** Directory bookkeeping for an L1 gaining/changing a line. */
    void dirTrack(Addr line, CoreId core, LineState st);

    /** Directory bookkeeping for an L1 dropping a line. */
    void dirUntrack(Addr line, CoreId core);

    /** Fire snoopers for a write transaction on @p line. */
    void notifySnoopers(Addr line, CoreId writer);

    /** Deliver one matching watched range (trace + interposer + call). */
    void deliverSnoop(const WatchedRange &w, Addr line, CoreId writer);

    /** Rebuild the sorted range index after (un)registration. */
    void rebuildWatchIndex();

    MemLatencies lat_;
    std::vector<CacheArray> l1s_;
    CacheArray llc_;
    std::vector<WatchedRange> watches_;
    /** watches_ sorted by lo; valid only while ranges are disjoint. */
    std::vector<WatchedRange> sortedWatches_;
    bool watchesOverlap_ = false;
    DirectoryIndex dir_;
    SnoopInterposer interposer_;
    trace::FlightRecorder *tracer_ = nullptr;
    const EventQueue *clock_ = nullptr;
};

} // namespace mem
} // namespace hyperplane

#endif // HYPERPLANE_MEM_MEMORY_SYSTEM_HH
