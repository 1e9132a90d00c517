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
 * Coherence queries are served by an explicit directory kept in the
 * inclusive LLC's ways, as real inclusive LLCs keep their core-valid bits:
 * every L1-resident line has an LLC way, and that way's aux word holds
 * the line's sharer set and M/E owner.  Each L1 way's aux word points
 * back at its line's LLC slot.  An L1 miss probes the LLC set once and
 * answers owner/sharer/invalidate queries from that slot; an L1 victim
 * untracks through its back-pointer; an LLC victim's sharers are
 * back-invalidated from the slot before it is refilled.  The directory
 * is a simulator-side index over state the L1 tag arrays already hold:
 * it changes no modelled latency and no simulated number, it only turns
 * the owner/sharer/invalidate sweeps over numCores tag arrays into
 * O(1) bit work so per-event simulation cost stays flat as core count
 * grows (see docs/PERFORMANCE.md).
 *
 * Write transactions that grant exclusive ownership (GetM / upgrade) in a
 * watched address range are reported to registered Snooper objects.  This
 * is the hook HyperPlane's monitoring set uses: it behaves as part of the
 * directory and sees all relevant coherence traffic without being a sharer
 * (Section IV-A of the paper).
 */

#ifndef HYPERPLANE_MEM_MEMORY_SYSTEM_HH
#define HYPERPLANE_MEM_MEMORY_SYSTEM_HH

#include <array>
#include <bit>
#include <functional>
#include <memory>
#include <vector>

#include "mem/cache.hh"
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
 *  wider mask: an LLC way stores one packed word whose inline
 *  single-sharer form is independent of this constant. */
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
    std::uint64_t directoryLines() const { return dirLines_; }

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
    /** Directory queries (owner/sharer/invalidate). */
    mutable stats::Counter dirLookups{"directory_lookups"};
    /** Queries that found the line tracked. */
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
     * the overflow-pool and consistency-check representation; an LLC
     * way stores the packed form below.
     */
    struct DirEntry
    {
        std::array<std::uint64_t, dirMaskWords> mask{};
        int owner = -1;

        unsigned popcount() const
        {
            unsigned n = 0;
            for (const std::uint64_t w : mask)
                n += static_cast<unsigned>(std::popcount(w));
            return n;
        }
    };

    using Slot = CacheArray::Slot;

    /*
     * Packed sharer word, kept in the line's LLC aux word; zero means no
     * L1 holds the line.  MESI lets the entry pack into one word: an
     * M/E owner is always the *sole* sharer, so the overwhelmingly
     * common popcount<=1 entry is {hasSharer, owned, sharer id}, and
     * only lines with two or more sharers in S state spill into a small
     * side pool of full sharer-mask DirEntry records (freelist-recycled,
     * a handful of hot queue-head lines in practice): the word is then
     * (pool index << 1) | kOverflow.
     */
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

    /** Sharer word of LLC slot @p s (zero for noSlot: a line outside
     *  the inclusive LLC has no sharers). */
    std::uint64_t sharersAt(Slot s) const
    {
        return s != CacheArray::noSlot ? llc_.aux(s) : 0;
    }

    /** Add @p core as a sharer in @p p; @p exclusive marks it the M/E
     *  owner (callers guarantee it is then the sole sharer). */
    void trackSharer(std::uint64_t &p, CoreId core, bool exclusive);

    /** Drop @p core as a sharer from @p p. */
    void untrackSharer(std::uint64_t &p, CoreId core);

    /**
     * Remove every sharer in @p p except @p except, invalidating
     * @p line in each removed core's L1 (ascending core order).
     * Returns the count.
     */
    unsigned removeOthers(std::uint64_t &p, Addr line, CoreId except);

    /** Collapse overflow record @p idx back inline into @p p once it is
     *  down to one (or zero) sharers, recycling the record. */
    void demoteIfSole(std::uint64_t &p, std::uint32_t idx);

    std::uint32_t allocPool();

    DirEntry materialize(std::uint64_t p) const;

    /** The core (other than @p except) holding the line whose sharer
     *  word is @p p in M/E, or -1. */
    int findOwner(std::uint64_t p, CoreId except) const;

    /** True if sharer word @p p names any core other than @p except. */
    bool anyOtherSharer(std::uint64_t p, CoreId except) const;

    /** Invalidate @p line (at LLC slot @p s, or noSlot) in every L1
     *  except @p except's. */
    unsigned invalidateOthers(Slot s, Addr line, CoreId except);

    /** Insert into LLC, back-invalidating L1 copies of any LLC victim.
     *  @return the line's LLC slot. */
    Slot insertLlc(Addr line);

    /** Insert into a core's L1 and track it as a sharer of LLC slot
     *  @p llcSlot; any victim is untracked through its back-pointer. */
    void insertL1(CoreId core, Addr line, LineState st, Slot llcSlot);

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
    /** Full-mask records for lines with >= 2 sharers. */
    std::vector<DirEntry> pool_;
    std::vector<std::uint32_t> poolFree_;
    /** LLC lines with at least one L1 sharer. */
    std::uint64_t dirLines_ = 0;
    SnoopInterposer interposer_;
    trace::FlightRecorder *tracer_ = nullptr;
    const EventQueue *clock_ = nullptr;
};

} // namespace mem
} // namespace hyperplane

#endif // HYPERPLANE_MEM_MEMORY_SYSTEM_HH
