/**
 * @file
 * Zero-filled, huge-page-backed arrays for large, randomly accessed host
 * tables.
 *
 * The simulator's big flat arrays (the cache tag arrays, whose LLC ways
 * also carry the coherence directory) are probed at random addresses
 * on nearly every simulated event.  Once the combined footprint exceeds
 * the host's second-level TLB reach (a few MB through 4 KiB pages),
 * every probe risks a page walk on top of the data-cache miss, and
 * that cost grows with the simulated core count even though the
 * per-event *operation* count is flat.  Backing arrays of 2 MiB or more
 * with transparent huge pages shrinks a multi-MB table to a handful of
 * TLB entries.
 *
 * Those arrays are mapped fresh from the kernel, which hands out zeroed
 * pages on first touch, so construction writes none of them: building
 * a 16 MB-LLC machine costs no more than mapping it, and pages a run
 * never touches are never made resident.  Smaller arrays, and non-Linux
 * hosts, fall back to calloc.  This is a host-side optimisation only:
 * it cannot change any simulated number.
 */

#ifndef HYPERPLANE_MEM_HUGE_ALLOC_HH
#define HYPERPLANE_MEM_HUGE_ALLOC_HH

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace hyperplane {
namespace mem {

/**
 * Fixed-size array of @p T, zero-filled at construction.  @p T must be
 * an implicit-lifetime type (an integer, say) for which all-zero bytes
 * are the value zero.  Movable, not copyable.
 */
template <typename T>
class HugeArray
{
  public:
    static constexpr std::size_t hugeBytes = std::size_t{2} << 20;

    explicit HugeArray(std::size_t n)
        : n_(n), p_(static_cast<T *>(allocate(n * sizeof(T))))
    {
    }

    ~HugeArray() { release(p_, n_ * sizeof(T)); }

    HugeArray(HugeArray &&o) noexcept
        : n_(std::exchange(o.n_, 0)), p_(std::exchange(o.p_, nullptr))
    {
    }

    HugeArray &operator=(HugeArray &&o) noexcept
    {
        std::swap(n_, o.n_);
        std::swap(p_, o.p_);
        return *this;
    }

    HugeArray(const HugeArray &) = delete;
    HugeArray &operator=(const HugeArray &) = delete;

    T &operator[](std::size_t i) { return p_[i]; }
    const T &operator[](std::size_t i) const { return p_[i]; }
    std::size_t size() const { return n_; }
    T *begin() { return p_; }
    T *end() { return p_ + n_; }

  private:
    static std::size_t rounded(std::size_t bytes)
    {
        return (bytes + hugeBytes - 1) & ~(hugeBytes - 1);
    }

    static void *allocate(std::size_t bytes)
    {
#if defined(__linux__)
        if (bytes >= hugeBytes) {
            // Over-map by one huge page and trim both ends so the array
            // starts on a huge-page boundary.
            const std::size_t len = rounded(bytes);
            void *raw = ::mmap(nullptr, len + hugeBytes,
                               PROT_READ | PROT_WRITE,
                               MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
            if (raw == MAP_FAILED)
                throw std::bad_alloc{};
            const auto lo = reinterpret_cast<std::uintptr_t>(raw);
            const std::uintptr_t start =
                (lo + hugeBytes - 1) & ~(hugeBytes - 1);
            if (start > lo)
                ::munmap(raw, start - lo);
            const std::uintptr_t tail = start + len;
            if (lo + len + hugeBytes > tail)
                ::munmap(reinterpret_cast<void *>(tail),
                         lo + len + hugeBytes - tail);
            void *p = reinterpret_cast<void *>(start);
#if defined(MADV_HUGEPAGE)
            (void)::madvise(p, len, MADV_HUGEPAGE);
#endif
            return p;
        }
#endif
        void *p = std::calloc(bytes > 0 ? bytes : 1, 1);
        if (p == nullptr)
            throw std::bad_alloc{};
        return p;
    }

    static void release(void *p, std::size_t bytes)
    {
        if (p == nullptr)
            return;
#if defined(__linux__)
        if (bytes >= hugeBytes) {
            ::munmap(p, rounded(bytes));
            return;
        }
#endif
        std::free(p);
    }

    std::size_t n_;
    T *p_;
};

} // namespace mem
} // namespace hyperplane

#endif // HYPERPLANE_MEM_HUGE_ALLOC_HH
