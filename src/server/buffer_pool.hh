/**
 * @file
 * Slab frame pool + refcounted frame handle: the zero-copy datagram
 * path's memory.
 *
 * Each RX shard owns a FramePool.  recvmmsg scatters datagrams
 * straight into pool frames, the parsed Request carries a FrameHandle
 * through the MPMC queues instead of a std::vector payload copy, the
 * worker builds the response *in the same frame*, and TX sendmmsg's
 * from it before the handle's release returns the frame to the pool.
 *
 * The RX offset trick makes the echo path copy-free: a response header
 * (36 bytes) is exactly responseHeadroom = 4 bytes longer than a
 * request header (32 bytes), so RX receives at frame + 4 and the
 * worker writes the response header at frame + 0 — the request payload
 * bytes at frame + 36 are already exactly where the response payload
 * belongs and never move.
 *
 * Frames are fixed-size slots in one slab allocation; the free list is
 * a lock-free index stack (queueing::FreeIndexStack), so acquire and
 * release are one CAS each from any thread.  Exhaustion is a graceful
 * condition — the server answers with a typed shed reject from a small
 * reserve pool instead of crashing or silently dropping — and the
 * server counts it, like every payload copy, in its counter matrix.
 */

#ifndef HYPERPLANE_SERVER_BUFFER_POOL_HH
#define HYPERPLANE_SERVER_BUFFER_POOL_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "queueing/free_stack.hh"

namespace hyperplane {
namespace server {

class FramePool;

/**
 * Refcounted handle to one pool frame.  Copying shares the frame
 * (refcount increment); the last handle's destruction returns the
 * frame to the pool's free list.  A default-constructed handle is
 * null.
 */
class FrameHandle
{
  public:
    FrameHandle() = default;
    ~FrameHandle() { release(); }

    FrameHandle(const FrameHandle &other) : pool_(other.pool_), idx_(other.idx_)
    {
        if (pool_)
            addRef();
    }

    FrameHandle &operator=(const FrameHandle &other)
    {
        if (this != &other) {
            release();
            pool_ = other.pool_;
            idx_ = other.idx_;
            if (pool_)
                addRef();
        }
        return *this;
    }

    FrameHandle(FrameHandle &&other) noexcept
        : pool_(other.pool_), idx_(other.idx_)
    {
        other.pool_ = nullptr;
    }

    FrameHandle &operator=(FrameHandle &&other) noexcept
    {
        if (this != &other) {
            release();
            pool_ = other.pool_;
            idx_ = other.idx_;
            other.pool_ = nullptr;
        }
        return *this;
    }

    explicit operator bool() const { return pool_ != nullptr; }

    /** Frame bytes (frameBytes() of them). Null handle: nullptr. */
    std::uint8_t *data();
    const std::uint8_t *data() const;

    /** Capacity of the frame in bytes. */
    std::uint32_t capacity() const;

    /** Drop this reference now (handle becomes null). */
    void reset() { release(); }

  private:
    friend class FramePool;
    FrameHandle(FramePool *pool, std::uint32_t idx)
        : pool_(pool), idx_(idx)
    {
    }

    void addRef();
    void release();

    FramePool *pool_ = nullptr;
    std::uint32_t idx_ = 0;
};

/** Fixed-size frame slab with a lock-free free list. */
class FramePool
{
  public:
    /**
     * Extra bytes a response header needs over a request header; RX
     * receives at data() + responseHeadroom so the response can be
     * built at data() + 0 without moving the payload.
     */
    static constexpr std::uint32_t responseHeadroom = 4;

    /**
     * @param numFrames  Frames in the slab (all free initially).
     * @param frameBytes Usable bytes per frame.
     */
    FramePool(std::uint32_t numFrames, std::uint32_t frameBytes);

    FramePool(const FramePool &) = delete;
    FramePool &operator=(const FramePool &) = delete;

    /** Take a free frame (refcount 1).  Null handle on exhaustion. */
    FrameHandle tryAcquire();

    std::uint32_t numFrames() const { return numFrames_; }
    std::uint32_t frameBytes() const { return frameBytes_; }

    /** Free frames right now (approximate under concurrency). */
    std::uint32_t freeFrames() const { return freeList_.approxSize(); }

  private:
    friend class FrameHandle;

    std::uint8_t *frameData(std::uint32_t idx)
    {
        return slab_.get() + static_cast<std::size_t>(idx) * stride_;
    }
    std::atomic<std::uint32_t> &refs(std::uint32_t idx)
    {
        return refs_[idx];
    }
    void releaseIndex(std::uint32_t idx);

    std::uint32_t numFrames_;
    std::uint32_t frameBytes_;
    std::size_t stride_;
    std::unique_ptr<std::uint8_t[]> slab_;
    std::unique_ptr<std::atomic<std::uint32_t>[]> refs_;
    queueing::FreeIndexStack freeList_;
};

inline std::uint8_t *
FrameHandle::data()
{
    return pool_ ? pool_->frameData(idx_) : nullptr;
}

inline const std::uint8_t *
FrameHandle::data() const
{
    return pool_ ? pool_->frameData(idx_) : nullptr;
}

inline std::uint32_t
FrameHandle::capacity() const
{
    return pool_ ? pool_->frameBytes() : 0;
}

inline void
FrameHandle::addRef()
{
    pool_->refs(idx_).fetch_add(1, std::memory_order_relaxed);
}

inline void
FrameHandle::release()
{
    if (!pool_)
        return;
    FramePool *pool = pool_;
    pool_ = nullptr;
    if (pool->refs(idx_).fetch_sub(1, std::memory_order_acq_rel) == 1)
        pool->releaseIndex(idx_);
}

} // namespace server
} // namespace hyperplane

#endif // HYPERPLANE_SERVER_BUFFER_POOL_HH
