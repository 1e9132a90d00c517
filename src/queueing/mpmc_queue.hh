/**
 * @file
 * A real (not simulated) bounded multi-producer multi-consumer queue.
 *
 * The UDP server's RX threads (many producers) hand parsed requests to
 * the QWAIT worker pool (many consumers) through one of these per flow
 * queue; the notification that work exists travels separately, through
 * the EmuHyperPlane doorbell.  Throughput needs are modest (the doorbell
 * device is the bottleneck by design), so this is the boring correct
 * structure: mutex + deque, with monotonic push/pop counters readable
 * without the lock, so size() (their difference) never takes it.
 */

#ifndef HYPERPLANE_QUEUEING_MPMC_QUEUE_HH
#define HYPERPLANE_QUEUEING_MPMC_QUEUE_HH

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <vector>

namespace hyperplane {
namespace queueing {

/**
 * Bounded mutex-based MPMC queue.
 *
 * @tparam T Element type; moved in and out.
 */
template <typename T>
class MpmcQueue
{
  public:
    /** @param capacity Maximum queued elements (> 0). */
    explicit MpmcQueue(std::size_t capacity) : capacity_(capacity) {}

    MpmcQueue(const MpmcQueue &) = delete;
    MpmcQueue &operator=(const MpmcQueue &) = delete;

    /**
     * Enqueue one element.
     * @return false if the queue is full (element not consumed).
     */
    bool
    tryPush(T &&value)
    {
        {
            std::lock_guard<std::mutex> lock(m_);
            if (items_.size() >= capacity_)
                return false;
            items_.push_back(std::move(value));
        }
        pushed_.fetch_add(1, std::memory_order_release);
        return true;
    }

    /** Dequeue one element, or std::nullopt if empty. */
    std::optional<T>
    tryPop()
    {
        std::optional<T> out;
        {
            std::lock_guard<std::mutex> lock(m_);
            if (items_.empty())
                return std::nullopt;
            out.emplace(std::move(items_.front()));
            items_.pop_front();
        }
        popped_.fetch_add(1, std::memory_order_release);
        return out;
    }

    /**
     * Dequeue up to @p max elements into @p out (appended).
     * @return Number dequeued.
     */
    std::size_t
    popBatch(std::vector<T> &out, std::size_t max)
    {
        std::size_t n = 0;
        {
            std::lock_guard<std::mutex> lock(m_);
            while (n < max && !items_.empty()) {
                out.push_back(std::move(items_.front()));
                items_.pop_front();
                ++n;
            }
        }
        if (n)
            popped_.fetch_add(n, std::memory_order_release);
        return n;
    }

    /** Lock-free approximate occupancy (exact when quiescent). */
    std::size_t
    size() const
    {
        const std::uint64_t pushed =
            pushed_.load(std::memory_order_acquire);
        const std::uint64_t popped =
            popped_.load(std::memory_order_acquire);
        return pushed >= popped
                   ? static_cast<std::size_t>(pushed - popped)
                   : 0;
    }

    bool empty() const { return size() == 0; }
    std::size_t capacity() const { return capacity_; }

  private:
    const std::size_t capacity_;
    mutable std::mutex m_;
    std::deque<T> items_;
    std::atomic<std::uint64_t> pushed_{0};
    std::atomic<std::uint64_t> popped_{0};
};

} // namespace queueing
} // namespace hyperplane

#endif // HYPERPLANE_QUEUEING_MPMC_QUEUE_HH
