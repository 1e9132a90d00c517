/**
 * @file
 * A worker pool running the QWAIT service loop on real threads.
 *
 * DataPlanePool is the scale-up organization of Section III-B for the
 * software front-end: N data-plane threads share one EmuHyperPlane (all
 * queues visible to all workers), each looping
 * QWAIT -> take -> handler.  Applications provide only the per-batch
 * handler; registration and producers use the EmuHyperPlane directly.
 */

#ifndef HYPERPLANE_EMU_DATA_PLANE_POOL_HH
#define HYPERPLANE_EMU_DATA_PLANE_POOL_HH

#include <atomic>
#include <functional>
#include <thread>
#include <vector>

#include "emu/emu_hyperplane.hh"

namespace hyperplane {
namespace emu {

/** Shared-queue worker pool over a software QWAIT device. */
class DataPlanePool
{
  public:
    /**
     * Called with (qid, claimed) for every non-empty take(); runs on a
     * worker thread and must be thread-safe across queues (per-queue
     * calls may still interleave unless the application serializes —
     * see the paper's in-order discussion).
     */
    using Handler = std::function<void(QueueId, std::uint64_t)>;

    /**
     * @param hp       The shared notification device.
     * @param workers  Data-plane threads to run.
     * @param handler  Batch handler.
     * @param maxBatch Items claimed per QWAIT grant.
     */
    DataPlanePool(EmuHyperPlane &hp, unsigned workers, Handler handler,
                  std::uint64_t maxBatch = 16);

    /** Stops and joins all workers. */
    ~DataPlanePool();

    DataPlanePool(const DataPlanePool &) = delete;
    DataPlanePool &operator=(const DataPlanePool &) = delete;

    /** Launch the workers. No-op if already running. */
    void start();

    /**
     * Signal and join the workers.  Idempotent.  In-flight batches
     * finish; pending doorbells may be left unserved.  When this
     * returns, the threads are joined and no handler will run again.
     * The workers park with no timeout, so this closes the device
     * (EmuHyperPlane::close()) to release them: a stopped pool cannot
     * be restarted on the same device.
     */
    void stop();

    bool running() const { return running_; }
    unsigned workers() const
    {
        return static_cast<unsigned>(threads_.size());
    }

    /** Items handled across all workers so far. */
    std::uint64_t processed() const
    {
        return processed_.load(std::memory_order_relaxed);
    }

    /**
     * Index of the calling pool worker in [0, workers()), or -1 when
     * called from a thread that is not a pool worker.  Lets handlers
     * keep per-worker state (trace tracks, sharded counters) without
     * locking.
     */
    static int workerIndex();

  private:
    void workerLoop(unsigned index);

    EmuHyperPlane &hp_;
    unsigned numWorkers_;
    Handler handler_;
    std::uint64_t maxBatch_;
    std::atomic<bool> running_{false};
    std::atomic<std::uint64_t> processed_{0};
    std::vector<std::thread> threads_;
};

} // namespace emu
} // namespace hyperplane

#endif // HYPERPLANE_EMU_DATA_PLANE_POOL_HH
