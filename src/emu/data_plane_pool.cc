#include "emu/data_plane_pool.hh"

#include "sim/logging.hh"

namespace hyperplane {
namespace emu {

namespace {

thread_local int tlsWorkerIndex = -1;

} // namespace

DataPlanePool::DataPlanePool(EmuHyperPlane &hp, unsigned workers,
                             Handler handler, std::uint64_t maxBatch)
    : hp_(hp), numWorkers_(workers), handler_(std::move(handler)),
      maxBatch_(maxBatch)
{
    hp_assert(workers > 0, "pool needs at least one worker");
    hp_assert(maxBatch > 0, "batch must be at least one item");
    hp_assert(handler_ != nullptr, "pool needs a handler");
}

DataPlanePool::~DataPlanePool()
{
    stop();
}

void
DataPlanePool::start()
{
    if (running_.exchange(true))
        return;
    threads_.reserve(numWorkers_);
    for (unsigned i = 0; i < numWorkers_; ++i)
        threads_.emplace_back([this, i] { workerLoop(i); });
}

void
DataPlanePool::stop()
{
    if (!running_.exchange(false))
        return;
    hp_.close();
    for (auto &t : threads_)
        t.join();
    threads_.clear();
}

int
DataPlanePool::workerIndex()
{
    return tlsWorkerIndex;
}

void
DataPlanePool::workerLoop(unsigned index)
{
    tlsWorkerIndex = static_cast<int>(index);
    while (running_.load(std::memory_order_relaxed)) {
        // Halt until granted: an idle worker never wakes.  Without a
        // timeout, nullopt means stop() closed the device.
        const auto qid = hp_.qwait(EmuHyperPlane::forever);
        if (!qid)
            break;
        const std::uint64_t n = hp_.take(*qid, maxBatch_);
        if (n == 0)
            continue; // spurious grant
        handler_(*qid, n);
        processed_.fetch_add(n, std::memory_order_relaxed);
    }
    tlsWorkerIndex = -1;
}

} // namespace emu
} // namespace hyperplane
