#include "server/buffer_pool.hh"

#include "sim/logging.hh"

namespace hyperplane {
namespace server {

namespace {

/** Round @p n up to a cache-line multiple so frames never share one. */
std::size_t
roundToCacheLine(std::size_t n)
{
    constexpr std::size_t line = 64;
    return (n + line - 1) / line * line;
}

} // namespace

FramePool::FramePool(std::uint32_t numFrames, std::uint32_t frameBytes)
    : numFrames_(numFrames), frameBytes_(frameBytes),
      stride_(roundToCacheLine(frameBytes)),
      slab_(new std::uint8_t[static_cast<std::size_t>(numFrames) *
                             roundToCacheLine(frameBytes)]),
      refs_(std::make_unique<std::atomic<std::uint32_t>[]>(
          numFrames ? numFrames : 1)),
      freeList_(numFrames)
{
    hp_assert(numFrames > 0, "FramePool needs at least one frame");
    hp_assert(frameBytes >= responseHeadroom,
              "frames must hold at least the response headroom");
    for (std::uint32_t i = 0; i < numFrames; ++i)
        refs_[i].store(0, std::memory_order_relaxed);
}

FrameHandle
FramePool::tryAcquire()
{
    std::uint32_t idx;
    if (!freeList_.tryPop(idx))
        return {};
    refs_[idx].store(1, std::memory_order_relaxed);
    return FrameHandle(this, idx);
}

void
FramePool::releaseIndex(std::uint32_t idx)
{
    freeList_.push(idx);
}

} // namespace server
} // namespace hyperplane
