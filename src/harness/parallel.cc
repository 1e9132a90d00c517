#include "harness/parallel.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "harness/export.hh"

namespace hyperplane {
namespace harness {

unsigned
defaultJobs()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

unsigned
jobsFromArgs(int argc, char **argv)
{
    if (const char *v = argValue(argc, argv, "--jobs")) {
        const long n = std::strtol(v, nullptr, 10);
        return n >= 1 ? static_cast<unsigned>(n) : 1u;
    }
    return defaultJobs();
}

void
parallelFor(std::size_t n, unsigned jobs,
            const std::function<void(std::size_t)> &body)
{
    if (n == 0)
        return;
    if (jobs <= 1 || n == 1) {
        for (std::size_t i = 0; i < n; ++i)
            body(i);
        return;
    }

    std::atomic<std::size_t> next{0};
    std::exception_ptr firstError;
    std::mutex errorMutex;
    std::atomic<bool> failed{false};

    auto worker = [&] {
        for (;;) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n || failed.load(std::memory_order_relaxed))
                return;
            try {
                body(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(errorMutex);
                if (!firstError)
                    firstError = std::current_exception();
                failed.store(true, std::memory_order_relaxed);
                return;
            }
        }
    };

    const std::size_t nThreads =
        std::min<std::size_t>(jobs, n);
    std::vector<std::thread> threads;
    threads.reserve(nThreads);
    for (std::size_t t = 0; t < nThreads; ++t)
        threads.emplace_back(worker);
    for (auto &th : threads)
        th.join();
    if (firstError)
        std::rethrow_exception(firstError);
}

} // namespace harness
} // namespace hyperplane
