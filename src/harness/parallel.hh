/**
 * @file
 * Work-queue thread pool for independent sweep points.
 *
 * Every experiment in the suite is a grid of independent simulations:
 * each point builds its own SdpSystem (private EventQueue, seeded RNG,
 * stats Registry), so points can run on any thread in any order and the
 * merged output — written in deterministic grid order — is bit-identical
 * to a sequential run.  parallelFor() is the only primitive; the sweep
 * helpers in runner.hh build on it.
 *
 * All benches accept `--jobs N` (default: hardware concurrency);
 * `--jobs 1` takes the inline path and reproduces the historical
 * sequential behaviour exactly.
 */

#ifndef HYPERPLANE_HARNESS_PARALLEL_HH
#define HYPERPLANE_HARNESS_PARALLEL_HH

#include <cstddef>
#include <functional>

namespace hyperplane {
namespace harness {

/** Hardware concurrency, clamped to at least 1. */
unsigned defaultJobs();

/**
 * Parse `--jobs N` from the command line.
 *
 * @return N if present, with any N below 1 meaning 1 (sequential);
 *         defaultJobs() when the flag is absent.
 */
unsigned jobsFromArgs(int argc, char **argv);

/**
 * Invoke @p body(i) for every i in [0, n), distributing indices across
 * @p jobs worker threads via a shared atomic counter.
 *
 * @p jobs <= 1 runs inline on the calling thread in index order (no
 * threads are created).  The first exception thrown by any @p body call
 * is rethrown on the calling thread after all workers join; remaining
 * indices may be skipped once an exception is pending.
 *
 * @p body must make each index self-contained: no shared mutable state
 * except what it owns for index i.
 */
void parallelFor(std::size_t n, unsigned jobs,
                 const std::function<void(std::size_t)> &body);

} // namespace harness
} // namespace hyperplane

#endif // HYPERPLANE_HARNESS_PARALLEL_HH
