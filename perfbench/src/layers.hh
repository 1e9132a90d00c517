/**
 * @file
 * Isolated drives: each times one layer's public API on its own, on the
 * calling thread, after the timed phases have finished.  Every drive
 * returns the median of @p reps repetitions.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <cstdint>

#include "app/app.hh"
#include "traffic/shapes.hh"

namespace perfbench {

/** EventQueue schedule + dispatch of no-op callbacks, ns per event,
 *  with @p pending events outstanding. */
double eventKernelNsPerEvent(unsigned pending, std::uint64_t events,
                             unsigned reps = 5);

/** MemorySystem read/write/atomicRmw mix over @p footprintLines lines
 *  from @p cores cores, ns per access. */
double memNsPerAccess(unsigned cores, std::uint64_t footprintLines,
                      std::uint64_t accesses, std::uint64_t seed,
                      unsigned reps = 5);

/** One notification through the core layer — monitoring-set snoop
 *  match, ready-set activate, arbiter select, re-arm — ns each. */
double coreNsPerNotify(unsigned queues, std::uint64_t notifies,
                       std::uint64_t seed, unsigned reps = 5);

/** ring -> qwait -> take hand-off between two threads on
 *  EmuHyperPlane, wall ns per one-way hand-off. */
double emuHandoffNs(std::uint64_t roundTrips, unsigned reps = 5);

/** MpmcQueue push/pop on one thread, ns per operation. */
double mpmcNsPerOp(std::uint64_t ops, unsigned reps = 5);

/** StatefulHandler::handle on one thread over the given flow set, ns
 *  per request. */
double appNsPerReq(hyperplane::app::AppKind kind, unsigned numFlows,
                   hyperplane::traffic::Shape shape, std::uint64_t seed,
                   std::uint64_t requests, unsigned reps = 5);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
