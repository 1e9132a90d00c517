/**
 * @file
 * Machine-readable run exports for the fig/bench binaries.
 *
 * Every experiment binary prints human tables; these helpers add a
 * parallel JSON surface (--json <file>) so plots and regressions can
 * consume the same numbers without screen-scraping: SdpResults as one
 * JSON object, load sweeps as named point arrays, and tiny argv
 * helpers shared by the binaries.
 */

#ifndef HYPERPLANE_HARNESS_EXPORT_HH
#define HYPERPLANE_HARNESS_EXPORT_HH

#include <string>
#include <vector>

#include "harness/runner.hh"

namespace hyperplane {
namespace harness {

/** Every SdpResults field as one JSON object (keys snake_case). */
std::string resultsJson(const dp::SdpResults &r);

/**
 * Canonical host/build provenance block shared by every BENCH_*.json
 * writer: {"hardware_concurrency":N,"git_sha":...,"build_type":...,
 * "compiler":...,"cpu_features":...,"simd":{...}} plus "jobs" when
 * nonzero.  One emitter keeps the schema identical across benches so
 * scripts/bench_check.py can key on it.
 */
std::string hostJson(unsigned jobs = 0);

/** One named load sweep (a line of a figure). */
struct NamedSweep
{
    std::string name;
    std::vector<LoadPoint> points;
};

/**
 * A whole figure's sweeps as one JSON document:
 * {"sweeps":[{"name":...,"points":[{"load":...,"results":{...}}]}]}
 */
std::string loadSweepJson(const std::vector<NamedSweep> &sweeps);

/** Value following @p flag in argv, or null if absent/valueless. */
const char *argValue(int argc, char **argv, const char *flag);

/** True if @p flag appears in argv. */
bool argPresent(int argc, char **argv, const char *flag);

/**
 * Write @p text to @p path (overwrites).  Prints a confirmation or a
 * warning; @return true on success.
 */
bool writeTextFile(const std::string &path, const std::string &text);

} // namespace harness
} // namespace hyperplane

#endif // HYPERPLANE_HARNESS_EXPORT_HH
