/**
 * @file
 * Build provenance exposed on the metrics endpoint: git SHA, build
 * type, compiler, and the dispatched SIMD kernels.  The values are
 * baked in at compile time (the SHA via a CMake configure step), so a
 * scrape of a running server identifies exactly what binary is
 * serving.
 */

#ifndef HYPERPLANE_TELEMETRY_BUILD_INFO_HH
#define HYPERPLANE_TELEMETRY_BUILD_INFO_HH

namespace hyperplane {
namespace telemetry {

struct BuildInfo
{
    const char *gitSha;         ///< short commit hash or "unknown"
    const char *buildType;      ///< CMAKE_BUILD_TYPE or "unspecified"
    const char *compiler;       ///< compiler version string
    const char *cpuFeatures;    ///< probed ISA set, e.g. "sse2,sse4.2,avx2"
    const char *simdChecksum;   ///< dispatched checksum variant name
    const char *simdCrc32c;     ///< dispatched crc32c variant name
    const char *simdHeaderCheck; ///< dispatched header-check variant name
    bool forcedScalar;          ///< HYPERPLANE_FORCE_SCALAR pinned the table
};

const BuildInfo &buildInfo();

} // namespace telemetry
} // namespace hyperplane

#endif // HYPERPLANE_TELEMETRY_BUILD_INFO_HH
