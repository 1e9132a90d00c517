#include "telemetry/build_info.hh"

#include <string>

#include "net/simd/dispatch.hh"

// CMake passes these as compile definitions on the hp_telemetry
// target; the fallbacks keep non-CMake builds (and IDE parses)
// working.
#ifndef HP_GIT_SHA
#define HP_GIT_SHA "unknown"
#endif
#ifndef HP_BUILD_TYPE
#define HP_BUILD_TYPE "unspecified"
#endif

namespace hyperplane {
namespace telemetry {

namespace {

// Probed at first use; the string outlives every BuildInfo consumer.
const char *
cpuFeatureList()
{
    static const std::string list = [] {
        const auto &f = net::simd::cpuFeatures();
        std::string s;
        if (f.sse2)
            s += "sse2,";
        if (f.sse42)
            s += "sse4.2,";
        if (f.avx2)
            s += "avx2,";
        if (s.empty())
            return std::string("none");
        s.pop_back();
        return s;
    }();
    return list.c_str();
}

} // namespace

const BuildInfo &
buildInfo()
{
    const auto &k = net::simd::kernels();
    static const BuildInfo info{
        HP_GIT_SHA,
        HP_BUILD_TYPE,
#if defined(__VERSION__)
        __VERSION__,
#else
        "unknown",
#endif
        cpuFeatureList(),
        k.checksumName,
        k.crc32cName,
        k.headerCheckName,
        k.forcedScalar,
    };
    return info;
}

} // namespace telemetry
} // namespace hyperplane
