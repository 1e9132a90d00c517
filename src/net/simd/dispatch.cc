#include "net/simd/dispatch.hh"

#include <cstdlib>
#include <cstring>
#include <mutex>

#include "net/simd/kernels.hh"

namespace hyperplane {
namespace net {
namespace simd {

namespace {

CpuFeatures
probeCpu()
{
    CpuFeatures f;
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
    __builtin_cpu_init();
    f.sse2 = __builtin_cpu_supports("sse2");
    f.sse42 = __builtin_cpu_supports("sse4.2");
    f.avx2 = __builtin_cpu_supports("avx2");
#endif
    return f;
}

bool
envForceScalar()
{
    const char *v = std::getenv("HYPERPLANE_FORCE_SCALAR");
    return v != nullptr && *v != '\0' && std::strcmp(v, "0") != 0;
}

KernelTable
makeScalarTable()
{
    KernelTable t;
    t.checksumPartial = &detail::checksumPartialScalar;
    t.crc32c = &detail::crc32cScalar;
    t.headerCheck = &detail::headerCheckScalar;
    return t;
}

KernelTable
makeDispatchedTable()
{
    KernelTable t = makeScalarTable();
    if (envForceScalar()) {
        t.forcedScalar = true;
        return t;
    }
    const CpuFeatures &f = cpuFeatures();
    if (f.sse2) {
        if (auto fn = detail::checksumPartialSse2Compiled()) {
            t.checksumPartial = fn;
            t.checksumName = "sse2";
            t.checksumLevel = 1;
        }
        if (auto fn = detail::headerCheckSse2Compiled()) {
            t.headerCheck = fn;
            t.headerCheckName = "sse2";
            t.headerCheckLevel = 1;
        }
    }
    if (f.sse42) {
        if (auto fn = detail::crc32cSse42Compiled()) {
            t.crc32c = fn;
            t.crc32cName = "sse4.2";
            t.crc32cLevel = 1;
        }
    }
    if (f.avx2) {
        if (auto fn = detail::checksumPartialAvx2Compiled()) {
            t.checksumPartial = fn;
            t.checksumName = "avx2";
            t.checksumLevel = 2;
        }
    }
    return t;
}

KernelTable g_active;
std::once_flag g_once;

} // namespace

const CpuFeatures &
cpuFeatures()
{
    static const CpuFeatures f = probeCpu();
    return f;
}

const KernelTable &
kernels()
{
    std::call_once(g_once, [] { g_active = makeDispatchedTable(); });
    return g_active;
}

const KernelTable &
scalarKernels()
{
    static const KernelTable t = makeScalarTable();
    return t;
}

void
refreshDispatch()
{
    kernels(); // ensure the once-flag is consumed first
    g_active = makeDispatchedTable();
}

ChecksumPartialFn
checksumPartialSse2()
{
    return cpuFeatures().sse2 ? detail::checksumPartialSse2Compiled()
                              : nullptr;
}

ChecksumPartialFn
checksumPartialAvx2()
{
    return cpuFeatures().avx2 ? detail::checksumPartialAvx2Compiled()
                              : nullptr;
}

Crc32cFn
crc32cSse42()
{
    return cpuFeatures().sse42 ? detail::crc32cSse42Compiled()
                               : nullptr;
}

HeaderCheckFn
headerCheckSse2()
{
    return cpuFeatures().sse2 ? detail::headerCheckSse2Compiled()
                              : nullptr;
}

} // namespace simd
} // namespace net
} // namespace hyperplane
