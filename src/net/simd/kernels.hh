/**
 * @file
 * Internal linkage between the dispatch table and the per-ISA kernel
 * translation units.  Each ISA lives in its own TU compiled with that
 * ISA's -m flag, so the compiler may only emit those instructions
 * inside functions the runtime probe has already cleared; the provider
 * functions below return null when the TU was built without the ISA.
 * Not installed; include dispatch.hh instead.
 */

#ifndef HYPERPLANE_NET_SIMD_KERNELS_HH
#define HYPERPLANE_NET_SIMD_KERNELS_HH

#include "net/simd/dispatch.hh"

namespace hyperplane {
namespace net {
namespace simd {
namespace detail {

// Scalar reference kernels (always compiled).
std::uint32_t checksumPartialScalar(const std::uint8_t *data,
                                    std::size_t len, std::uint32_t sum);
std::uint32_t crc32cScalar(const std::uint8_t *data, std::size_t len,
                           std::uint32_t seed);
void headerCheckScalar(const std::uint8_t *const *pkts,
                       const std::uint32_t *lens, std::size_t n,
                       const std::uint8_t *prefix,
                       std::uint8_t opcodeLimit, std::uint32_t minLen,
                       std::uint8_t *ok);

// ISA providers: the kernel pointer when the TU was compiled with the
// ISA enabled, null otherwise.  Runtime CPU support is the dispatch
// layer's problem, not theirs.
ChecksumPartialFn checksumPartialSse2Compiled();
ChecksumPartialFn checksumPartialAvx2Compiled();
Crc32cFn crc32cSse42Compiled();
HeaderCheckFn headerCheckSse2Compiled();

} // namespace detail
} // namespace simd
} // namespace net
} // namespace hyperplane

#endif // HYPERPLANE_NET_SIMD_KERNELS_HH
