/**
 * @file
 * Runtime ISA dispatch for the per-packet hot-path kernels.
 *
 * The three per-packet costs the UDP data plane pays on every datagram
 * — the RFC 1071 checksum, the CRC32C flow hash, and the wire-header
 * prefix validation — each exist in a scalar reference form plus SIMD
 * variants (SSE2 / SSE4.2 crc32 / AVX2).  A one-time cpuid probe picks
 * the fastest variant the host supports and publishes it through a
 * function-pointer table; callers go through net::checksumPartial /
 * net::crc32c / wire::precheckRequests and never see the variants.
 *
 * Every SIMD variant is bit-exact with its scalar reference — not just
 * the finished value but the *raw running sum* of checksumPartial, so
 * differential tests compare partial sums directly and chained
 * computations are variant-independent.  (The checksum kernels byteswap
 * 16-bit lanes in-register and accumulate into 32-bit lanes; addition
 * mod 2^32 is commutative, so any partition of the words matches the
 * scalar left-to-right sum.)
 *
 * `HYPERPLANE_FORCE_SCALAR=1` in the environment pins the table to the
 * scalar kernels — the differential-testing escape hatch CI's
 * forced-scalar leg uses.  The probe runs once on first use; tests that
 * toggle the variable call refreshDispatch() (not safe concurrently
 * with hot-path traffic).
 */

#ifndef HYPERPLANE_NET_SIMD_DISPATCH_HH
#define HYPERPLANE_NET_SIMD_DISPATCH_HH

#include <cstddef>
#include <cstdint>

namespace hyperplane {
namespace net {
namespace simd {

/** Host CPU capabilities relevant to the kernel layer (cpuid probe). */
struct CpuFeatures
{
    bool sse2 = false;
    bool sse42 = false;
    bool avx2 = false;
};

/** Probed once; constant for the process lifetime. */
const CpuFeatures &cpuFeatures();

/**
 * Raw RFC 1071 partial sum over @p len bytes folded into @p sum.
 * Identical contract (including the odd-final-chunk rule) and identical
 * result, bit for bit, across every variant.
 */
using ChecksumPartialFn = std::uint32_t (*)(const std::uint8_t *data,
                                            std::size_t len,
                                            std::uint32_t sum);

/** CRC32C (Castagnoli, reflected, init ~seed) — table or SSE4.2 crc32. */
using Crc32cFn = std::uint32_t (*)(const std::uint8_t *data,
                                   std::size_t len, std::uint32_t seed);

/**
 * Batched wire-header prefix validation.  For each packet i:
 *
 *   ok[i] = lens[i] >= minLen
 *           && pkts[i][0..4] == prefix[0..4]
 *           && pkts[i][5] < opcodeLimit
 *
 * @p prefix supplies 8 bytes (bytes 5..7 ignored).  @p minLen must be
 * >= 8 so a passing length guarantees an 8-byte load is in bounds.
 */
using HeaderCheckFn = void (*)(const std::uint8_t *const *pkts,
                               const std::uint32_t *lens, std::size_t n,
                               const std::uint8_t *prefix,
                               std::uint8_t opcodeLimit,
                               std::uint32_t minLen, std::uint8_t *ok);

/** The active kernel set plus its provenance for telemetry. */
struct KernelTable
{
    ChecksumPartialFn checksumPartial = nullptr;
    Crc32cFn crc32c = nullptr;
    HeaderCheckFn headerCheck = nullptr;

    /** Variant names ("scalar", "sse2", "avx2", "sse4.2"). */
    const char *checksumName = "scalar";
    const char *crc32cName = "scalar";
    const char *headerCheckName = "scalar";

    /** Numeric variant ids for metrics (0 scalar, 1 sse2/sse4.2, 2 avx2). */
    int checksumLevel = 0;
    int crc32cLevel = 0;
    int headerCheckLevel = 0;

    /** True when HYPERPLANE_FORCE_SCALAR pinned the table. */
    bool forcedScalar = false;
};

/** The dispatched table (probe + env override applied on first use). */
const KernelTable &kernels();

/** The scalar reference table (always available, never overridden). */
const KernelTable &scalarKernels();

/**
 * Re-run the probe + HYPERPLANE_FORCE_SCALAR read.  Test hook: NOT safe
 * while other threads are in the hot path.
 */
void refreshDispatch();

// Per-ISA kernel accessors for differential tests and micro-benches.
// Null when the build or the host CPU lacks the ISA; the dispatched
// table never points at a null variant.
ChecksumPartialFn checksumPartialSse2();
ChecksumPartialFn checksumPartialAvx2();
Crc32cFn crc32cSse42();
HeaderCheckFn headerCheckSse2();

} // namespace simd
} // namespace net
} // namespace hyperplane

#endif // HYPERPLANE_NET_SIMD_DISPATCH_HH
