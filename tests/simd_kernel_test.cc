/**
 * @file
 * Differential tests for the SIMD kernel layer: every variant the build
 * compiled and the host supports must be bit-identical to the scalar
 * reference — raw partial sums included, not just finished values —
 * over randomized lengths, alignments, and seeds.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "net/checksum.hh"
#include "net/simd/dispatch.hh"

namespace hyperplane {
namespace net {
namespace {

/** Deterministic fill with all byte values represented. */
std::vector<std::uint8_t>
randomBytes(std::mt19937 &rng, std::size_t n)
{
    std::vector<std::uint8_t> v(n);
    for (auto &b : v)
        b = static_cast<std::uint8_t>(rng());
    return v;
}

TEST(SimdDispatch, TableIsPopulated)
{
    const simd::KernelTable &k = simd::kernels();
    ASSERT_NE(k.checksumPartial, nullptr);
    ASSERT_NE(k.crc32c, nullptr);
    ASSERT_NE(k.headerCheck, nullptr);
    EXPECT_GE(k.checksumLevel, 0);
    EXPECT_LE(k.checksumLevel, 2);
}

TEST(SimdDispatch, ScalarTableIsScalar)
{
    const simd::KernelTable &s = simd::scalarKernels();
    EXPECT_STREQ(s.checksumName, "scalar");
    EXPECT_STREQ(s.crc32cName, "scalar");
    EXPECT_STREQ(s.headerCheckName, "scalar");
    EXPECT_EQ(s.checksumLevel, 0);
    EXPECT_EQ(s.crc32cLevel, 0);
    EXPECT_EQ(s.headerCheckLevel, 0);
}

TEST(SimdDispatch, ForceScalarEnvPinsTheTable)
{
    // Snapshot, force, refresh, verify, restore, refresh.  Not run
    // concurrently with hot-path traffic (single-threaded test binary).
    const char *old = std::getenv("HYPERPLANE_FORCE_SCALAR");
    const std::string saved = old ? old : "";
    ::setenv("HYPERPLANE_FORCE_SCALAR", "1", 1);
    simd::refreshDispatch();
    EXPECT_TRUE(simd::kernels().forcedScalar);
    EXPECT_EQ(simd::kernels().checksumLevel, 0);
    EXPECT_STREQ(simd::kernels().checksumName, "scalar");
    if (old)
        ::setenv("HYPERPLANE_FORCE_SCALAR", saved.c_str(), 1);
    else
        ::unsetenv("HYPERPLANE_FORCE_SCALAR");
    simd::refreshDispatch();
    // "0" and unset both mean no forcing.
    if (!old || saved == "0")
        EXPECT_FALSE(simd::kernels().forcedScalar);
}

TEST(SimdChecksum, VariantsMatchScalarRawSums)
{
    // The strong property: raw partial sums are bit-identical for every
    // (length, offset, initial sum), so chains mix variants freely.
    const simd::ChecksumPartialFn scalar =
        simd::scalarKernels().checksumPartial;
    const simd::ChecksumPartialFn variants[] = {
        simd::kernels().checksumPartial,
        simd::checksumPartialSse2(),
        simd::checksumPartialAvx2(),
    };
    std::mt19937 rng(0xc0ffee);
    const auto buf = randomBytes(rng, 4096 + 64);
    for (int iter = 0; iter < 3000; ++iter) {
        const std::size_t off = rng() % 64;
        const std::size_t len = rng() % 4096;
        const std::uint32_t init = rng();
        const std::uint32_t want = scalar(buf.data() + off, len, init);
        for (const auto fn : variants) {
            if (!fn)
                continue;
            ASSERT_EQ(fn(buf.data() + off, len, init), want)
                << "len=" << len << " off=" << off << " init=" << init;
        }
    }
}

TEST(SimdChecksum, DispatchedFinishedValueMatchesReference)
{
    // End-to-end through the public API (whatever variant dispatched).
    std::mt19937 rng(0xfeed);
    for (int iter = 0; iter < 200; ++iter) {
        const std::size_t len = rng() % 1500;
        const auto buf = randomBytes(rng, len + 1);
        std::uint64_t sum = 0;
        for (std::size_t i = 0; i < len; i += 2) {
            const std::uint32_t hi = buf[i];
            const std::uint32_t lo = i + 1 < len ? buf[i + 1] : 0;
            sum += (hi << 8) | lo;
        }
        while (sum >> 16)
            sum = (sum & 0xffff) + (sum >> 16);
        EXPECT_EQ(internetChecksum(buf.data(), len),
                  static_cast<std::uint16_t>(~sum & 0xffff))
            << "len=" << len;
    }
}

TEST(SimdCrc32c, VariantsMatchScalar)
{
    const simd::Crc32cFn scalar = simd::scalarKernels().crc32c;
    const simd::Crc32cFn hw = simd::crc32cSse42();
    std::mt19937 rng(0xdead);
    const auto buf = randomBytes(rng, 2048 + 32);
    for (int iter = 0; iter < 2000; ++iter) {
        const std::size_t off = rng() % 32;
        const std::size_t len = rng() % 2048;
        const std::uint32_t seed = rng();
        const std::uint32_t want = scalar(buf.data() + off, len, seed);
        ASSERT_EQ(simd::kernels().crc32c(buf.data() + off, len, seed),
                  want);
        if (hw)
            ASSERT_EQ(hw(buf.data() + off, len, seed), want)
                << "len=" << len << " off=" << off;
    }
}

TEST(SimdCrc32c, StandardCheckStringOnEveryVariant)
{
    const std::string s = "123456789";
    const auto *p = reinterpret_cast<const std::uint8_t *>(s.data());
    EXPECT_EQ(simd::scalarKernels().crc32c(p, s.size(), 0), 0xe3069283u);
    EXPECT_EQ(simd::kernels().crc32c(p, s.size(), 0), 0xe3069283u);
    if (const auto hw = simd::crc32cSse42())
        EXPECT_EQ(hw(p, s.size(), 0), 0xe3069283u);
}

TEST(SimdChecksum, SplicedMatchesTwoCallPattern)
{
    // checksumSpliced(data, len, holeOff) == the partial/partial chain
    // skipping the 2-byte hole, for every even hole offset.
    std::mt19937 rng(0xbeef);
    for (int iter = 0; iter < 100; ++iter) {
        const std::size_t len = 2 * (2 + rng() % 700); // even, >= 4
        const auto buf = randomBytes(rng, len);
        const std::size_t hole = 2 * (rng() % (len / 2 - 1));
        std::uint32_t sum = checksumPartial(buf.data(), hole, 0);
        sum = checksumPartial(buf.data() + hole + 2, len - hole - 2,
                              sum);
        EXPECT_EQ(checksumSpliced(buf.data(), len, hole),
                  finishChecksum(sum))
            << "len=" << len << " hole=" << hole;
    }
}

/** Scalar model of the header-check contract. */
void
referenceHeaderCheck(const std::uint8_t *const *pkts,
                     const std::uint32_t *lens, std::size_t n,
                     const std::uint8_t *prefix,
                     std::uint8_t opcodeLimit, std::uint32_t minLen,
                     std::uint8_t *ok)
{
    for (std::size_t i = 0; i < n; ++i) {
        ok[i] = lens[i] >= minLen &&
                std::memcmp(pkts[i], prefix, 5) == 0 &&
                pkts[i][5] < opcodeLimit;
    }
}

TEST(SimdHeaderCheck, VariantsMatchReference)
{
    const std::uint8_t prefix[8] = {'H', 'P', 'R', 'Q', 1, 0, 0, 0};
    std::mt19937 rng(0xabcd);
    const simd::HeaderCheckFn variants[] = {
        simd::scalarKernels().headerCheck,
        simd::kernels().headerCheck,
        simd::headerCheckSse2(),
    };
    for (int iter = 0; iter < 300; ++iter) {
        const std::size_t n = 1 + rng() % 37;
        std::vector<std::vector<std::uint8_t>> storage(n);
        std::vector<const std::uint8_t *> pkts(n);
        std::vector<std::uint32_t> lens(n);
        for (std::size_t i = 0; i < n; ++i) {
            storage[i] = randomBytes(rng, 64);
            // Bias toward near-valid packets so both branches exercise.
            if (rng() % 2) {
                std::memcpy(storage[i].data(), prefix, 5);
                storage[i][5] = static_cast<std::uint8_t>(rng() % 5);
            }
            pkts[i] = storage[i].data();
            lens[i] = 8 + rng() % 56;
            if (rng() % 8 == 0)
                lens[i] = rng() % 8; // under minLen
        }
        std::vector<std::uint8_t> want(n), got(n);
        referenceHeaderCheck(pkts.data(), lens.data(), n, prefix, 3, 32,
                             want.data());
        for (const auto fn : variants) {
            if (!fn)
                continue;
            std::fill(got.begin(), got.end(), 0xcc);
            fn(pkts.data(), lens.data(), n, prefix, 3, 32, got.data());
            for (std::size_t i = 0; i < n; ++i)
                ASSERT_EQ(got[i] != 0, want[i] != 0)
                    << "iter=" << iter << " pkt=" << i;
        }
    }
}

} // namespace
} // namespace net
} // namespace hyperplane
