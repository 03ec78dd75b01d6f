/**
 * @file
 * 16-wide byte-group probe primitives for the translation hot path.
 *
 * The flat-hash/SoA layouts (util/flat_map.hh, the SetAssocCache tag
 * plane) keep their occupancy/tag metadata as dense 1-byte arrays
 * precisely so the probe loop can compare a whole group of candidate
 * slots at once. This header is the single place that knows how:
 * each backend exposes two operations over a 16-byte group,
 *
 *   matchMask(group, b) — bit i set iff group[i] == b
 *   zeroMask(group)     — bit i set iff group[i] == 0
 *
 * and every backend produces the *same* masks for the same bytes, so
 * a consumer that derives its decisions from the masks alone behaves
 * bit-identically no matter which backend was compiled in:
 *
 *   - Sse2GroupOps: x86-64 baseline (PCMPEQB + PMOVMSKB), one
 *     unaligned 16-byte load per group;
 *   - NeonGroupOps: AArch64 (CMEQ + the shrn/4-bit-per-lane mask
 *     narrowing idiom, spread back out to one bit per lane);
 *   - ScalarGroupOps: portable reference — a plain byte loop the
 *     other backends are tested against (tests/test_simd.cc drives
 *     both through identical sequences and asserts identical masks
 *     and identical FlatMap/SetAssocCache layouts).
 *
 * Selection is compile-time: DefaultGroupOps is the best vector
 * backend for the target unless HYPERSIO_FORCE_SCALAR_PROBES is
 * defined (the -DHYPERSIO_SIMD_PROBES=OFF CMake build), which pins
 * the scalar reference. scripts/check_repo.sh gate 6 builds both and
 * requires every deterministic bench count to match exactly.
 *
 * Group discipline shared by all consumers: groups are 16-byte
 * *position-aligned* windows of the byte array (offset a multiple of
 * 16 from the array base — the base pointer itself need not be
 * aligned; loads are unaligned). Arrays sized to a multiple of 16
 * therefore never read past the end, and a probe that starts
 * mid-group masks off the lanes before its start position.
 */

#ifndef HYPERSIO_UTIL_SIMD_HH
#define HYPERSIO_UTIL_SIMD_HH

#include <cstddef>
#include <cstdint>

#if !defined(HYPERSIO_FORCE_SCALAR_PROBES)
#if defined(__SSE2__) || defined(_M_X64)
#define HYPERSIO_SIMD_SSE2 1
#include <emmintrin.h>
#elif defined(__ARM_NEON) || defined(__ARM_NEON__)
#define HYPERSIO_SIMD_NEON 1
#include <arm_neon.h>
#endif
#endif

namespace hypersio::util::simd
{

/** Slots compared per group operation. Always 16, even for the
 *  scalar backend: consumers size and align their metadata arrays to
 *  this, so the layout (and thus behaviour) is backend-independent. */
inline constexpr size_t GroupWidth = 16;

/** Portable reference backend: the loop the vector backends must
 *  agree with bit-for-bit. */
struct ScalarGroupOps
{
    static constexpr const char *name = "scalar";

    static uint32_t
    matchMask(const uint8_t *group, uint8_t byte)
    {
        uint32_t mask = 0;
        for (size_t i = 0; i < GroupWidth; ++i)
            mask |= uint32_t(group[i] == byte) << i;
        return mask;
    }

    static uint32_t
    zeroMask(const uint8_t *group)
    {
        uint32_t mask = 0;
        for (size_t i = 0; i < GroupWidth; ++i)
            mask |= uint32_t(group[i] == 0) << i;
        return mask;
    }
};

#if defined(HYPERSIO_SIMD_SSE2)

/** x86-64 backend: PCMPEQB + PMOVMSKB (SSE2 is baseline on x86-64,
 *  so this needs no -m flags). */
struct Sse2GroupOps
{
    static constexpr const char *name = "sse2";

    static uint32_t
    matchMask(const uint8_t *group, uint8_t byte)
    {
        const __m128i g = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(group));
        const __m128i b = _mm_set1_epi8(static_cast<char>(byte));
        return static_cast<uint32_t>(
            _mm_movemask_epi8(_mm_cmpeq_epi8(g, b)));
    }

    static uint32_t
    zeroMask(const uint8_t *group)
    {
        const __m128i g = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(group));
        return static_cast<uint32_t>(
            _mm_movemask_epi8(_mm_cmpeq_epi8(g, _mm_setzero_si128())));
    }
};

using VectorGroupOps = Sse2GroupOps;

#elif defined(HYPERSIO_SIMD_NEON)

/** AArch64 backend: CMEQ produces 0x00/0xFF lanes; the vshrn idiom
 *  narrows them to 4 bits per lane, which are then gathered into the
 *  same one-bit-per-lane mask the other backends produce. */
struct NeonGroupOps
{
    static constexpr const char *name = "neon";

    static uint32_t
    maskOf(uint8x16_t eq)
    {
        // Narrow each 16-bit pair of lanes to 8 bits (4 bits per
        // original lane), then pick one bit per lane out of the
        // resulting 64-bit scalar.
        const uint8x8_t narrowed =
            vshrn_n_u16(vreinterpretq_u16_u8(eq), 4);
        const uint64_t nibbles =
            vget_lane_u64(vreinterpret_u64_u8(narrowed), 0);
        uint32_t mask = 0;
        for (unsigned i = 0; i < GroupWidth; ++i)
            mask |= uint32_t((nibbles >> (4 * i)) & 1) << i;
        return mask;
    }

    static uint32_t
    matchMask(const uint8_t *group, uint8_t byte)
    {
        return maskOf(vceqq_u8(vld1q_u8(group), vdupq_n_u8(byte)));
    }

    static uint32_t
    zeroMask(const uint8_t *group)
    {
        return maskOf(vceqq_u8(vld1q_u8(group), vdupq_n_u8(0)));
    }
};

using VectorGroupOps = NeonGroupOps;

#else

/** No vector unit (or HYPERSIO_FORCE_SCALAR_PROBES): the reference
 *  backend is also the "vector" one. */
using VectorGroupOps = ScalarGroupOps;

#endif

/** The backend the simulator's structures use by default. */
using DefaultGroupOps = VectorGroupOps;

} // namespace hypersio::util::simd

#endif // HYPERSIO_UTIL_SIMD_HH
