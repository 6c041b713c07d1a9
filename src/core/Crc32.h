#pragma once
/// \file Crc32.h
/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over byte ranges.
/// Used by the checkpoint format to detect bit rot / truncation of the
/// per-block field payloads, and by the fault-tolerance tests to fingerprint
/// the full simulation state ("state digest") for bit-exact restart checks.
///
/// Three implementations, equal on every input:
///  - crc32Bytewise(): the textbook one-table loop, the reference the
///    tests compare against;
///  - detail::crc32SliceBy16(): sixteen 256-entry tables, computed at
///    compile time, fold 16 input bytes per iteration with 16 independent
///    lookups instead of one dependent lookup per byte (2.2–2.5 GB/s on
///    a 4-vCPU Xeon VM, `BM_Crc32`);
///  - detail::crc32Folded() (built when the target has PCLMULQDQ and
///    SSE4.1): carry-less-multiply folding of four 128-bit lanes, then one
///    lane, then a Barrett reduction to 32 bits (Gopal et al., "Fast CRC
///    Computation for Generic Polynomials Using PCLMULQDQ Instruction",
///    Intel 2009), 18–21 GB/s on the same VM.
/// crc32() runs the folded loop over the whole 16-byte blocks of an input
/// of at least 64 bytes and slice-by-16 over the rest: short inputs,
/// constant evaluation and builds without PCLMULQDQ. Both bytewise and
/// slice-by-16 are constexpr.

#include <array>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#if defined(__PCLMUL__) && defined(__SSE4_1__)
#include <immintrin.h>
#define WALB_CRC32_FOLDED 1
#else
#define WALB_CRC32_FOLDED 0
#endif

namespace walb {

namespace detail {

inline constexpr std::uint32_t kCrc32Poly = 0xEDB88320u;

using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 16>;

/// Table k maps a byte to its CRC contribution after k further zero bytes:
/// table[k][i] == table[0] applied to i followed by k zero bytes.
constexpr Crc32Tables makeCrc32Tables() {
    Crc32Tables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k) c = (c & 1u) ? (kCrc32Poly ^ (c >> 1)) : (c >> 1);
        t[0][i] = c;
    }
    for (std::size_t k = 1; k < 16; ++k)
        for (std::size_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    return t;
}

inline constexpr Crc32Tables kCrc32Tables = makeCrc32Tables();

/// Little-endian 32-bit load, byte by byte: endian-independent and
/// constexpr; compilers fuse it into a single load.
constexpr std::uint32_t loadLE32(const std::uint8_t* p) {
    return std::uint32_t(p[0]) | std::uint32_t(p[1]) << 8 | std::uint32_t(p[2]) << 16 |
           std::uint32_t(p[3]) << 24;
}

/// Slice-by-16 CRC-32, the portable implementation. Same contract as crc32().
constexpr std::uint32_t crc32SliceBy16(const std::uint8_t* data, std::size_t n,
                                       std::uint32_t seed = 0) {
    const auto& t = kCrc32Tables;
    std::uint32_t c = seed ^ 0xFFFFFFFFu;
    for (; n >= 16; n -= 16, data += 16) {
        const std::uint32_t a = loadLE32(data) ^ c;
        const std::uint32_t b = loadLE32(data + 4);
        const std::uint32_t d = loadLE32(data + 8);
        const std::uint32_t e = loadLE32(data + 12);
        c = t[15][a & 0xFFu] ^ t[14][(a >> 8) & 0xFFu] ^ t[13][(a >> 16) & 0xFFu] ^
            t[12][a >> 24] ^ t[11][b & 0xFFu] ^ t[10][(b >> 8) & 0xFFu] ^
            t[9][(b >> 16) & 0xFFu] ^ t[8][b >> 24] ^ t[7][d & 0xFFu] ^
            t[6][(d >> 8) & 0xFFu] ^ t[5][(d >> 16) & 0xFFu] ^ t[4][d >> 24] ^
            t[3][e & 0xFFu] ^ t[2][(e >> 8) & 0xFFu] ^ t[1][(e >> 16) & 0xFFu] ^
            t[0][e >> 24];
    }
    for (std::size_t i = 0; i < n; ++i) c = t[0][(c ^ data[i]) & 0xFFu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

// ---- fold constants ---------------------------------------------------------
//
// In the reflected bit order of the CRC, bit 31 of a 32-bit word is x^0 and
// multiplying by x is a right shift that folds x^32 back in as the
// polynomial. The folding constants are x^k mod P in that order, shifted
// left by one so that a 64 x 64 carry-less product lands where the next
// lane expects it.

/// x^k mod P, bit-reflected, shifted left by one (a 33-bit value).
constexpr std::uint64_t crc32FoldConstant(unsigned k) {
    std::uint32_t v = 0x80000000u; // x^0
    for (unsigned i = 0; i < k; ++i) v = (v & 1u) ? (v >> 1) ^ kCrc32Poly : v >> 1;
    return std::uint64_t(v) << 1;
}

/// Reverses the low `bits` bits of v.
constexpr std::uint64_t reflectBits(std::uint64_t v, unsigned bits) {
    std::uint64_t r = 0;
    for (unsigned i = 0; i < bits; ++i) r |= ((v >> i) & 1u) << (bits - 1 - i);
    return r;
}

/// The polynomial P with its x^32 term, bit-reflected over 33 bits.
inline constexpr std::uint64_t kCrc32PolyReflected = (std::uint64_t(kCrc32Poly) << 1) | 1u;

/// The Barrett constant floor(x^64 / P), bit-reflected over 33 bits.
constexpr std::uint64_t crc32BarrettConstant() {
    const std::uint64_t p = reflectBits(kCrc32Poly, 32) | (std::uint64_t(1) << 32);
    std::uint64_t q = 0, r = 0;
    for (int i = 64; i >= 0; --i) { // long division of x^64, one bit at a time
        r = (r << 1) | (i == 64 ? 1u : 0u);
        if ((r >> 32) & 1u) {
            r ^= p;
            q |= std::uint64_t(1) << i;
        }
    }
    return reflectBits(q, 33);
}

/// Fold distances: across four lanes (512 bits), across one lane (128
/// bits), from 128 to 64 bits, and the Barrett pair.
inline constexpr std::uint64_t kFold4Lo = crc32FoldConstant(4 * 128 + 32);
inline constexpr std::uint64_t kFold4Hi = crc32FoldConstant(4 * 128 - 32);
inline constexpr std::uint64_t kFold1Lo = crc32FoldConstant(128 + 32);
inline constexpr std::uint64_t kFold1Hi = crc32FoldConstant(128 - 32);
inline constexpr std::uint64_t kFold64 = crc32FoldConstant(64);
inline constexpr std::uint64_t kBarrettU = crc32BarrettConstant();

// The published constants of the reflected CRC-32 (Gopal et al.; the same
// values as zlib's and Linux's PCLMULQDQ folds).
static_assert(kFold4Lo == 0x154442bd4 && kFold4Hi == 0x1c6e41596);
static_assert(kFold1Lo == 0x1751997d0 && kFold1Hi == 0x0ccaa009e);
static_assert(kFold64 == 0x163cd6124);
static_assert(kCrc32PolyReflected == 0x1db710641 && kBarrettU == 0x1f7011641);

#if WALB_CRC32_FOLDED
/// Folds n bytes (n >= 64, a multiple of 16) into the pre-inverted running
/// value `c` and returns the new one.
inline std::uint32_t crc32FoldRaw(const std::uint8_t* data, std::size_t n, std::uint32_t c) {
    const auto load = [](const std::uint8_t* p) {
        return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
    };
    // x * k where k holds the distance constants of the low and the high
    // 64 bits of x: the lane moved forward by that distance.
    const auto fold = [](__m128i x, __m128i k) {
        return _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00), _mm_clmulepi64_si128(x, k, 0x11));
    };
    __m128i x1 = _mm_xor_si128(load(data), _mm_cvtsi32_si128(int(c)));
    __m128i x2 = load(data + 16), x3 = load(data + 32), x4 = load(data + 48);
    data += 64;
    n -= 64;
    const __m128i k4 = _mm_set_epi64x(std::int64_t(kFold4Hi), std::int64_t(kFold4Lo));
    for (; n >= 64; n -= 64, data += 64) {
        x1 = _mm_xor_si128(fold(x1, k4), load(data));
        x2 = _mm_xor_si128(fold(x2, k4), load(data + 16));
        x3 = _mm_xor_si128(fold(x3, k4), load(data + 32));
        x4 = _mm_xor_si128(fold(x4, k4), load(data + 48));
    }
    const __m128i k1 = _mm_set_epi64x(std::int64_t(kFold1Hi), std::int64_t(kFold1Lo));
    x1 = _mm_xor_si128(fold(x1, k1), x2);
    x1 = _mm_xor_si128(fold(x1, k1), x3);
    x1 = _mm_xor_si128(fold(x1, k1), x4);
    for (; n >= 16; n -= 16, data += 16) x1 = _mm_xor_si128(fold(x1, k1), load(data));

    // 128 -> 64 bits (appending 32 zero bits), then 64 -> 32 by Barrett.
    const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
    x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), _mm_clmulepi64_si128(x1, k1, 0x10));
    const __m128i k64 = _mm_set_epi64x(0, std::int64_t(kFold64));
    x1 = _mm_xor_si128(_mm_srli_si128(x1, 4),
                       _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k64, 0x00));
    const __m128i pu = _mm_set_epi64x(std::int64_t(kBarrettU), std::int64_t(kCrc32PolyReflected));
    __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), pu, 0x10);
    t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), pu, 0x00);
    return std::uint32_t(_mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}

/// Folded CRC-32. Same contract as crc32(); any length.
inline std::uint32_t crc32Folded(const std::uint8_t* data, std::size_t n,
                                 std::uint32_t seed = 0) {
    if (n >= 64) {
        const std::size_t blocks = n & ~std::size_t(15);
        seed = crc32FoldRaw(data, blocks, seed ^ 0xFFFFFFFFu) ^ 0xFFFFFFFFu;
        data += blocks;
        n -= blocks;
    }
    return crc32SliceBy16(data, n, seed);
}
#endif

} // namespace detail

/// Reference CRC-32, one table lookup per byte. Same contract as crc32().
constexpr std::uint32_t crc32Bytewise(const std::uint8_t* data, std::size_t n,
                                      std::uint32_t seed = 0) {
    const auto& t = detail::kCrc32Tables[0];
    std::uint32_t c = seed ^ 0xFFFFFFFFu;
    for (std::size_t i = 0; i < n; ++i) c = t[(c ^ data[i]) & 0xFFu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

/// CRC-32 of `n` bytes. Pass the previous return value as `seed` to chain
/// several ranges into one running checksum (seed 0 starts a fresh CRC).
constexpr std::uint32_t crc32(const std::uint8_t* data, std::size_t n,
                              std::uint32_t seed = 0) {
#if WALB_CRC32_FOLDED
    if (!std::is_constant_evaluated()) return detail::crc32Folded(data, n, seed);
#endif
    return detail::crc32SliceBy16(data, n, seed);
}

inline std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t seed = 0) {
    return crc32(static_cast<const std::uint8_t*>(data), n, seed);
}

} // namespace walb
