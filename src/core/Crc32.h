#pragma once
/// \file Crc32.h
/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over byte ranges.
/// Used by the checkpoint format to detect bit rot / truncation of the
/// per-block field payloads, and by the fault-tolerance tests to fingerprint
/// the full simulation state ("state digest") for bit-exact restart checks.
///
/// crc32() is slice-by-16: sixteen 256-entry tables, computed at compile
/// time, fold 16 input bytes per iteration with 16 independent lookups
/// instead of one dependent lookup per byte. crc32Bytewise() is the
/// textbook one-table loop, kept as the reference the tests compare
/// against. Both are constexpr and produce the same value for every input.

#include <array>
#include <cstddef>
#include <cstdint>

namespace walb {

namespace detail {

using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 16>;

/// Table k maps a byte to its CRC contribution after k further zero bytes:
/// table[k][i] == table[0] applied to i followed by k zero bytes.
constexpr Crc32Tables makeCrc32Tables() {
    Crc32Tables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k) c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
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
    const auto& t = detail::kCrc32Tables;
    std::uint32_t c = seed ^ 0xFFFFFFFFu;
    for (; n >= 16; n -= 16, data += 16) {
        const std::uint32_t a = detail::loadLE32(data) ^ c;
        const std::uint32_t b = detail::loadLE32(data + 4);
        const std::uint32_t d = detail::loadLE32(data + 8);
        const std::uint32_t e = detail::loadLE32(data + 12);
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

inline std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t seed = 0) {
    return crc32(static_cast<const std::uint8_t*>(data), n, seed);
}

} // namespace walb
