#pragma once
/// \file Simd.h
/// Thin SIMD abstraction over double-precision vectors. The LBM compute
/// kernels are written once against this interface and instantiated for
/// scalar, SSE2 (width 2) and AVX2 (width 4) backends — mirroring the
/// paper's SSE kernels on SuperMUC and QPX (width 4) kernels on JUQUEEN.
///
/// Only the operations the kernels need are exposed: aligned/unaligned
/// load, store, broadcast, +-*/ and fused multiply-add, plus the masked
/// forms loadn/storen that touch only the first n lanes (0 < n <= width).
/// The masked forms let a kernel finish a row with one partial vector
/// iteration instead of a scalar tail: lanes past n are neither read nor
/// written (they load as 0), so a partial group never touches memory that
/// belongs to another row or thread. Every backend is a value type with
/// `width` elements; scalar code and vector code share the same source.

#include <cstddef>

#include "core/Types.h"

#if defined(__SSE2__)
#include <immintrin.h>
#endif

namespace walb::simd {

/// Scalar "vector" of width 1 — the portable reference backend.
struct ScalarD {
    static constexpr std::size_t width = 1;
    double v;

    static ScalarD set1(double s) { return {s}; }
    static ScalarD load(const double* p) { return {*p}; }
    static ScalarD loadu(const double* p) { return {*p}; }
    static ScalarD loadn(const double* p, std::size_t) { return {*p}; }
    void store(double* p) const { *p = v; }
    void storeu(double* p) const { *p = v; }
    void storen(double* p, std::size_t) const { *p = v; }

    friend ScalarD operator+(ScalarD a, ScalarD b) { return {a.v + b.v}; }
    friend ScalarD operator-(ScalarD a, ScalarD b) { return {a.v - b.v}; }
    friend ScalarD operator*(ScalarD a, ScalarD b) { return {a.v * b.v}; }
    friend ScalarD operator/(ScalarD a, ScalarD b) { return {a.v / b.v}; }
};

/// a*b + c
inline ScalarD fma(ScalarD a, ScalarD b, ScalarD c) { return {a.v * b.v + c.v}; }

#if defined(__SSE2__)
/// SSE2 backend: two doubles per vector (the paper's SuperMUC SSE kernels).
struct SseD {
    static constexpr std::size_t width = 2;
    __m128d v;

    static SseD set1(double s) { return {_mm_set1_pd(s)}; }
    static SseD load(const double* p) { return {_mm_load_pd(p)}; }
    static SseD loadu(const double* p) { return {_mm_loadu_pd(p)}; }
    /// The only partial group of width 2 is one lane: movsd.
    static SseD loadn(const double* p, std::size_t n) {
        return n == 1 ? SseD{_mm_load_sd(p)} : loadu(p);
    }
    void store(double* p) const { _mm_store_pd(p, v); }
    void storeu(double* p) const { _mm_storeu_pd(p, v); }
    void storen(double* p, std::size_t n) const {
        if (n == 1) _mm_store_sd(p, v);
        else storeu(p);
    }

    friend SseD operator+(SseD a, SseD b) { return {_mm_add_pd(a.v, b.v)}; }
    friend SseD operator-(SseD a, SseD b) { return {_mm_sub_pd(a.v, b.v)}; }
    friend SseD operator*(SseD a, SseD b) { return {_mm_mul_pd(a.v, b.v)}; }
    friend SseD operator/(SseD a, SseD b) { return {_mm_div_pd(a.v, b.v)}; }
};

inline SseD fma(SseD a, SseD b, SseD c) {
#if defined(__FMA__)
    return {_mm_fmadd_pd(a.v, b.v, c.v)};
#else
    return {_mm_add_pd(_mm_mul_pd(a.v, b.v), c.v)};
#endif
}
#endif // __SSE2__

#if defined(__AVX__)
/// AVX/AVX2 backend: four doubles per vector. Width 4 equals Blue Gene/Q's
/// QPX, so this backend doubles as the "QPX" kernel in machine-model terms.
struct AvxD {
    static constexpr std::size_t width = 4;
    __m256d v;

    static AvxD set1(double s) { return {_mm256_set1_pd(s)}; }
    static AvxD load(const double* p) { return {_mm256_load_pd(p)}; }
    static AvxD loadu(const double* p) { return {_mm256_loadu_pd(p)}; }
    void store(double* p) const { _mm256_store_pd(p, v); }
    void storeu(double* p) const { _mm256_storeu_pd(p, v); }
#if defined(__AVX512VL__)
    static AvxD loadn(const double* p, std::size_t n) {
        return {_mm256_maskz_loadu_pd(laneMask(n), p)};
    }
    void storen(double* p, std::size_t n) const { _mm256_mask_storeu_pd(p, laneMask(n), v); }
    static __mmask8 laneMask(std::size_t n) { return __mmask8((1u << n) - 1u); }
#else
    static AvxD loadn(const double* p, std::size_t n) {
        return {_mm256_maskload_pd(p, laneMask(n))};
    }
    void storen(double* p, std::size_t n) const { _mm256_maskstore_pd(p, laneMask(n), v); }
    /// Sign bits of lanes [0, n): a window into {-1 x4, 0 x4}.
    static __m256i laneMask(std::size_t n) {
        alignas(32) static constexpr long long bits[8] = {-1, -1, -1, -1, 0, 0, 0, 0};
        return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bits + 4 - n));
    }
#endif

    friend AvxD operator+(AvxD a, AvxD b) { return {_mm256_add_pd(a.v, b.v)}; }
    friend AvxD operator-(AvxD a, AvxD b) { return {_mm256_sub_pd(a.v, b.v)}; }
    friend AvxD operator*(AvxD a, AvxD b) { return {_mm256_mul_pd(a.v, b.v)}; }
    friend AvxD operator/(AvxD a, AvxD b) { return {_mm256_div_pd(a.v, b.v)}; }
};

inline AvxD fma(AvxD a, AvxD b, AvxD c) {
#if defined(__FMA__)
    return {_mm256_fmadd_pd(a.v, b.v, c.v)};
#else
    return {_mm256_add_pd(_mm256_mul_pd(a.v, b.v), c.v)};
#endif
}
#endif // __AVX__

/// Widest backend available at compile time.
#if defined(__AVX__)
using BestD = AvxD;
#elif defined(__SSE2__)
using BestD = SseD;
#else
using BestD = ScalarD;
#endif

/// Human-readable name of the given backend (for benchmark output).
template <typename V>
constexpr const char* backendName() {
    if constexpr (V::width == 1) return "scalar";
    if constexpr (V::width == 2) return "SSE2";
    if constexpr (V::width == 4) return "AVX2";
    return "unknown";
}

} // namespace walb::simd
