/// SIMD abstraction tests: every backend must agree with scalar double
/// arithmetic element-wise, including FMA and unaligned access.

#include <gtest/gtest.h>

#include <array>

#include "core/Random.h"
#include "simd/Simd.h"

namespace walb::simd {
namespace {

template <typename V>
class SimdBackend : public ::testing::Test {};

#if defined(__AVX__)
using Backends = ::testing::Types<ScalarD, SseD, AvxD>;
#elif defined(__SSE2__)
using Backends = ::testing::Types<ScalarD, SseD>;
#else
using Backends = ::testing::Types<ScalarD>;
#endif
TYPED_TEST_SUITE(SimdBackend, Backends);

TYPED_TEST(SimdBackend, LoadStoreRoundTrip) {
    using V = TypeParam;
    alignas(64) double in[8] = {1.5, -2.25, 3.0, 0.125, 7.75, -0.5, 2.0, 9.0};
    alignas(64) double out[8] = {};
    for (std::size_t i = 0; i + V::width <= 8; i += V::width)
        V::load(in + i).store(out + i);
    for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(out[i], in[i]);
}

TYPED_TEST(SimdBackend, UnalignedLoadStore) {
    using V = TypeParam;
    double buffer[12];
    for (int i = 0; i < 12; ++i) buffer[i] = i * 1.25;
    double out[12] = {};
    // Deliberately offset by one double from any 64-byte boundary.
    V::loadu(buffer + 1).storeu(out + 1);
    for (std::size_t i = 1; i <= V::width; ++i) EXPECT_EQ(out[i], buffer[i]);
}

TYPED_TEST(SimdBackend, MaskedLoadStoreTouchOnlyTheFirstLanes) {
    using V = TypeParam;
    double in[8], out[8];
    for (int i = 0; i < 8; ++i) in[i] = 1.5 + i;
    for (std::size_t n = 1; n <= V::width; ++n) {
        alignas(64) double lanes[4] = {-1, -1, -1, -1};
        V::loadn(in + 1, n).storeu(lanes);
        for (std::size_t i = 0; i < V::width; ++i) EXPECT_EQ(lanes[i], i < n ? in[1 + i] : 0.0);
        for (double& o : out) o = -7;
        V::loadu(in + 1).storen(out + 1, n);
        for (std::size_t i = 0; i < 8; ++i)
            EXPECT_EQ(out[i], i >= 1 && i <= n ? in[i] : -7.0) << "n " << n << " slot " << i;
    }
}

TYPED_TEST(SimdBackend, ArithmeticMatchesScalar) {
    using V = TypeParam;
    Random rng(3);
    for (int trial = 0; trial < 50; ++trial) {
        alignas(64) double a[4], b[4], out[4];
        for (int i = 0; i < 4; ++i) {
            a[i] = rng.uniform(-10, 10);
            b[i] = rng.uniform(0.1, 10); // avoid division blow-ups
        }
        const V va = V::loadu(a), vb = V::loadu(b);
        (va + vb).storeu(out);
        for (std::size_t i = 0; i < V::width; ++i) EXPECT_EQ(out[i], a[i] + b[i]);
        (va - vb).storeu(out);
        for (std::size_t i = 0; i < V::width; ++i) EXPECT_EQ(out[i], a[i] - b[i]);
        (va * vb).storeu(out);
        for (std::size_t i = 0; i < V::width; ++i) EXPECT_EQ(out[i], a[i] * b[i]);
        (va / vb).storeu(out);
        for (std::size_t i = 0; i < V::width; ++i) EXPECT_EQ(out[i], a[i] / b[i]);
    }
}

TYPED_TEST(SimdBackend, Set1Broadcasts) {
    using V = TypeParam;
    alignas(64) double out[4] = {};
    V::set1(3.375).storeu(out);
    for (std::size_t i = 0; i < V::width; ++i) EXPECT_EQ(out[i], 3.375);
}

TYPED_TEST(SimdBackend, FmaMatchesScalarWithinUlp) {
    using V = TypeParam;
    Random rng(9);
    for (int trial = 0; trial < 50; ++trial) {
        alignas(64) double a[4], b[4], c[4], out[4];
        for (int i = 0; i < 4; ++i) {
            a[i] = rng.uniform(-5, 5);
            b[i] = rng.uniform(-5, 5);
            c[i] = rng.uniform(-5, 5);
        }
        fma(V::loadu(a), V::loadu(b), V::loadu(c)).storeu(out);
        for (std::size_t i = 0; i < V::width; ++i) {
            // Fused rounding may differ by one ulp from a*b+c.
            EXPECT_NEAR(out[i], a[i] * b[i] + c[i], 1e-14 * (1.0 + std::abs(out[i])));
        }
    }
}

TEST(SimdDispatch, BestBackendIsWidestAvailable) {
#if defined(__AVX__)
    EXPECT_EQ(BestD::width, 4u);
    EXPECT_STREQ(backendName<BestD>(), "AVX2");
#elif defined(__SSE2__)
    EXPECT_EQ(BestD::width, 2u);
#else
    EXPECT_EQ(BestD::width, 1u);
#endif
}

} // namespace
} // namespace walb::simd
