#include "perf/Stream.h"

#include <algorithm>
#include <vector>

#include "core/Aligned.h"
#include "core/Timer.h"
#include "perf/Machine.h"

namespace walb::perf {

namespace {

/// Prevents the compiler from discarding the benchmark kernels.
void clobber(double* p) { asm volatile("" : : "g"(p) : "memory"); }

} // namespace

StreamResult measureStreamBandwidth(std::size_t bytesPerArray, unsigned repetitions) {
    const std::size_t n = bytesPerArray / sizeof(double);
    StreamResult result;

    // Classic copy: 1 load + 1 store stream; write-allocate makes the
    // actual traffic 3x n doubles.
    {
        auto a = allocateAligned<double>(n);
        auto c = allocateAligned<double>(n);
        for (std::size_t i = 0; i < n; ++i) a[i] = double(i);
        for (unsigned rep = 0; rep < repetitions; ++rep) {
            Timer t;
            t.start();
            for (std::size_t i = 0; i < n; ++i) c[i] = a[i];
            clobber(c.get());
            t.stop();
            const double bytes = 3.0 * double(n) * sizeof(double); // incl. write allocate
            result.copyGiBs = std::max(result.copyGiBs, bytes / t.total() / kGiB);
        }
    }

    // Triad: 2 load + 1 store stream (4x traffic with write allocate).
    {
        auto a = allocateAligned<double>(n);
        auto b = allocateAligned<double>(n);
        auto c = allocateAligned<double>(n);
        for (std::size_t i = 0; i < n; ++i) {
            b[i] = double(i);
            c[i] = double(n - i);
        }
        for (unsigned rep = 0; rep < repetitions; ++rep) {
            Timer t;
            t.start();
            for (std::size_t i = 0; i < n; ++i) a[i] = b[i] + 1.5 * c[i];
            clobber(a.get());
            t.stop();
            const double bytes = 4.0 * double(n) * sizeof(double);
            result.triadGiBs = std::max(result.triadGiBs, bytes / t.total() / kGiB);
        }
    }

    // LBM-like: several concurrent load and store streams (here 4+4),
    // stressing the prefetchers the way a stream-collide kernel does.
    {
        constexpr unsigned S = 4;
        const std::size_t m = n / S;
        std::vector<AlignedArray<double>> in, out;
        for (unsigned s = 0; s < S; ++s) {
            in.push_back(allocateAligned<double>(m));
            out.push_back(allocateAligned<double>(m));
            for (std::size_t i = 0; i < m; ++i) in[s][i] = double(i + s);
        }
        for (unsigned rep = 0; rep < repetitions; ++rep) {
            Timer t;
            t.start();
            double* o0 = out[0].get();
            double* o1 = out[1].get();
            double* o2 = out[2].get();
            double* o3 = out[3].get();
            const double* i0 = in[0].get();
            const double* i1 = in[1].get();
            const double* i2 = in[2].get();
            const double* i3 = in[3].get();
            for (std::size_t i = 0; i < m; ++i) {
                o0[i] = i0[i] * 1.01;
                o1[i] = i1[i] * 1.02;
                o2[i] = i2[i] * 1.03;
                o3[i] = i3[i] * 1.04;
            }
            clobber(o0);
            t.stop();
            const double bytes = 3.0 * double(S) * double(m) * sizeof(double);
            result.lbmLikeGiBs = std::max(result.lbmLikeGiBs, bytes / t.total() / kGiB);
        }
    }
    return result;
}

} // namespace walb::perf
