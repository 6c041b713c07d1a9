/// Chapman-Enskog validation: the kinematic viscosity realized by the
/// kernels must equal nu = cs^2 (tau - 1/2) for both collision operators
/// over a sweep of relaxation times. Measured via the decay of a periodic
/// shear wave, u_x(y, t) = A exp(-nu k^2 t) sin(k y) — a sharp end-to-end
/// property: collision, streaming and periodicity all have to be right for
/// the decay rate to come out correctly. The box is one block periodic on
/// every axis, so each of its 26 forest links is a link to itself; both
/// driver tiers run every case.

#include <gtest/gtest.h>

#include <cmath>

#include "sim/DistributedSimulation.h"
#include "support/BoxDomain.h"
#include "vmpi/SerialComm.h"

namespace walb::sim {
namespace {

constexpr real_t kPi = real_c(3.14159265358979323846);
constexpr KernelTier kDriverTiers[] = {KernelTier::Simd, KernelTier::AaSimd};

/// A fully periodic 6 x n x 6 fluid box holding the shear wave
/// u_x = amplitude * sin(k y), k = 2 pi / n.
class ShearWaveBox {
public:
    ShearWaveBox(cell_idx_t n, real_t amplitude, KernelTier tier)
        : sim_(comm_, box(n).setup(1),
               box(n).flags([](const Cell&, field::FlagField&, const lbm::BoundaryFlags& m) {
                   return m.fluid;
               }),
               tier) {
        const real_t k = 2 * kPi / real_c(n);
        test::setFluidEquilibrium(sim_, [&](const Cell& g) {
            return Vec3(amplitude * std::sin(k * real_c(g.y)), 0, 0);
        });
    }

    DistributedSimulation& sim() { return sim_; }
    real_t ux(cell_idx_t x, cell_idx_t y, cell_idx_t z) {
        return sim_.gatherCellVelocity({x, y, z})[0];
    }

private:
    static test::BoxDomain box(cell_idx_t n) { return {{6, n, 6}, {1, 1, 1}, {true, true, true}}; }

    vmpi::SerialComm comm_;
    DistributedSimulation sim_;
};

/// Runs a periodic shear wave and returns the measured viscosity. The run
/// length targets one e-folding of the amplitude: much longer and the wave
/// decays into round-off; much shorter and the ratio is noise-limited.
template <typename Op>
real_t measureViscosity(const Op& op, real_t nuNominal, KernelTier tier) {
    // The decay rate carries an O(k^2) correction that grows with tau; at
    // high viscosity a longer wavelength keeps it below the tolerance.
    const cell_idx_t N = nuNominal > real_c(0.2) ? 48 : 24;
    ShearWaveBox wave(N, 0.005, tier);
    const real_t k = 2 * kPi / real_c(N);

    auto amplitude = [&] {
        // Project u_x onto sin(k y) over one column.
        real_t num = 0, den = 0;
        for (cell_idx_t y = 0; y < N; ++y) {
            const real_t s = std::sin(k * real_c(y));
            num += wave.ux(2, y, 2) * s;
            den += s * s;
        }
        return num / den;
    };

    const uint_t steps = uint_t(std::clamp(1.0 / double(nuNominal * k * k), 60.0, 2500.0));
    const real_t a0 = amplitude();
    wave.sim().run(steps, op);
    const real_t a1 = amplitude();
    return -std::log(a1 / a0) / (k * k * real_c(steps));
}

class ViscositySweep : public ::testing::TestWithParam<real_t> {};

TEST_P(ViscositySweep, SrtMatchesChapmanEnskog) {
    const real_t omega = GetParam();
    const lbm::SRT op(omega);
    for (const KernelTier tier : kDriverTiers) {
        const real_t measured = measureViscosity(op, op.viscosity(), tier);
        EXPECT_NEAR(measured, op.viscosity(), 0.03 * op.viscosity() + 5e-5)
            << "omega=" << omega << " tier " << kernelTierName(tier);
    }
}

TEST_P(ViscositySweep, TrtMatchesChapmanEnskog) {
    const real_t omega = GetParam();
    const auto op = lbm::TRT::fromOmegaAndMagic(omega);
    for (const KernelTier tier : kDriverTiers) {
        const real_t measured = measureViscosity(op, op.viscosity(), tier);
        EXPECT_NEAR(measured, op.viscosity(), 0.03 * op.viscosity() + 5e-5)
            << "omega=" << omega << " tier " << kernelTierName(tier);
    }
}

INSTANTIATE_TEST_SUITE_P(OmegaSweep, ViscositySweep,
                         ::testing::Values(0.6, 0.9, 1.2, 1.5, 1.8),
                         [](const auto& tinfo) {
                             return "omega" + std::to_string(int(tinfo.param * 100));
                         });

TEST(ShearWave, DecayIsExponential) {
    // Amplitude ratios over equal intervals must be constant (pure
    // exponential decay, no dispersion at this amplitude).
    const cell_idx_t N = 24;
    for (const KernelTier tier : kDriverTiers) {
        SCOPED_TRACE(kernelTierName(tier));
        ShearWaveBox wave(N, 0.005, tier);
        auto peak = [&] { return wave.ux(2, N / 4, 2); };
        const auto op = lbm::TRT::fromOmegaAndMagic(1.4);
        const real_t p0 = peak();
        wave.sim().run(150, op);
        const real_t p1 = peak();
        wave.sim().run(150, op);
        const real_t p2 = peak();
        EXPECT_NEAR(p1 / p0, p2 / p1, 0.01 * p1 / p0);
        EXPECT_LT(p2, p1);
        EXPECT_LT(p1, p0);
    }
}

} // namespace
} // namespace walb::sim
