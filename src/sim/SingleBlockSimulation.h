#pragma once
/// \file SingleBlockSimulation.h
/// Convenience driver for one-block LBM simulations (validation cases,
/// quickstart example, kernel benchmarks). It owns the PDF double buffer,
/// flag field and boundary handling, and runs the canonical time step:
///
///   1. communication — here: periodic wrap of the ghost layers,
///   2. boundary handling — write boundary values into boundary-cell slots,
///   3. fused stream-pull-collide sweep over fluid cells,
///   4. src/dst swap.
///
/// The multi-block distributed driver (sim/DistributedSimulation.h) runs
/// the same sequence with real ghost-layer exchange via vmpi.

#include <cstdint>
#include <functional>
#include <memory>

#include "core/KernelTier.h"
#include "core/Timer.h"
#include "lbm/Boundary.h"
#include "lbm/Communication.h"
#include "lbm/KernelAa.h"
#include "lbm/KernelAaSimd.h"
#include "lbm/KernelD3Q19Simd.h"
#include "lbm/KernelGeneric.h"
#include "lbm/PdfField.h"
#include "lbm/Sparse.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"

namespace walb::sim {

using walb::isAaTier;
using walb::KernelTier;

class SingleBlockSimulation {
public:
    using M = lbm::D3Q19;

    struct Config {
        cell_idx_t xSize = 16, ySize = 16, zSize = 16;
        bool periodicX = false, periodicY = false, periodicZ = false;
        KernelTier tier = KernelTier::Simd;
    };

    explicit SingleBlockSimulation(const Config& cfg)
        : cfg_(cfg),
          src_(lbm::makePdfField<M>(cfg.xSize, cfg.ySize, cfg.zSize)),
          // The AA tiers update in place — the shadow grid shrinks to a
          // token allocation and the PDF footprint halves.
          dst_(isAaTier(cfg.tier) ? lbm::makePdfField<M>(1, 1, 1)
                                  : lbm::makePdfField<M>(cfg.xSize, cfg.ySize, cfg.zSize)),
          flags_(cfg.xSize, cfg.ySize, cfg.zSize, 1),
          masks_(lbm::BoundaryFlags::registerOn(flags_)) {}

    field::FlagField& flags() { return flags_; }
    const lbm::BoundaryFlags& masks() const { return masks_; }
    lbm::PdfField& pdfs() { return src_; }
    const lbm::PdfField& pdfs() const { return src_; }

    /// Marks every interior cell not flagged otherwise as fluid. Call after
    /// setting boundary flags.
    void fillRemainingWithFluid() {
        flags_.forAllInterior([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
            if (flags_.get(x, y, z) == 0) flags_.addFlag(x, y, z, masks_.fluid);
        });
    }

    /// Finalizes the setup: builds boundary link lists and initializes all
    /// PDFs to equilibrium (rho, u). Must be called exactly once.
    void finalize(real_t rho = 1.0, const Vec3& u = {0, 0, 0}) {
        WALB_ASSERT(!boundary_, "finalize() called twice");
        // Wrap flags into the ghost layers of periodic directions so that
        // boundary links crossing a periodic interface are discovered (the
        // boundary cell then appears as a ghost cell with a valid flag).
        for (const auto& d : lbm::neighborhood26) {
            if (d[0] != 0 && !cfg_.periodicX) continue;
            if (d[1] != 0 && !cfg_.periodicY) continue;
            if (d[2] != 0 && !cfg_.periodicZ) continue;
            lbm::copySliceLocal(flags_, flags_, d);
        }
        boundary_ = std::make_unique<lbm::BoundaryHandling<M>>(flags_, masks_);
        // Uniform equilibrium including ghosts is also a valid AA state at
        // parity Even: pdf(x, a) = P(x - e_a, a) holds trivially when every
        // cell carries the same PDF set.
        lbm::initEquilibrium<M>(src_, rho, u);
        if (!isAaTier(cfg_.tier)) lbm::initEquilibrium<M>(dst_, rho, u);
        fluidCells_ = flags_.count(masks_.fluid);
    }

    lbm::BoundaryHandling<M>& boundary() {
        WALB_ASSERT(boundary_, "finalize() not called");
        return *boundary_;
    }

    uint_t fluidCells() const { return fluidCells_; }

    /// Advances the simulation by n time steps with the given collision
    /// operator (SRT or TRT). The canonical phases are recorded in the
    /// TimingPool and the phase trace, and the step counter / MLUP/s gauge
    /// are maintained — same observability surface as the distributed
    /// driver, minus the cross-rank reduction.
    template <typename Op>
    void run(uint_t n, const Op& op) {
        WALB_ASSERT(boundary_, "finalize() not called");
        obs::Counter& steps = metrics_.counter("sim.steps");
        Timer wall;
        wall.start();
        for (uint_t step = 0; step < n; ++step) {
            const lbm::StepPattern pattern = lbm::stepPatternOf(isAaTier(cfg_.tier), currentStep_);
            obs::PhaseClock clock(timing_, trace_);
            applyPeriodicity(pattern);
            clock.lap("communication");
            boundary_->apply(src_, lbm::Region::All, pattern);
            clock.lap("boundary");
            sweep(op, lbm::aaParityOf(pattern));
            clock.lap("collideStream");
            if (pattern == lbm::StepPattern::TwoGrid) src_.swapDataWith(dst_);
            ++currentStep_;
            steps.inc();
        }
        wall.stop();
        if (wall.total() > 0)
            metrics_.gauge("sim.mlups").set(double(fluidCells_) * double(n) / wall.total() /
                                            1e6);
        metrics_.gauge("sim.fluidCells").set(double(fluidCells_));
        metrics_.gauge("mem.pdf_bytes")
            .set(double((src_.allocCells() + dst_.allocCells()) * sizeof(real_t)));
    }

    /// Number of completed time steps (across run() calls).
    std::uint64_t currentStep() const { return currentStep_; }

    /// AA storage layout right now == parity of the next step. Meaningful
    /// for the AA tiers only.
    lbm::AaParity aaParity() const { return lbm::aaParityOfStep(currentStep_); }

    TimingPool& timing() { return timing_; }
    obs::MetricsRegistry& metrics() { return metrics_; }
    obs::TraceRecorder& trace() { return trace_; }

    /// The canonical (physical) PDF set of one cell — parity-normalized for
    /// the AA tiers, a plain read otherwise.
    std::array<real_t, M::Q> cellPdfs(cell_idx_t x, cell_idx_t y, cell_idx_t z) const {
        return lbm::canonicalPdfs(src_, lbm::stepPatternOf(isAaTier(cfg_.tier), currentStep_), x,
                                  y, z);
    }

    real_t density(cell_idx_t x, cell_idx_t y, cell_idx_t z) const {
        return lbm::density<M>(cellPdfs(x, y, z));
    }
    Vec3 velocity(cell_idx_t x, cell_idx_t y, cell_idx_t z) const {
        const auto pdfs = cellPdfs(x, y, z);
        return lbm::momentum<M>(pdfs) / lbm::density<M>(pdfs);
    }

    /// Total mass over all fluid cells — conserved in closed systems.
    real_t totalMass() const {
        real_t m = 0;
        flags_.forAllInterior([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
            if (flags_.get(x, y, z) & masks_.fluid) m += lbm::density<M>(cellPdfs(x, y, z));
        });
        return m;
    }

private:
    void applyPeriodicity(lbm::StepPattern pattern) {
        if (!cfg_.periodicX && !cfg_.periodicY && !cfg_.periodicZ) return;
        for (const auto& d : lbm::neighborhood26) {
            if (d[0] != 0 && !cfg_.periodicX) continue;
            if (d[1] != 0 && !cfg_.periodicY) continue;
            if (d[2] != 0 && !cfg_.periodicZ) continue;
            using lbm::StepPattern;
            if (pattern == StepPattern::TwoGrid) lbm::copyPdfsLocal<M>(src_, src_, d);
            else if (pattern == StepPattern::AaOdd) lbm::aaCopyPdfsLocalForward<M>(src_, src_, d);
            else lbm::aaCopyPdfsLocalReverse<M>(src_, src_, d);
        }
    }

    template <typename Op>
    void sweep(const Op& op, lbm::AaParity parity) {
        switch (cfg_.tier) {
            case KernelTier::Generic:
                lbm::streamCollideGeneric<M>(src_, dst_, op, &flags_, masks_.fluid);
                break;
            case KernelTier::D3Q19:
                lbm::streamCollideD3Q19(src_, dst_, op, &flags_, masks_.fluid);
                break;
            case KernelTier::Simd:
                sweepRuns(lbm::StepPattern::TwoGrid, op);
                break;
            case KernelTier::Aa:
                lbm::aaStreamCollide(src_, parity, op, &flags_, masks_.fluid);
                break;
            case KernelTier::AaSimd:
                sweepRuns(lbm::aaPatternOf(parity), op);
                break;
        }
    }

    /// The SIMD tiers: the fused run sweep (lbm/Sparse.h) under `pattern`.
    template <typename Op>
    void sweepRuns(lbm::StepPattern pattern, const Op& op) {
        const lbm::FluidRunList& list = fluidRuns();
        lbm::collideRuns(src_, pattern == lbm::StepPattern::TwoGrid ? dst_ : src_, pattern,
                         list.runs.data(), list.runs.size(), op);
    }

    const lbm::FluidRunList& fluidRuns() {
        if (!runs_)
            runs_ = std::make_unique<lbm::FluidRunList>(
                lbm::buildFluidRuns(flags_, masks_.fluid));
        return *runs_;
    }

    Config cfg_;
    lbm::PdfField src_, dst_;
    field::FlagField flags_;
    lbm::BoundaryFlags masks_;
    std::unique_ptr<lbm::BoundaryHandling<M>> boundary_;
    std::unique_ptr<lbm::FluidRunList> runs_;
    std::uint64_t currentStep_ = 0;
    uint_t fluidCells_ = 0;
    TimingPool timing_;
    obs::MetricsRegistry metrics_;
    obs::TraceRecorder trace_;
};

} // namespace walb::sim
