#pragma once
/// \file Health.h
/// Simulation health guards: at trillion-cell scale a diverging simulation
/// (NaN/Inf creeping through the lattice) or a mass leak (broken boundary
/// handling, corrupted ghost exchange) can burn millions of core hours
/// streaming garbage before anyone looks at the output. The HealthMonitor
/// runs every K steps, allreduces the world-wide non-finite cell count and
/// the total fluid mass, and on violation (a) writes an emergency
/// checkpoint, (b) logs a WALB_LOG_ERROR diagnosis, and (c) throws
/// HealthError on every rank so the world shuts down cleanly and together.
///
/// Reported obs metrics: gauges `health.nan_cells` and `health.mass_drift`
/// (every check), counter `health.violations`.

#include <cmath>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/Logging.h"
#include "lbm/KernelAa.h"
#include "lbm/PdfField.h"
#include "lbm/Sparse.h"
#include "sim/Checkpoint.h"
#include "vmpi/Comm.h"

namespace walb::sim {

/// What the monitor enforces. checkEvery = 0 disables periodic checking.
struct HealthPolicy {
    uint_t checkEvery = 16;       ///< run a check every K time steps
    bool checkNonFinite = true;   ///< any NaN/Inf fluid cell is a violation
    double maxMassDrift = 1e-6;   ///< |mass/baseline - 1| bound (<0 disables)
    bool emergencyCheckpoint = true;
    /// Base name of the emergency dump; the actual file embeds rank and
    /// step (decorateDumpPath), e.g. walb_emergency.r0.s48.wckp.
    std::string emergencyPath = "walb_emergency.wckp";
    bool abortOnViolation = true; ///< throw HealthError (vs. report only)
};

/// Inserts ".r<rank>.s<step>" before the extension of `path` (after it when
/// there is none): concurrent dumps from a dying fleet — several ranks, or
/// the same rank at several steps across recovery rewinds — must never
/// clobber each other.
inline std::string decorateDumpPath(const std::string& path, int rank,
                                    std::uint64_t step) {
    const std::string infix =
        ".r" + std::to_string(rank) + ".s" + std::to_string(step);
    const auto dot = path.find_last_of('.');
    const auto slash = path.find_last_of('/');
    const bool dotInName =
        dot != std::string::npos && (slash == std::string::npos || dot > slash);
    if (!dotInName) return path + infix;
    return path.substr(0, dot) + infix + path.substr(dot);
}

/// Result of one collective health check (identical on every rank).
struct HealthReport {
    std::uint64_t step = 0;
    std::uint64_t nonFiniteCells = 0; ///< fluid cells with any NaN/Inf PDF
    double mass = 0.0;                ///< total fluid mass over all ranks
    double baselineMass = 0.0;        ///< mass at the first check
    double drift = 0.0;               ///< (mass - baseline) / baseline
    bool ok = true;

    std::string describe() const {
        return "step=" + std::to_string(step) +
               " nonFiniteCells=" + std::to_string(nonFiniteCells) +
               " mass=" + std::to_string(mass) +
               " baseline=" + std::to_string(baselineMass) +
               " drift=" + std::to_string(drift) + (ok ? " [ok]" : " [VIOLATION]");
    }
};

/// Thrown (on all ranks simultaneously — the verdict derives from
/// allreduced values) when a health check fails and the policy says abort.
class HealthError : public std::runtime_error {
public:
    explicit HealthError(const HealthReport& r)
        : std::runtime_error("sim::HealthError: " + r.describe()), report(r) {}

    HealthReport report;
};

/// Periodic watchdog over a DistributedSimulation (passed as a template so
/// this header stays independent of the simulation driver's definition).
class HealthMonitor {
public:
    explicit HealthMonitor(HealthPolicy policy) : policy_(std::move(policy)) {}

    const HealthPolicy& policy() const { return policy_; }
    double baselineMass() const { return baselineMass_; }
    /// Decorated path of the last successfully written emergency checkpoint
    /// (empty until a violation wrote one).
    const std::string& lastEmergencyPath() const { return lastEmergencyPath_; }

    /// Invoked on every violation, after the emergency checkpoint and the
    /// ERROR diagnosis but before HealthError is thrown — the driver hooks
    /// its flight-recorder dump here so every abort ships with the per-step
    /// telemetry that led up to it. Must not throw and must not communicate.
    void setViolationHook(std::function<void(const HealthReport&)> hook) {
        onViolation_ = std::move(hook);
    }

    /// One collective health check at time step `step`. Updates the obs
    /// gauges, and on violation emergency-checkpoints, logs an ERROR
    /// diagnosis and throws HealthError (policy permitting). Every rank
    /// reaches the same verdict because it is computed from allreduced
    /// quantities only.
    template <typename Sim>
    HealthReport check(Sim& sim, std::uint64_t step) {
        const auto [nonFinite, mass] = measure(sim);
        if (!haveBaseline_) {
            baselineMass_ = mass;
            haveBaseline_ = true;
        }

        HealthReport report;
        report.step = step;
        report.nonFiniteCells = nonFinite;
        report.mass = mass;
        report.baselineMass = baselineMass_;
        report.drift =
            baselineMass_ != 0.0 ? (mass - baselineMass_) / baselineMass_ : 0.0;

        const bool nanViolation = policy_.checkNonFinite && nonFinite > 0;
        const bool massViolation =
            !std::isfinite(mass) ||
            (policy_.maxMassDrift >= 0.0 && std::isfinite(report.drift) &&
             std::abs(report.drift) > policy_.maxMassDrift);
        report.ok = !(nanViolation || massViolation);

        sim.metrics().gauge("health.nan_cells").set(double(nonFinite));
        sim.metrics().gauge("health.mass_drift").set(report.drift);

        if (!report.ok) {
            sim.metrics().counter("health.violations").inc();
            if (policy_.emergencyCheckpoint) {
                // Rank 0 writes; every rank computes the same decorated name
                // from rank 0's identity so the collective save agrees on
                // one file.
                const std::string path =
                    decorateDumpPath(policy_.emergencyPath, 0, step);
                std::string err;
                if (checkpointSave(sim, path, step, nullptr, &err)) {
                    lastEmergencyPath_ = path;
                    WALB_LOG_ERROR("health: emergency checkpoint written to '"
                                   << path << "'");
                } else {
                    WALB_LOG_ERROR("health: emergency checkpoint FAILED: " << err);
                }
            }
            WALB_LOG_ERROR("health violation, aborting all ranks: " << report.describe()
                                                                    << (nanViolation
                                                                            ? " [non-finite PDFs]"
                                                                            : " [mass drift]"));
            if (onViolation_) onViolation_(report);
            if (policy_.abortOnViolation) throw HealthError(report);
        }
        return report;
    }

private:
    /// Local scan + one combined allreduce: {non-finite cells, total mass}.
    /// Walks the canonical PDFs of every fluid run (lbm::canonicalSlot: one
    /// storage row per direction and run, for every tier and AA parity), so
    /// the densities are physical without a parity-normalized copy.
    template <typename Sim>
    std::pair<std::uint64_t, double> measure(Sim& sim) {
        using M = typename Sim::M;
        double vals[2] = {0.0, 0.0};
        std::vector<real_t> rho;
        std::vector<bool> finite;
        for (std::size_t b = 0; b < sim.forest().numLocalBlocks(); ++b) {
            const lbm::PdfField& pdf = sim.pdfField(b);
            for (const lbm::FluidRun& r : sim.fluidRuns(b).runs) {
                const std::size_t n = std::size_t(r.xEnd - r.xBegin + 1);
                rho.assign(n, real_c(0));
                finite.assign(n, true);
                for (uint_t a = 0; a < M::Q; ++a) {
                    const real_t* row =
                        lbm::canonicalSlot(pdf, sim.stepPattern(), r.xBegin, r.y, r.z, a);
                    for (std::size_t i = 0; i < n; ++i) {
                        rho[i] += row[i];
                        if (!std::isfinite(row[i])) finite[i] = false;
                    }
                }
                for (std::size_t i = 0; i < n; ++i) {
                    vals[0] += finite[i] ? 0.0 : 1.0;
                    vals[1] += rho[i];
                }
            }
        }
        // walb-lint: allow(blocking): invariant-check collective, reached by all ranks
        sim.comm().allreduce(std::span<double>(vals, 2), vmpi::ReduceOp::Sum);
        return {std::uint64_t(vals[0]), vals[1]};
    }

    HealthPolicy policy_;
    std::string lastEmergencyPath_;
    double baselineMass_ = 0.0;
    bool haveBaseline_ = false;
    std::function<void(const HealthReport&)> onViolation_;
};

} // namespace walb::sim
