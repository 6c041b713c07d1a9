#pragma once
/// \file DistributedSimulation.h
/// The LBM driver, from one block on one rank to many blocks on many
/// virtual-MPI ranks. Each rank owns the blocks assigned to it by the
/// setup/load-balancing phase, allocates PDF/flag fields for those blocks
/// only, and advances the canonical time step:
///
///   1. ghost-layer PDF exchange — block-to-block copies for local
///      neighbors ("fast local communication"), packed BufferSystem
///      messages for remote ones, direction-sliced to the 5/1/0 PDFs that
///      actually cross each face/edge/corner and, of those, limited to the
///      slots a fluid cell of the receiver reads (sim/PdfCommScheme.h). A
///      periodic domain is a forest whose links wrap (bf::SetupConfig): the
///      wrap is exchanged like any other link, down to a block that is its
///      own neighbor;
///   2. boundary handling per block;
///   3. fused stream-pull-collide sweep over the fluid intervals;
///   4. src/dst swap (two-grid Simd tier only).
///
/// One function, step() (DistributedSimulation.cpp), runs this sequence for
/// both driver tiers (Simd, AaSimd) and both schedules. The step's storage
/// pattern (two-grid, AA even or AA odd) is computed once and selects the
/// exchange mode, the boundary link slots and the kernel's load and store
/// slots. The synchronous schedule finishes the exchange before boundary
/// handling and sweeps each whole block; the overlapped schedule
/// (setOverlapCommunication) sweeps the core cells while the halos are in
/// flight and the shell after they landed.
///
/// A block's PDF fields store only the rows its fluid cells reach
/// (lbm::pdfRowTable over the block's fluid runs, interior and ghost layer),
/// so PDF memory follows the fluid cells, not the block extent.
///
/// Each phase is timed once (obs::PhaseClock), and that measurement feeds
/// the TimingPool — communication vs. compute time, the quantity behind
/// the "% MPI communication" curves of Figure 6 — the phase trace and the
/// flight recorder's StepSample alike.

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "blockforest/BlockForest.h"
#include "core/KernelTier.h"
#include "core/Timer.h"
#include "lbm/Boundary.h"
#include "lbm/Collision.h"
#include "lbm/KernelAa.h"
#include "lbm/Sparse.h"
#include "obs/FlightRecorder.h"
#include "obs/Metrics.h"
#include "obs/PerfDiag.h"
#include "obs/TimingReduction.h"
#include "obs/Trace.h"
#include "sim/Checkpoint.h"
#include "sim/Health.h"
#include "sim/PdfCommScheme.h"

namespace walb::sim {

class DistributedSimulation {
public:
    using M = lbm::D3Q19;

    /// Fills the flag field of one block (interior *and* ghost layers —
    /// flags are a pure function of global position, so neighboring blocks
    /// agree on the shared cells without communication). On a periodic
    /// axis that function is periodic: a ghost cell across the wrap holds
    /// the flags of its image on the other side of the domain.
    using FlagInitializer =
        std::function<void(field::FlagField&, const lbm::BoundaryFlags&,
                           const bf::BlockForest::Block&, const geometry::CellMapping&)>;

    /// The driver runs the two SIMD tiers over the fluid x-runs. The
    /// default is the in-place AaSimd step: one PDF grid and 304 B per
    /// cell update instead of two grids and 456 B. Its fluid state, and so
    /// stateDigest(), is bit-identical to the two-grid Simd tier, the
    /// reference a tier-invariance test compares against. The scalar tiers
    /// (Generic, D3Q19, Aa) are kernel tiers only: any other tier throws
    /// OptionError naming it, on every rank before any block data is built
    /// or any message is sent.
    DistributedSimulation(vmpi::Comm& comm, const bf::SetupBlockForest& setup,
                          const FlagInitializer& initFlags,
                          KernelTier tier = KernelTier::AaSimd);

    ~DistributedSimulation();

    /// The global setup structure this simulation was built from. The stored
    /// copy tracks live migrations: applyBlockAssignment() updates its
    /// process fields, so it is always the authoritative block -> rank map.
    const bf::SetupBlockForest& setup() const { return setup_; }

    /// Live re-assignment of blocks to ranks (walb::rebalance migration
    /// layer). Rebuilds the rank-local BlockForest, all per-block data
    /// (fields re-initialized to equilibrium, flags re-derived through the
    /// stored flag initializer — flags are a pure function of global
    /// position), boundary handlings, fluid runs and the ghost-exchange
    /// BufferSystem plan. Carries *no* PDF state over: callers (the
    /// migrator, the recovery restore) re-apply block records after it.
    /// Must be invoked with the identical `ownerBySetupIndex` on every rank.
    void applyBlockAssignment(const std::vector<std::uint32_t>& ownerBySetupIndex);

    /// One ghost-layer exchange outside the step loop — the migration /
    /// restart epilogue that re-establishes cross-block consistency.
    /// Parity-aware for the AA tiers: at parity Odd it runs the forward
    /// (ghost-fill) exchange, at parity Even the reverse exchange that
    /// completes the interior edge slots from the neighbors' ghost pushes —
    /// in both cases the same exchange the next step would open with, so an
    /// extra refill is idempotent. Collective.
    void refillGhostLayers();

    /// Abandons any in-flight ghost exchange without draining it — the
    /// recovery entry point: after a rank failure the outstanding receives
    /// will never complete (or carry a half-stepped epoch that the rewind
    /// discards), so the exchange is dropped rather than finished.
    void abortGhostExchange() { if (comm_scheme_) comm_scheme_->abortExchange(); }

    bf::BlockForest& forest() { return forest_; }
    const bf::BlockForest& forest() const { return forest_; }
    const lbm::BoundaryFlags& masks() const { return masks_; }
    TimingPool& timing() { return timing_; }
    obs::MetricsRegistry& metrics() { return metrics_; }
    obs::TraceRecorder& trace() { return trace_; }
    vmpi::Comm& comm() { return *comm_; }

    /// Swaps the communicator under a live simulation — the recovery shrink
    /// (walb::recover): after a rank failure the survivors rebind to the
    /// SubComm of the agreed survivors and carry on. Moves the last-breath error observer to the
    /// new comm. The caller MUST follow up with applyBlockAssignment()
    /// (which rebuilds the ghost-exchange BufferSystem on the new comm)
    /// before the next step or collective.
    void rebindComm(vmpi::Comm& comm);

    /// Re-arms the one-shot on-error flight dump — called after a completed
    /// recovery so the *next* failure leaves telemetry again.
    void resetErrorDump() { errorDumped_ = false; }

    /// Direct access to the per-block fields (checkpointing, health scans).
    lbm::PdfField& pdfField(std::size_t block) {
        return forest_.getData<lbm::PdfField>(block, srcId_);
    }
    /// The destination PDF field (post-swap history buffer). Block records
    /// skip it: the next sweep rewrites its fluid cells, and boundary
    /// handling its hull slots, before any read. The AA tiers have no
    /// shadow grid — this is a token 1-cell allocation there.
    lbm::PdfField& pdfDstField(std::size_t block) {
        return forest_.getData<lbm::PdfField>(block, dstId_);
    }
    field::FlagField& flagField(std::size_t block) {
        return forest_.getData<field::FlagField>(block, flagId_);
    }

    // ---- AA-pattern state (in-place kernel tiers) --------------------------

    KernelTier kernelTier() const { return tier_; }
    /// True when the simulation runs a single-grid AA tier.
    bool usesAaPattern() const { return isAaTier(tier_); }
    /// Current AA storage layout == parity of the next step to run.
    lbm::AaParity aaParity() const { return lbm::aaParityOfStep(currentStep_); }
    /// Storage pattern of the next step to run.
    lbm::StepPattern stepPattern() const {
        return lbm::stepPatternOf(usesAaPattern(), currentStep_);
    }

    /// The interior fluid x-runs of block `block` (rebuilt with the block
    /// data after every assignment). Block records, the state digest and
    /// the health scan walk the canonical PDFs along them: for every
    /// direction a run's canonical values are one contiguous storage row
    /// (lbm::canonicalSlot under stepPattern()).
    const lbm::FluidRunList& fluidRuns(std::size_t block) const { return runs_[block]; }

    /// The PDF set every slot of a block holds after construction or
    /// applyBlockAssignment(): the rest equilibrium at unit density. Slots
    /// that no kernel, boundary link or exchange writes keep it for the
    /// whole run — the block-record codec relies on it (sim/Checkpoint.h).
    static std::array<real_t, M::Q> initialPdfs();

    /// Measured sweep (collide+stream) seconds per local block, accumulated
    /// since the last reset — the feed of the rebalance LoadModel. Indexed
    /// like forest().blocks().
    const std::vector<double>& blockSweepSeconds() const { return blockSweepSeconds_; }
    void resetBlockSweepSeconds() { blockSweepSeconds_.assign(blockSweepSeconds_.size(), 0.0); }

    /// Global time-step counter: incremented by run(), restored by
    /// checkpointLoad() so a resumed simulation continues its numbering.
    std::uint64_t currentStep() const { return currentStep_; }
    void setCurrentStep(std::uint64_t step) { currentStep_ = step; }

    /// Invoked at the top of every time step with the global step index.
    /// Fault drills hook FaultyComm::beginStep here; anything thrown
    /// propagates out of run() like a communication failure.
    void setPreStepCallback(std::function<void(std::uint64_t)> cb) { preStep_ = std::move(cb); }

    /// Structural hook invoked between time steps (after preStep, before the
    /// ghost exchange). Unlike preStep it is *allowed to mutate the block
    /// structure* — the rebalance subsystem runs its migration epochs here.
    /// Must behave identically (collectively) on every rank.
    void setStepHook(std::function<void(std::uint64_t)> hook) { stepHook_ = std::move(hook); }

    /// Enables the periodic health guard: every policy.checkEvery steps the
    /// run loop allreduces NaN/Inf counts and total mass; on violation it
    /// emergency-checkpoints, logs an ERROR diagnosis and throws HealthError
    /// on all ranks (see sim/Health.h).
    void attachHealthMonitor(const HealthPolicy& policy);
    HealthMonitor* healthMonitor() { return health_.get(); }

    // ---- flight recorder & live performance diagnostics -------------------

    /// Per-step telemetry ring, always recording (see obs/FlightRecorder.h).
    obs::FlightRecorder& flightRecorder() { return flight_; }
    const obs::FlightRecorder& flightRecorder() const { return flight_; }

    /// Filename prefix of `.wfr` dumps (default "walb"): rank N writes
    /// `<prefix>.r<N>.s<step>.wfr` — rank AND step are embedded so that a
    /// dying fleet dumping concurrently (or the same rank dumping again
    /// after a recovery rewind) never clobbers an earlier dump.
    void setFlightRecorderDumpPrefix(const std::string& prefix) { flightDumpPrefix_ = prefix; }

    /// Dumps this rank's flight-recorder history to
    /// `<prefix>.r<rank>.s<step>.wfr`. Runs automatically when a CommError
    /// surfaces on this rank or the health monitor aborts; callable any time
    /// for a voluntary snapshot. Not collective. Returns the written path,
    /// empty on IO failure.
    std::string dumpFlightRecorder(const std::string& reason);

    /// Straggler-detection knobs; see obs::StragglerDetector for the model.
    struct StragglerOptions {
        std::uint64_t detectEvery = 5; ///< steps between collective epochs
        double alpha = 0.3;            ///< EWMA weight of the newest step
        double relThreshold = 1.5;     ///< flag at this multiple of the median
        double madK = 3.0;             ///< and this many MAD-sigmas above it
    };

    /// Turns on periodic collective straggler detection inside run(). Off by
    /// default: each epoch allgathers one double per rank, and a collective
    /// would deadlock worlds where a rank can die mid-run — fault drills
    /// keep it off and read the flight-recorder dumps post mortem instead.
    void enableStragglerDetection(const StragglerOptions& opt);
    void enableStragglerDetection() { enableStragglerDetection(StragglerOptions{}); }
    /// Verdict of the most recent detection epoch (default before the first).
    const obs::StragglerVerdict& lastStragglerVerdict() const { return lastStragglerVerdict_; }
    /// First step at which any rank was flagged as a straggler; -1 if never.
    std::int64_t firstStragglerDetectedStep() const { return firstStragglerStep_; }

    /// Model-vs-measured wiring: this rank's ECM/machine-model MLUP/s
    /// prediction (see perf/Ecm.h). When > 0, run() exports the
    /// `perf.predicted_mlups` and `perf.efficiency` gauges alongside the
    /// measured `sim.mlups`.
    void setPerfReference(double predictedMlups) { perfReferenceMlups_ = predictedMlups; }

    /// Artificial per-step compute load (busy spin inside the sweep phase) —
    /// the lever behind straggler drills and rebalance experiments. Zero
    /// disables.
    void setSweepThrottle(std::chrono::microseconds perStep) { sweepThrottle_ = perStep; }

    /// Boundary parameters are stored here as well as pushed into the live
    /// boundary handlings: applyBlockAssignment() rebuilds the handlings
    /// from scratch, and the rebuilt ones must keep the configured values.
    void setWallVelocity(const Vec3& u);
    void setPressureDensity(real_t rho);

    uint_t localFluidCells() const;
    uint_t globalFluidCells();

    /// Selects the communication-hiding step schedule: ghost sends are
    /// posted first, core cells (stencil never reaches a remote-backed
    /// ghost slice) are swept while the halos are in flight, and the shell
    /// cells follow once finishExchange() has drained them. Bit-exact with
    /// the synchronous schedule — shell cells only run after their halos
    /// landed, and core/shell covers every fluid cell exactly once.
    void setOverlapCommunication(bool on) { overlap_ = on; }

    /// Shell cells of the current core/shell split (rebuilt by
    /// buildBlockData after every migration).
    uint_t localShellCells() const;

    /// Advances `numSteps` time steps with collision operator `op`,
    /// publishing the run's metrics gauges at the end. The two overloads
    /// are the driver's two operators; both run the same step.
    void run(uint_t numSteps, const lbm::SRT& op);
    void run(uint_t numSteps, const lbm::TRT& op);

    // ---- cross-rank observability (collective calls) ----------------------

    /// Per-phase min/avg/max over all ranks of this rank's TimingPool.
    obs::ReducedTimingPool reduceTiming() { return obs::reduceTimingPool(*comm_, timing_); }

    /// Cross-rank reduction of all registered metrics.
    obs::ReducedMetrics reduceMetrics() { return metrics_.reduce(*comm_); }

    /// Prints the Figure-6-style report (per-phase min/avg/max table plus
    /// the communication fraction) on rank 0. Collective.
    void printFigure6Report(std::ostream& os);

    /// Gathers all ranks' phase traces and writes one Chrome trace_event
    /// JSON file from rank 0 (load it in chrome://tracing). Collective;
    /// returns success on rank 0, true elsewhere.
    bool writeChromeTrace(const std::string& path);

    /// Velocity at a global cell, available on every rank (owner
    /// broadcasts through an allreduce; exactly one rank owns the cell).
    Vec3 gatherCellVelocity(const Cell& global);

    /// Total fluid mass over all ranks.
    real_t gatherTotalMass();

    /// Canonical PDF set of one local cell — parity-normalized for the AA
    /// tiers, a plain read otherwise. Macroscopic accessors build on this so
    /// all tiers report physically comparable values. A slot outside the
    /// block's storage is one nothing writes, so it reads as the
    /// initializer's value.
    std::array<real_t, M::Q> cellCanonicalPdfs(std::size_t block, cell_idx_t x, cell_idx_t y,
                                               cell_idx_t z);

    std::size_t bytesLastExchange() const { return comm_scheme_->bytesLastExchange(); }
    /// The ghost-exchange scheme of the current block assignment.
    PdfCommScheme& commScheme() { return *comm_scheme_; }

    /// Collective checkpoint of the full simulation state (PDF + flag
    /// fields, current step). Thin member wrapper over sim::checkpointSave
    /// (see sim/Checkpoint.h for the format) that feeds the obs metrics
    /// `ckpt.bytes` (counter) and `ckpt.seconds` (cumulative gauge). All
    /// ranks return the same success flag.
    bool saveCheckpoint(const std::string& path, std::string* error = nullptr);

    /// Collective restart from a checkpoint written by saveCheckpoint().
    /// Restores the PDF/flag fields of this rank's blocks (CRC-verified)
    /// and the simulation's step counter; returns false with a diagnosis
    /// instead of throwing on a missing/corrupt file.
    bool loadCheckpoint(const std::string& path, std::string* error = nullptr) {
        return checkpointLoad(*this, path, nullptr, error);
    }

    /// Order-independent fingerprint of the distributed fluid state
    /// (collective): the canonical PDFs of every interior fluid cell, so
    /// equal digests <=> bit-exact equal fluid states, whatever the kernel
    /// tier, AA parity, schedule or block assignment (sim/Checkpoint.h).
    std::uint64_t stateDigest() { return checkpointDigest(*this); }

private:
    /// The step loop behind both run() overloads, generic over the collision
    /// operator and instantiated for the two in DistributedSimulation.cpp
    /// only, so every caller links one copy of the kernel and boundary code.
    struct Stepper;

    void buildBlockData();
    std::array<bool, 26> remoteGhostRegions(std::size_t b) const;
    std::unique_ptr<lbm::BoundaryHandling<M>> makeBoundary(std::size_t b);
    void growPdfStorage(std::size_t b, std::shared_ptr<const field::RowTable> rows);
    void setPdfBytesGauge();
    void installErrorObserver();

    /// Configured boundary parameters, reapplied whenever the per-block
    /// boundary handlings are rebuilt (defaults match lbm::BoundaryHandling).
    Vec3 wallVelocity_{0, 0, 0};
    real_t pressureDensity_ = real_c(1);

    vmpi::Comm* comm_;
    KernelTier tier_; ///< checked by driverTier() before anything else is built
    bf::SetupBlockForest setup_; ///< global structure, kept current by migrations
    FlagInitializer initFlags_;  ///< retained: migration re-derives flag fields
    bf::BlockForest forest_;
    lbm::BoundaryFlags masks_{};
    bf::BlockForest::BlockDataID srcId_ = 0, dstId_ = 0, flagId_ = 0;
    std::vector<std::unique_ptr<lbm::BoundaryHandling<M>>> boundaries_;
    std::vector<lbm::FluidRunList> runs_;
    std::vector<lbm::CoreShellRuns> coreShellRuns_;
    bool overlap_ = false;
    // Cumulative ghost-exchange seconds (see step()): exposed = begin
    // (pack + send posting) + finish (blocking drain / unpack); hidden
    // behind the core sweep; core sweep = the overlapped schedule's core
    // boundary handling + sweep, the window that can hide arrivals.
    double commHiddenSeconds_ = 0.0;
    double commBeginSeconds_ = 0.0;
    double commFinishSeconds_ = 0.0;
    double commCoreSweepSeconds_ = 0.0;
    std::unique_ptr<PdfCommScheme> comm_scheme_;
    TimingPool timing_;
    obs::MetricsRegistry metrics_;
    obs::TraceRecorder trace_;
    std::function<void(std::uint64_t)> preStep_;
    std::function<void(std::uint64_t)> stepHook_;
    std::unique_ptr<HealthMonitor> health_;
    std::vector<double> blockSweepSeconds_;
    std::uint64_t currentStep_ = 0;
    double ckptSeconds_ = 0.0;

    // ---- flight recorder & live perf diagnostics state --------------------
    obs::FlightRecorder flight_;
    std::string flightDumpPrefix_ = "walb";
    bool errorDumped_ = false; ///< one automatic dump per surfaced CommError run
    obs::StragglerDetector straggler_;
    StragglerOptions stragglerOptions_;
    bool stragglerEnabled_ = false;
    obs::StragglerVerdict lastStragglerVerdict_;
    std::int64_t firstStragglerStep_ = -1;
    double perfReferenceMlups_ = 0.0;
    std::chrono::microseconds sweepThrottle_{0};
};

} // namespace walb::sim
