#pragma once
/// \file DistributedSimulation.h
/// Multi-block, multi-process LBM driver: the distributed counterpart of
/// SingleBlockSimulation. Each virtual-MPI rank owns the blocks assigned to
/// it by the setup/load-balancing phase, allocates PDF/flag fields for
/// those blocks only, and advances the canonical time step:
///
///   1. ghost-layer PDF exchange — block-to-block copies for local
///      neighbors ("fast local communication"), packed BufferSystem
///      messages for remote ones, direction-sliced to the 5/1/0 PDFs that
///      actually cross each face/edge/corner;
///   2. boundary handling per block;
///   3. fused stream-pull-collide sweep over the fluid intervals;
///   4. src/dst swap.
///
/// A TimingPool records communication vs. compute time — the quantity
/// behind the "% MPI communication" curves of Figure 6.

#include <algorithm>
#include <fstream>
#include <functional>
#include <map>

#include "blockforest/BlockForest.h"
#include "core/BinaryIO.h"
#include "core/Logging.h"
#include "core/Timer.h"
#include "lbm/Boundary.h"
#include "lbm/Communication.h"
#include "lbm/KernelAa.h"
#include "lbm/KernelAaSimd.h"
#include "lbm/KernelD3Q19Simd.h"
#include "lbm/KernelGeneric.h"
#include "lbm/Sparse.h"
#include "obs/FlightRecorder.h"
#include "vmpi/Tags.h"
#include "obs/Metrics.h"
#include "obs/PerfDiag.h"
#include "obs/TimingReduction.h"
#include "obs/Trace.h"
#include "sim/Checkpoint.h"
#include "sim/Health.h"
#include "sim/SingleBlockSimulation.h"
#include "vmpi/BufferSystem.h"

namespace walb::sim {

/// Exchanges ghost-layer PDFs between all blocks of a forest.
class PdfCommScheme {
public:
    using M = lbm::D3Q19;

    /// What the exchange ships. TwoGrid is the classic post-collision ghost
    /// fill; the AA modes are the parity-specific exchanges of the in-place
    /// tiers (see lbm/Communication.h): AaForward before an odd step (ghost
    /// fill, opposing slots), AaReverse before an even step (the sender's
    /// ghost pushes travel back to the interior cells that own them). The
    /// driver re-selects the mode before every exchange from its step
    /// parity.
    enum class ExchangeMode : std::uint8_t { TwoGrid = 0, AaForward = 1, AaReverse = 2 };

    PdfCommScheme(bf::BlockForest& forest, vmpi::Comm& comm,
                  bf::BlockForest::BlockDataID srcId, bool fullPdfSet = false)
        : forest_(forest), comm_(comm), srcId_(srcId), fullPdfSet_(fullPdfSet),
          bufferSystem_(comm, vmpi::tags::kGhostExchange) {
        bufferSystem_.setReceiverInfo(std::vector<int>(forest.neighborProcesses().begin(),
                                                       forest.neighborProcesses().end()));
        // Map (sender block id, sender direction) -> local receiving block;
        // plan the same-rank copies of every exchange mode.
        for (std::size_t b = 0; b < forest_.blocks().size(); ++b) {
            const lbm::PdfField& src = forest_.getData<lbm::PdfField>(b, srcId_);
            for (const auto& n : forest_.blocks()[b].neighbors) {
                if (n.localIndex < 0) {
                    remoteSources_[{n.id, inverseDirIndex(n.dir)}] = b;
                    continue;
                }
                lbm::PdfField& dst =
                    forest_.getData<lbm::PdfField>(std::size_t(n.localIndex), srcId_);
                // The neighbor's ghost slice facing us is in direction
                // -n.dir from its perspective; the reverse mode's ghost
                // pushes of `src` toward n travel into the neighbor's
                // interior along n.dir.
                const std::array<int, 3> toMe = {-n.dir[0], -n.dir[1], -n.dir[2]};
                lbm::addLocalCopy<M>(localCopies(ExchangeMode::TwoGrid), src, dst, toMe);
                lbm::addLocalCopyAaForward<M>(localCopies(ExchangeMode::AaForward), src, dst,
                                              toMe);
                lbm::addLocalCopyAaReverse<M>(localCopies(ExchangeMode::AaReverse), src, dst,
                                              n.dir);
            }
        }
    }

    void setExchangeMode(ExchangeMode mode) {
        WALB_ASSERT(mode == ExchangeMode::TwoGrid || !fullPdfSet_,
                    "AA exchange modes are direction-sliced only");
        mode_ = mode;
    }
    ExchangeMode exchangeMode() const { return mode_; }

    /// Direct ghost copies between same-rank neighbor blocks. Pure local
    /// memory traffic — no message leaves the rank — so the drivers account
    /// it separately from the exposed communication time. Must complete
    /// before any cell whose stencil reads a locally-backed ghost slice is
    /// swept (such cells are *core* in the overlap split, so this runs
    /// before the core sweep). The (neighbor, slot, z) planes of all the
    /// rank's blocks are shared over the rank's OpenMP team, so a few large
    /// blocks balance as well as many small ones.
    void copyLocalGhosts() {
        const lbm::LocalCopyPlan& plan = localCopies(mode_);
#ifdef _OPENMP
#pragma omp parallel
#endif
        plan.run();
    }

    /// Packs one message per remote neighbor rank, ships them all and
    /// starts expecting the incoming ones — the network half of phase 1.
    void packAndPost() {
        bytesLastExchange_ = 0;
        const auto& blocks = forest_.blocks();
        for (std::size_t b = 0; b < blocks.size(); ++b) {
            lbm::PdfField& src = forest_.getData<lbm::PdfField>(b, srcId_);
            for (const auto& n : blocks[b].neighbors) {
                if (n.localIndex >= 0) continue;
                SendBuffer& buf = bufferSystem_.sendBuffer(int(n.process));
                blocks[b].id.toWire(buf);
                buf << std::uint8_t(dirIndex(n.dir));
                switch (mode_) {
                    case ExchangeMode::TwoGrid:
                        lbm::packPdfs<M>(src, n.dir, buf, fullPdfSet_);
                        break;
                    case ExchangeMode::AaForward:
                        lbm::packPdfsAaForward<M>(src, n.dir, buf);
                        break;
                    case ExchangeMode::AaReverse:
                        lbm::packPdfsAaReverse<M>(src, n.dir, buf);
                        break;
                }
            }
        }
        bytesLastExchange_ = bufferSystem_.totalSendBytes();
        bufferSystem_.beginExchange();
    }

    /// Phase 1 of the split exchange: local ghost copies, then pack + ship
    /// one message per remote neighbor rank and start expecting the
    /// incoming ones. After this call the *core* cells (stencil never
    /// reaches a remote-backed ghost slice) are ready to sweep; shell cells
    /// must wait for finishExchange().
    void beginExchange() {
        copyLocalGhosts();
        packAndPost();
    }

    /// Non-blocking: unpacks whatever ghost messages have already arrived
    /// (each message writes only its own remote-backed ghost slices, which
    /// core cells never read — safe to call between core sweeps). Returns
    /// the number of messages drained.
    std::size_t progress() {
        return bufferSystem_.progress(
            [&](int rank, RecvBuffer& buf) { unpackMessage(rank, buf); });
    }

    /// Blocks until every outstanding ghost message has arrived and is
    /// unpacked (arrival order; BufferError and deadline misses surface as
    /// structured CommErrors, see BufferSystem::finishExchange).
    void finishExchange() {
        bufferSystem_.finishExchange(
            [&](int rank, RecvBuffer& buf) { unpackMessage(rank, buf); });
    }

    std::size_t pendingReceives() const { return bufferSystem_.pendingReceives(); }
    bool exchangeInProgress() const { return bufferSystem_.exchangeInProgress(); }
    void abortExchange() { bufferSystem_.abortExchange(); }

    /// Performs one full (synchronous) ghost-layer synchronization of the
    /// src fields. Message unpacks are disjoint per sender, so draining in
    /// arrival order is bit-identical to any fixed order.
    void communicate() {
        beginExchange();
        finishExchange();
    }

    std::size_t bytesLastExchange() const { return bytesLastExchange_; }

    /// Traffic accounting of the underlying neighbor exchange (bytes and
    /// message counts, per-exchange and cumulative) — the feed for the
    /// simulation's metrics counters.
    const vmpi::BufferSystem& bufferSystem() const { return bufferSystem_; }

    static std::size_t dirIndex(const std::array<int, 3>& d) {
        for (std::size_t i = 0; i < 26; ++i)
            if (lbm::neighborhood26[i] == d) return i;
        WALB_ABORT("invalid direction");
    }
    static std::uint8_t inverseDirIndex(const std::array<int, 3>& d) {
        return std::uint8_t(lbm::neighborhood26Inv[dirIndex(d)]);
    }

private:
    /// Unpacks one rank's ghost message into the ghost slices of the
    /// receiving blocks. A truncated or corrupted payload (BufferError)
    /// surfaces as CommError{Corrupt} naming the peer, exactly like a
    /// deadline miss — no silent garbage (conversion done by the
    /// BufferSystem's guarded delivery; the structural checks here throw
    /// CommError directly).
    void unpackMessage(int rank, RecvBuffer& buf) {
        while (!buf.atEnd()) {
            const bf::BlockID senderId = bf::BlockID::fromWire(buf);
            std::uint8_t senderDir = 0;
            buf >> senderDir;
            if (senderDir >= 26)
                throw makeCorruptError(rank, "ghost message names invalid direction " +
                                                 std::to_string(int(senderDir)));
            const auto it = remoteSources_.find({senderId, senderDir});
            if (it == remoteSources_.end())
                throw makeCorruptError(rank, "ghost message for a block this rank "
                                             "does not border (corrupt block id?)");
            lbm::PdfField& dst = forest_.getData<lbm::PdfField>(it->second, srcId_);
            // Receiver-side direction: toward the sender block.
            const auto& sd = lbm::neighborhood26[senderDir];
            const std::array<int, 3> d = {-sd[0], -sd[1], -sd[2]};
            switch (mode_) {
                case ExchangeMode::TwoGrid:
                    lbm::unpackPdfs<M>(dst, d, buf, fullPdfSet_);
                    break;
                case ExchangeMode::AaForward:
                    lbm::unpackPdfsAaForward<M>(dst, d, buf);
                    break;
                case ExchangeMode::AaReverse:
                    lbm::unpackPdfsAaReverse<M>(dst, d, buf);
                    break;
            }
        }
    }

    lbm::LocalCopyPlan& localCopies(ExchangeMode mode) {
        return localCopies_[std::size_t(mode)];
    }

    vmpi::CommError makeCorruptError(int rank, const std::string& detail) const {
        return vmpi::CommError(vmpi::CommError::Kind::Corrupt, rank,
                               vmpi::tags::kGhostExchange, 0.0,
                               detail);
    }

    bf::BlockForest& forest_;
    vmpi::Comm& comm_;
    bf::BlockForest::BlockDataID srcId_;
    bool fullPdfSet_;
    ExchangeMode mode_ = ExchangeMode::TwoGrid;
    vmpi::BufferSystem bufferSystem_;
    std::map<std::pair<bf::BlockID, std::uint8_t>, std::size_t> remoteSources_;
    std::array<lbm::LocalCopyPlan, 3> localCopies_; ///< indexed by ExchangeMode
    std::size_t bytesLastExchange_ = 0;
};

class DistributedSimulation {
public:
    using M = lbm::D3Q19;

    /// Fills the flag field of one block (interior *and* ghost layers —
    /// flags are a pure function of global position, so neighboring blocks
    /// agree on the shared cells without communication).
    using FlagInitializer =
        std::function<void(field::FlagField&, const lbm::BoundaryFlags&,
                           const bf::BlockForest::Block&, const geometry::CellMapping&)>;

    DistributedSimulation(vmpi::Comm& comm, const bf::SetupBlockForest& setup,
                          const FlagInitializer& initFlags,
                          KernelTier tier = KernelTier::Simd)
        : comm_(&comm), setup_(setup), initFlags_(initFlags),
          forest_(setup_, std::uint32_t(comm.rank())), tier_(tier) {
        buildBlockData();
        trace_.setRank(comm.rank());
        installErrorObserver();
    }

    ~DistributedSimulation() { comm_->setErrorObserver(nullptr); }

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
    /// migrator) stash/transfer field payloads around this call. Must be
    /// invoked with the identical `ownerBySetupIndex` on every rank.
    void applyBlockAssignment(const std::vector<std::uint32_t>& ownerBySetupIndex) {
        WALB_ASSERT(ownerBySetupIndex.size() == setup_.numBlocks(),
                    "assignment covers " << ownerBySetupIndex.size() << " of "
                                         << setup_.numBlocks() << " blocks");
        WALB_ASSERT(!comm_scheme_ || !comm_scheme_->exchangeInProgress(),
                    "block migration while a ghost exchange is in flight");
        auto& blocks = setup_.blocks();
        for (std::size_t i = 0; i < blocks.size(); ++i) {
            WALB_ASSERT(ownerBySetupIndex[i] < std::uint32_t(comm_->size()),
                        "block assigned to rank " << ownerBySetupIndex[i] << " of "
                                                  << comm_->size());
            blocks[i].process = ownerBySetupIndex[i];
        }
        forest_ = bf::BlockForest(setup_, std::uint32_t(comm_->rank()));
        boundaries_.clear();
        runs_.clear();
        cellLists_.clear();
        coreShellRuns_.clear();
        coreShellCells_.clear();
        buildBlockData();
    }

    /// One ghost-layer exchange outside the step loop — the migration /
    /// restart epilogue that re-establishes cross-block consistency.
    /// Parity-aware for the AA tiers: at parity Odd it runs the forward
    /// (ghost-fill) exchange, at parity Even the reverse exchange that
    /// completes the interior edge slots from the neighbors' ghost pushes —
    /// in both cases the same exchange the next step would open with, so an
    /// extra refill is idempotent. Collective.
    void refillGhostLayers() {
        syncExchangeMode();
        comm_scheme_->communicate();
    }

    /// Abandons any in-flight ghost exchange without draining it — the
    /// recovery entry point: after a rank failure the outstanding receives
    /// will never complete (or carry a half-stepped epoch that the rewind
    /// discards), so the exchange is dropped rather than finished.
    void abortGhostExchange() {
        if (comm_scheme_) comm_scheme_->abortExchange();
    }

    bf::BlockForest& forest() { return forest_; }
    const bf::BlockForest& forest() const { return forest_; }
    const lbm::BoundaryFlags& masks() const { return masks_; }
    TimingPool& timing() { return timing_; }
    obs::MetricsRegistry& metrics() { return metrics_; }
    obs::TraceRecorder& trace() { return trace_; }
    vmpi::Comm& comm() { return *comm_; }

    /// Swaps the communicator under a live simulation — the recovery shrink
    /// (walb::recover): after a rank failure the survivors rebind to their
    /// ShrunkComm and carry on. Moves the last-breath error observer to the
    /// new comm. The caller MUST follow up with applyBlockAssignment()
    /// (which rebuilds the ghost-exchange BufferSystem on the new comm)
    /// before the next step or collective.
    void rebindComm(vmpi::Comm& comm) {
        comm_->setErrorObserver(nullptr);
        comm_ = &comm;
        installErrorObserver();
    }

    /// Re-arms the one-shot on-error flight dump — called after a completed
    /// recovery so the *next* failure leaves telemetry again.
    void resetErrorDump() { errorDumped_ = false; }

    /// Direct access to the per-block fields (checkpointing, health scans).
    lbm::PdfField& pdfField(std::size_t block) {
        return forest_.getData<lbm::PdfField>(block, srcId_);
    }
    /// The destination PDF field (post-swap history buffer). Migration must
    /// move it along with pdfField(): boundary handling writes into whichever
    /// buffer is src each step, so both buffers carry live state. The AA
    /// tiers have no shadow grid — this is a token 1-cell allocation there,
    /// and checkpoint/migration skip it.
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

    /// The canonical (physical post-collision, parity-normalized) PDF view
    /// of block `block`. Two-grid tiers: the live src field itself. AA
    /// tiers: a rank-wide scratch field holding P(x, a) for every interior
    /// fluid cell and zeros elsewhere — consumed by checkpoint save,
    /// digests and migration, and invalidated by the next call. The AA view
    /// is migration- and schedule-invariant: it never depends on which
    /// neighbor currently backs a ghost region.
    const lbm::PdfField& canonicalPdfField(std::size_t block) {
        if (!usesAaPattern()) return pdfField(block);
        lbm::PdfField& canon = canonicalScratch();
        canon.fill(real_c(0));
        const lbm::PdfField& src = pdfField(block);
        const auto& flags = flagField(block);
        const lbm::AaParity parity = aaParity();
        flags.forAllInterior([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
            if (!(flags.get(x, y, z) & masks_.fluid)) return;
            lbm::setPdfs<M>(canon, x, y, z, lbm::aaCanonicalPdfs(src, parity, x, y, z));
        });
        return canon;
    }

    /// Scatters a canonical PDF field (same layout as canonicalPdfField
    /// returns) into block `block`'s live AA storage under the current
    /// parity: the whole allocation is zeroed, fluid-cell values land in
    /// their parity slots — at parity Even this also re-creates the block's
    /// own ghost pushes. Interior edge slots produced by *neighbor* blocks
    /// stay zero until refillGhostLayers() (or the next step's exchange)
    /// completes them. AA tiers only.
    void applyCanonicalPdf(std::size_t block, const lbm::PdfField& canon) {
        WALB_ASSERT(usesAaPattern(), "canonical scatter is an AA-tier operation");
        lbm::PdfField& dst = pdfField(block);
        dst.fill(real_c(0));
        const auto& flags = flagField(block);
        const lbm::AaParity parity = aaParity();
        flags.forAllInterior([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
            if (!(flags.get(x, y, z) & masks_.fluid)) return;
            lbm::aaSetCanonicalPdfs(dst, parity, x, y, z, lbm::getPdfs<M>(canon, x, y, z));
        });
    }

    /// The lazily-allocated block-sized staging field behind
    /// canonicalPdfField — exposed so checkpoint load / migration unpack
    /// can deserialize into it before applyCanonicalPdf.
    lbm::PdfField& canonicalScratch() {
        if (!canonScratch_)
            canonScratch_ = std::make_unique<lbm::PdfField>(lbm::makePdfField<M>(
                forest_.cellsX(), forest_.cellsY(), forest_.cellsZ()));
        return *canonScratch_;
    }

    /// Measured sweep (collide+stream) seconds per local block, accumulated
    /// since the last reset — the feed of the rebalance LoadModel. Indexed
    /// like forest().blocks().
    const std::vector<double>& blockSweepSeconds() const { return blockSweepSeconds_; }
    void resetBlockSweepSeconds() {
        std::fill(blockSweepSeconds_.begin(), blockSweepSeconds_.end(), 0.0);
    }

    /// Global time-step counter: incremented by run(), restored by
    /// checkpointLoad() so a resumed simulation continues its numbering.
    std::uint64_t currentStep() const { return currentStep_; }
    void setCurrentStep(std::uint64_t step) { currentStep_ = step; }

    /// Invoked at the top of every time step with the global step index.
    /// Fault drills hook FaultyComm::beginStep here; anything thrown
    /// propagates out of run() like a communication failure.
    void setPreStepCallback(std::function<void(std::uint64_t)> cb) {
        preStep_ = std::move(cb);
    }

    /// Structural hook invoked between time steps (after preStep, before the
    /// ghost exchange). Unlike preStep it is *allowed to mutate the block
    /// structure* — the rebalance subsystem runs its migration epochs here.
    /// Must behave identically (collectively) on every rank.
    void setStepHook(std::function<void(std::uint64_t)> hook) {
        stepHook_ = std::move(hook);
    }

    /// Enables the periodic health guard: every policy.checkEvery steps the
    /// run loop allreduces NaN/Inf counts and total mass; on violation it
    /// emergency-checkpoints, logs an ERROR diagnosis and throws HealthError
    /// on all ranks (see sim/Health.h).
    void attachHealthMonitor(const HealthPolicy& policy) {
        health_ = std::make_unique<HealthMonitor>(policy);
        health_->setViolationHook(
            [this](const HealthReport&) { dumpFlightRecorder("health-violation"); });
    }
    HealthMonitor* healthMonitor() { return health_.get(); }

    // ---- flight recorder & live performance diagnostics -------------------

    /// Per-step telemetry ring, always recording (see obs/FlightRecorder.h).
    obs::FlightRecorder& flightRecorder() { return flight_; }
    const obs::FlightRecorder& flightRecorder() const { return flight_; }

    /// Filename prefix of `.wfr` dumps (default "walb"): rank N writes
    /// `<prefix>.r<N>.s<step>.wfr` — rank AND step are embedded so that a
    /// dying fleet dumping concurrently (or the same rank dumping again
    /// after a recovery rewind) never clobbers an earlier dump.
    void setFlightRecorderDumpPrefix(const std::string& prefix) {
        flightDumpPrefix_ = prefix;
    }
    const std::string& flightRecorderDumpPrefix() const { return flightDumpPrefix_; }

    /// Dumps this rank's flight-recorder history to
    /// `<prefix>.r<rank>.s<step>.wfr`. Runs automatically when a CommError
    /// surfaces on this rank or the health monitor aborts; callable any time
    /// for a voluntary snapshot. Not collective. Returns the written path,
    /// empty on IO failure.
    std::string dumpFlightRecorder(const std::string& reason) {
        const std::string path = flightDumpPrefix_ + ".r" +
                                 std::to_string(comm_->rank()) + ".s" +
                                 std::to_string(currentStep_) + ".wfr";
        std::string err;
        if (!flight_.dump(path, comm_->rank(), comm_->size(), &err)) {
            WALB_LOG_ERROR("flight recorder dump to '" << path << "' failed: " << err);
            return "";
        }
        WALB_LOG_INFO("flight recorder dumped to '" << path << "' (" << flight_.size()
                                                    << " samples, reason: " << reason
                                                    << ")");
        return path;
    }

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
    void enableStragglerDetection(const StragglerOptions& opt) {
        stragglerOptions_ = opt;
        straggler_ = obs::StragglerDetector(opt.alpha, opt.relThreshold, opt.madK);
        stragglerEnabled_ = true;
    }
    void enableStragglerDetection() { enableStragglerDetection(StragglerOptions{}); }
    const obs::StragglerDetector& stragglerDetector() const { return straggler_; }
    /// Verdict of the most recent detection epoch (default before the first).
    const obs::StragglerVerdict& lastStragglerVerdict() const {
        return lastStragglerVerdict_;
    }
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
    void setWallVelocity(const Vec3& u) {
        wallVelocity_ = u;
        for (auto& b : boundaries_) b->setWallVelocity(u);
    }
    void setPressureDensity(real_t rho) {
        pressureDensity_ = rho;
        for (auto& b : boundaries_) b->setPressureDensity(rho);
    }

    uint_t localFluidCells() const {
        uint_t n = 0;
        for (const auto& r : runs_) n += r.fluidCells;
        return n;
    }
    uint_t globalFluidCells() {
        // walb-lint: allow(blocking): diagnostic collective, reached by all ranks; the run comm's recv deadline applies
        return vmpi::allreduceSum(*comm_, std::uint64_t(localFluidCells()));
    }

    /// Selects the communication-hiding step schedule: ghost sends are
    /// posted first, core cells (stencil never reaches a remote-backed
    /// ghost slice) are swept while the halos are in flight, and the shell
    /// cells follow once finishExchange() has drained them. Bit-exact with
    /// the synchronous schedule — shell cells only run after their halos
    /// landed, and core/shell covers every fluid cell exactly once.
    void setOverlapCommunication(bool on) { overlap_ = on; }
    bool overlapCommunication() const { return overlap_; }

    /// Core/shell split sizes of the current block assignment (rebuilt by
    /// buildBlockData after every migration).
    uint_t localCoreCells() const {
        uint_t n = 0;
        for (const auto& cs : coreShellRuns_) n += cs.core.fluidCells;
        return n;
    }
    uint_t localShellCells() const {
        uint_t n = 0;
        for (const auto& cs : coreShellRuns_) n += cs.shell.fluidCells;
        return n;
    }

    /// Cumulative seconds of ghost-exchange latency that were overlapped
    /// with (hidden behind) the core sweep, resp. left exposed on the
    /// critical path (pack/send + blocking drain). Sync schedule: all
    /// exposed. Feeds `comm.hidden_seconds` / `comm.exposed_seconds` /
    /// `comm.hidden_fraction`.
    double commHiddenSeconds() const { return commHiddenSeconds_; }
    double commExposedSeconds() const { return commExposedSeconds_; }

    template <typename Op>
    void run(uint_t numSteps, const Op& op) {
        // Cached metric handles: one map lookup per run, not per step.
        obs::Counter& steps = metrics_.counter("sim.steps");
        obs::Counter& bytesSent = metrics_.counter("comm.bytesSent");
        obs::Counter& bytesRecv = metrics_.counter("comm.bytesReceived");
        obs::Counter& msgsSent = metrics_.counter("comm.messagesSent");
        obs::Counter& msgsRecv = metrics_.counter("comm.messagesReceived");
        obs::Histogram& stepSecondsHist = metrics_.histogram(
            "sim.step_seconds", obs::logHistogramEdges(1e-6, 10.0, 4));
        // Timer handles are stable for the pool's lifetime (node-based map),
        // so the per-step phase deltas below cost two subtractions.
        Timer& boundaryTimer = timing_["boundary"];
        Timer& collideTimer = timing_["collideStream"];

        Timer wall;
        wall.start();
        for (uint_t step = 0; step < numSteps; ++step) {
            if (preStep_) preStep_(currentStep_);
            // The structural hook may replace forest_/comm_scheme_ (block
            // migration), so per-step state is re-read below, never cached
            // across iterations.
            if (stepHook_) stepHook_(currentStep_);
            const double boundary0 = boundaryTimer.total();
            const double collide0 = collideTimer.total();
            const auto step0 = std::chrono::steady_clock::now();
            if (overlap_) stepOverlapped(op);
            else stepSynchronous(op);
            const double stepSeconds =
                elapsedSeconds(step0, std::chrono::steady_clock::now());
            const vmpi::BufferSystem& bs = comm_scheme_->bufferSystem();
            bytesSent.inc(bs.lastSendBytes());
            bytesRecv.inc(bs.lastRecvBytes());
            msgsSent.inc(bs.lastSendMessages());
            msgsRecv.inc(bs.lastRecvMessages());
            steps.inc();

            obs::StepSample sample;
            sample.step = currentStep_;
            sample.collideSeconds = collideTimer.total() - collide0;
            sample.shellSeconds = stepShellSeconds_;
            sample.boundarySeconds = boundaryTimer.total() - boundary0;
            sample.packSeconds = stepPackSeconds_;
            sample.exchangeSeconds = stepExchangeSeconds_;
            sample.totalSeconds = stepSeconds;
            sample.mlups =
                stepSeconds > 0 ? double(localFluidCells()) / stepSeconds / 1e6 : 0.0;
            sample.imbalance = straggler_.lastImbalance();
            sample.bytesMoved = bs.lastSendBytes() + bs.lastRecvBytes();
            sample.messages = bs.lastSendMessages() + bs.lastRecvMessages();
            sample.kernelTier = std::uint8_t(tier_);
            // currentStep_ still indexes the step that just ran, so this is
            // the parity that step's kernels executed under.
            sample.aaParity = usesAaPattern() ? std::uint8_t(aaParity()) : 0;
            flight_.record(sample);
            stepSecondsHist.record(stepSeconds);
            // The detector smooths this rank's *work* share, not the whole
            // step: bulk-synchronous stepping equalizes total step times (a
            // slow rank surfaces as exchange wait on every fast rank), so
            // only the non-wait share separates a straggler from its fleet.
            straggler_.record(std::max(stepSeconds - stepExchangeSeconds_, 0.0));

            ++currentStep_;
            if (stragglerEnabled_ && stragglerOptions_.detectEvery > 0 &&
                currentStep_ % stragglerOptions_.detectEvery == 0)
                detectStragglers();
            if (health_ && health_->policy().checkEvery > 0 &&
                currentStep_ % health_->policy().checkEvery == 0)
                health_->check(*this, currentStep_);
        }
        wall.stop();
        if (wall.total() > 0)
            metrics_.gauge("sim.mlups").set(double(localFluidCells()) * double(numSteps) /
                                            wall.total() / 1e6);
        metrics_.gauge("sim.fluidCells").set(double(localFluidCells()));
        if (usesAaPattern())
            metrics_.gauge("perf.aa_parity").set(double(std::uint8_t(aaParity())));
        metrics_.gauge("comm.hidden_seconds").set(commHiddenSeconds_);
        metrics_.gauge("comm.exposed_seconds").set(commExposedSeconds_);
        metrics_.gauge("comm.begin_seconds").set(commBeginSeconds_);
        metrics_.gauge("comm.finish_seconds").set(commFinishSeconds_);
        const double commTotal = commHiddenSeconds_ + commExposedSeconds_;
        metrics_.gauge("comm.hidden_fraction")
            .set(commTotal > 0 ? commHiddenSeconds_ / commTotal : 0.0);
        if (perfReferenceMlups_ > 0.0) {
            metrics_.gauge("perf.predicted_mlups").set(perfReferenceMlups_);
            metrics_.gauge("perf.efficiency")
                .set(metrics_.gauge("sim.mlups").value() / perfReferenceMlups_);
        }
    }

    // ---- cross-rank observability (collective calls) ----------------------

    /// Per-phase min/avg/max over all ranks of this rank's TimingPool.
    obs::ReducedTimingPool reduceTiming() { return obs::reduceTimingPool(*comm_, timing_); }

    /// Cross-rank reduction of all registered metrics.
    obs::ReducedMetrics reduceMetrics() { return metrics_.reduce(*comm_); }

    /// Prints the Figure-6-style report (per-phase min/avg/max table plus
    /// the communication fraction) on rank 0. Collective.
    void printFigure6Report(std::ostream& os) {
        const obs::ReducedTimingPool reduced = reduceTiming();
        const obs::ReducedMetrics metrics = reduceMetrics();
        if (comm_->rank() != 0) return;
        const auto it = metrics.gauges.find("sim.mlups");
        auto gaugeAvg = [&](const char* name, double fallback) {
            const auto g = metrics.gauges.find(name);
            return g != metrics.gauges.end() ? g->second.avg() : fallback;
        };
        const auto hist = metrics.histograms.find("sim.step_seconds");
        obs::printFigure6Report(os, reduced, "communication",
                                it != metrics.gauges.end() ? it->second.avg() : 0.0,
                                gaugeAvg("comm.hidden_seconds", -1.0),
                                gaugeAvg("comm.exposed_seconds", -1.0),
                                hist != metrics.histograms.end() ? &hist->second
                                                                 : nullptr);
    }

    /// Gathers all ranks' phase traces and writes one Chrome trace_event
    /// JSON file from rank 0 (load it in chrome://tracing). Collective;
    /// returns success on rank 0, true elsewhere.
    bool writeChromeTrace(const std::string& path) {
        const auto events = obs::TraceRecorder::gather(*comm_, trace_);
        const std::uint64_t dropped = obs::TraceRecorder::gatherDropped(*comm_, trace_);
        if (comm_->rank() != 0) return true;
        std::ofstream os(path, std::ios::binary);
        if (!os) return false;
        obs::TraceRecorder::writeChromeJson(os, events, "walb", dropped);
        return bool(os);
    }

    /// Velocity at a global cell, available on every rank (owner
    /// broadcasts through an allreduce; exactly one rank owns the cell).
    Vec3 gatherCellVelocity(const Cell& global) {
        double data[4] = {0, 0, 0, 0};
        const std::int32_t b = forest_.findBlockForGlobalCell(global);
        if (b >= 0) {
            const Cell off = forest_.globalCellOffset(forest_.blocks()[std::size_t(b)]);
            const Cell local = global - off;
            const auto pdfs = cellCanonicalPdfs(std::size_t(b), local.x, local.y, local.z);
            const Vec3 u = lbm::momentum<M>(pdfs) / lbm::density<M>(pdfs);
            data[0] = u[0];
            data[1] = u[1];
            data[2] = u[2];
            data[3] = 1;
        }
        // walb-lint: allow(blocking): diagnostic collective, reached by all ranks; the run comm's recv deadline applies
        comm_->allreduce(std::span<double>(data, 4), vmpi::ReduceOp::Sum);
        WALB_ASSERT(data[3] == 1.0, "global cell owned by " << data[3] << " ranks");
        return {data[0], data[1], data[2]};
    }

    /// Total fluid mass over all ranks.
    real_t gatherTotalMass() {
        real_t mass = 0;
        for (std::size_t b = 0; b < forest_.blocks().size(); ++b) {
            const auto& flags = forest_.getData<field::FlagField>(b, flagId_);
            flags.forAllInterior([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
                if (flags.get(x, y, z) & masks_.fluid)
                    mass += lbm::density<M>(cellCanonicalPdfs(b, x, y, z));
            });
        }
        // walb-lint: allow(blocking): diagnostic collective, reached by all ranks; the run comm's recv deadline applies
        return vmpi::allreduceSum(*comm_, mass);
    }

    /// Canonical PDF set of one local cell — parity-normalized for the AA
    /// tiers, a plain read otherwise. Macroscopic accessors build on this so
    /// all tiers report physically comparable values.
    std::array<real_t, M::Q> cellCanonicalPdfs(std::size_t block, cell_idx_t x, cell_idx_t y,
                                               cell_idx_t z) {
        const auto& src = forest_.getData<lbm::PdfField>(block, srcId_);
        if (usesAaPattern()) return lbm::aaCanonicalPdfs(src, aaParity(), x, y, z);
        return lbm::getPdfs<M>(src, x, y, z);
    }

    std::size_t bytesLastExchange() const { return comm_scheme_->bytesLastExchange(); }

    /// Collective checkpoint of the full simulation state (PDF + flag
    /// fields, current step). Thin member wrapper over sim::checkpointSave
    /// (see sim/Checkpoint.h for the format) that feeds the obs metrics
    /// `ckpt.bytes` (counter) and `ckpt.seconds` (cumulative gauge). All
    /// ranks return the same success flag.
    bool saveCheckpoint(const std::string& path, std::string* error = nullptr) {
        Timer t;
        t.start();
        std::size_t bytes = 0;
        const bool ok = checkpointSave(*this, path, currentStep_, &bytes, error);
        t.stop();
        metrics_.counter("ckpt.bytes").inc(bytes);
        ckptSeconds_ += t.total();
        metrics_.gauge("ckpt.seconds").set(ckptSeconds_);
        return ok;
    }

    /// Collective restart from a checkpoint written by saveCheckpoint().
    /// Restores the PDF/flag fields of this rank's blocks (CRC-verified)
    /// and the simulation's step counter; returns false with a diagnosis
    /// instead of throwing on a missing/corrupt file.
    bool loadCheckpoint(const std::string& path, std::string* error = nullptr) {
        return checkpointLoad(*this, path, nullptr, error);
    }

    /// Order-independent fingerprint of the complete distributed PDF state
    /// (collective). Equal digests <=> bit-exact equal states.
    std::uint64_t stateDigest() { return checkpointDigest(*this); }

private:
    /// Configured boundary parameters, reapplied whenever the per-block
    /// boundary handlings are rebuilt (defaults match lbm::BoundaryHandling).
    Vec3 wallVelocity_{0, 0, 0};
    real_t pressureDensity_ = real_c(1);

    static double elapsedSeconds(std::chrono::steady_clock::time_point a,
                                 std::chrono::steady_clock::time_point b) {
        return std::chrono::duration<double>(b - a).count();
    }

    /// One fluid sweep of block b restricted to the given run/cell subset
    /// (whole block, core or shell), dispatched by kernel tier. The Generic
    /// tier runs its per-cell kernel over the run list — the run lists hold
    /// exactly the flag-tested fluid cells, so results are bit-identical to
    /// the whole-interior flag-tested sweep.
    ///
    /// `chunk`/`numChunks` select a contiguous slice of the subset (runs for
    /// the interval tiers, cells for the cell-list tier); the overlapped
    /// schedule sweeps in several chunks so it can poll for halo arrivals
    /// between them. The union over all chunks is exactly the full subset,
    /// and every cell is updated by the same kernel either way.
    template <typename Op>
    void sweepSubset(std::size_t b, const lbm::FluidRunList& runs,
                     const std::vector<Cell>& cells, const Op& op,
                     std::size_t chunk = 0, std::size_t numChunks = 1) {
        auto& src = forest_.getData<lbm::PdfField>(b, srcId_);
        auto& dst = forest_.getData<lbm::PdfField>(b, dstId_);
        const auto slice = [&](std::size_t n) {
            return std::pair<std::size_t, std::size_t>{n * chunk / numChunks,
                                                       n * (chunk + 1) / numChunks};
        };
        const auto sweepBegin = std::chrono::steady_clock::now();
        switch (tier_) {
            case KernelTier::Generic: {
                const auto [lo, hi] = slice(runs.runs.size());
                for (std::size_t i = lo; i < hi; ++i) {
                    const auto& r = runs.runs[i];
                    for (cell_idx_t x = r.xBegin; x <= r.xEnd; ++x)
                        lbm::streamCollideGenericCell<M>(src, dst, x, r.y, r.z, op);
                }
                break;
            }
            case KernelTier::D3Q19: {
                const auto [lo, hi] = slice(cells.size());
                lbm::streamCollideCellList(src, dst, cells.data() + lo, hi - lo, op);
                break;
            }
            case KernelTier::Simd: {
                const auto [lo, hi] = slice(runs.runs.size());
                lbm::streamCollideRuns(src, dst, runs.runs.data() + lo, hi - lo, op,
                                       simdKernel_);
                break;
            }
            case KernelTier::Aa: {
                const auto [lo, hi] = slice(cells.size());
                lbm::aaCollideCellList(src, aaParity(), cells.data() + lo, hi - lo, op);
                break;
            }
            case KernelTier::AaSimd: {
                const auto [lo, hi] = slice(runs.runs.size());
                lbm::aaCollideRuns(src, aaParity(), runs.runs.data() + lo, hi - lo, op,
                                   aaSimdKernel_);
                break;
            }
        }
        blockSweepSeconds_[b] +=
            elapsedSeconds(sweepBegin, std::chrono::steady_clock::now());
    }

    /// One collective straggler-detection epoch (enableStragglerDetection):
    /// allgathers the per-rank step-time EWMAs, publishes the verdict as
    /// gauges and drops a zero-length trace marker when anyone is flagged.
    void detectStragglers() {
        if (!straggler_.hasSample()) return;
        lastStragglerVerdict_ = straggler_.detect(*comm_, currentStep_);
        const obs::StragglerVerdict& v = lastStragglerVerdict_;
        metrics_.gauge("perf.straggler_ranks").set(double(v.stragglers.size()));
        metrics_.gauge("perf.step_seconds_ewma").set(straggler_.ewma());
        metrics_.gauge("perf.fleet_median_step_seconds").set(v.median);
        metrics_.gauge("perf.imbalance").set(straggler_.lastImbalance());
        if (v.stragglers.empty()) return;
        if (firstStragglerStep_ < 0) firstStragglerStep_ = std::int64_t(v.step);
        trace_.begin("straggler-detected");
        trace_.end();
        if (comm_->rank() == 0) {
            std::string who;
            for (int r : v.stragglers)
                who += (who.empty() ? "" : ",") + std::to_string(r);
            WALB_LOG_WARNING("step " << currentStep_ << ": straggler rank(s) " << who
                                     << " (fleet median step " << v.median << " s)");
        }
    }

    /// Busy spin for the configured throttle — unlike a sleep, the core
    /// stays busy, which is what a genuinely slow sweep looks like to the
    /// scheduler and to the phase clocks.
    void applySweepThrottle() {
        if (sweepThrottle_.count() <= 0) return;
        const auto until = std::chrono::steady_clock::now() + sweepThrottle_;
        while (std::chrono::steady_clock::now() < until) {
        }
    }

    void logExchangeError(const vmpi::CommError& e) {
        if (e.kind == vmpi::CommError::Kind::DeadlineExceeded)
            metrics_.counter("comm.deadline_misses").inc();
        WALB_LOG_ERROR("step " << currentStep_ << ": ghost exchange failed: " << e.what());
    }

    /// The original blocking schedule: full ghost exchange, then boundary
    /// handling, then the fluid sweep. All communication time is exposed.
    template <typename Op>
    void stepSynchronous(const Op& op) {
        stepPackSeconds_ = stepExchangeSeconds_ = stepShellSeconds_ = 0.0;
        syncExchangeMode();
        try {
            ScopedTimer t(timing_["communication"]);
            obs::ScopedTrace tr(trace_, "communication");
            // Local same-rank ghost copies are memory traffic, not exposed
            // network time — excluded from the exposed gauge in both
            // schedules so sync and overlap numbers stay comparable.
            comm_scheme_->copyLocalGhosts();
            const auto t0 = std::chrono::steady_clock::now();
            comm_scheme_->packAndPost();
            const auto t1 = std::chrono::steady_clock::now();
            comm_scheme_->finishExchange();
            const auto t2 = std::chrono::steady_clock::now();
            stepPackSeconds_ = elapsedSeconds(t0, t1);
            stepExchangeSeconds_ = elapsedSeconds(t1, t2);
            commExposedSeconds_ += elapsedSeconds(t0, t2);
        } catch (const vmpi::CommError& e) {
            logExchangeError(e);
            throw;
        }
        {
            ScopedTimer t(timing_["boundary"]);
            obs::ScopedTrace tr(trace_, "boundary");
            // One team region for all blocks: each entry point shares its
            // links over the team (Boundary.h).
#ifdef _OPENMP
#pragma omp parallel
#endif
            for (std::size_t b = 0; b < forest_.blocks().size(); ++b) {
                auto& src = forest_.getData<lbm::PdfField>(b, srcId_);
                if (usesAaPattern()) boundaries_[b]->applyAa(src, aaParity());
                else boundaries_[b]->apply(src);
            }
        }
        {
            ScopedTimer t(timing_["collideStream"]);
            obs::ScopedTrace tr(trace_, "collideStream");
            for (std::size_t b = 0; b < forest_.blocks().size(); ++b) {
                sweepSubset(b, runs_[b], cellLists_[b], op);
                if (!usesAaPattern())
                    forest_.getData<lbm::PdfField>(b, srcId_)
                        .swapDataWith(forest_.getData<lbm::PdfField>(b, dstId_));
            }
            applySweepThrottle();
        }
    }

    /// The communication-hiding schedule (tentpole of the overlap issue):
    ///
    ///   1. beginExchange — local ghost copies, pack + post remote sends,
    ///      start expecting the halo messages;
    ///   2. core boundary links + core sweep while halos are in flight,
    ///      draining arrivals opportunistically between blocks (unpack
    ///      writes only remote-backed ghost slices, which no core cell
    ///      reads);
    ///   3. finishExchange — block for the remaining halos, then shell
    ///      boundary links (their slots would be clobbered by unpack, and
    ///      their readers are provably shell cells) and the shell sweep.
    ///
    /// src/dst swap happens at the very end: a pull-scheme step only reads
    /// src and writes dst, and blocks never read each other's fields
    /// directly, so deferring the per-block swap is bit-exact.
    ///
    /// Accounting: exposed = pack/send + blocking-drain time on the
    /// critical path; hidden = the part of the halo-arrival window
    /// (beginExchange end -> last arrival) covered by the core sweep.
    template <typename Op>
    void stepOverlapped(const Op& op) {
        stepPackSeconds_ = stepExchangeSeconds_ = stepShellSeconds_ = 0.0;
        syncExchangeMode();
        std::chrono::steady_clock::time_point beginEnd;
        double exposed = 0;
        try {
            ScopedTimer t(timing_["communication"]);
            obs::ScopedTrace tr(trace_, "communication");
            // Local copies excluded from the exposed gauge, as in
            // stepSynchronous.
            comm_scheme_->copyLocalGhosts();
            const auto t0 = std::chrono::steady_clock::now();
            comm_scheme_->packAndPost();
            beginEnd = std::chrono::steady_clock::now();
            exposed += elapsedSeconds(t0, beginEnd);
            commBeginSeconds_ += elapsedSeconds(t0, beginEnd);
            stepPackSeconds_ = elapsedSeconds(t0, beginEnd);
        } catch (const vmpi::CommError& e) {
            logExchangeError(e);
            throw;
        }
        auto lastArrival = beginEnd;

        {
            ScopedTimer t(timing_["boundary"]);
            obs::ScopedTrace tr(trace_, "boundary");
#ifdef _OPENMP
#pragma omp parallel
#endif
            for (std::size_t b = 0; b < forest_.blocks().size(); ++b) {
                auto& src = forest_.getData<lbm::PdfField>(b, srcId_);
                if (usesAaPattern()) {
                    // The in-place core sweep rewrites the slots the shell
                    // pressure links' velocity gather reads, so the gather
                    // runs now, from the pre-sweep state; applyAaShell
                    // writes the stashed values after finishExchange.
                    boundaries_[b]->precomputeAaShellPressure(src, aaParity());
                    boundaries_[b]->applyAaCore(src, aaParity());
                } else {
                    boundaries_[b]->applyCore(src);
                }
            }
        }
        {
            ScopedTimer t(timing_["collideStream"]);
            obs::ScopedTrace tr(trace_, "collideStream");
            // Sweep each block's core in chunks, polling for halo arrivals
            // in between: the earlier an arrival is drained, the more of the
            // exchange latency the sweep hides.
            constexpr std::size_t kArrivalPollChunks = 8;
            for (std::size_t b = 0; b < forest_.blocks().size(); ++b) {
                for (std::size_t chunk = 0; chunk < kArrivalPollChunks; ++chunk) {
                    sweepSubset(b, coreShellRuns_[b].core, coreShellCells_[b].core, op,
                                chunk, kArrivalPollChunks);
                    if (comm_scheme_->exchangeInProgress() &&
                        comm_scheme_->progress() > 0)
                        lastArrival = std::chrono::steady_clock::now();
                }
            }
        }
        try {
            ScopedTimer t(timing_["communication"]);
            obs::ScopedTrace tr(trace_, "communication");
            const bool pendingBefore = comm_scheme_->pendingReceives() > 0;
            const auto f0 = std::chrono::steady_clock::now();
            comm_scheme_->finishExchange();
            const auto f1 = std::chrono::steady_clock::now();
            if (pendingBefore) lastArrival = f1;
            const double finishSeconds = elapsedSeconds(f0, f1);
            exposed += finishSeconds;
            commFinishSeconds_ += finishSeconds;
            stepExchangeSeconds_ = finishSeconds;
            commHiddenSeconds_ +=
                std::max(0.0, elapsedSeconds(beginEnd, lastArrival) - finishSeconds);
        } catch (const vmpi::CommError& e) {
            logExchangeError(e);
            throw;
        }
        commExposedSeconds_ += exposed;

        {
            ScopedTimer t(timing_["boundary"]);
            obs::ScopedTrace tr(trace_, "boundary");
#ifdef _OPENMP
#pragma omp parallel
#endif
            for (std::size_t b = 0; b < forest_.blocks().size(); ++b) {
                auto& src = forest_.getData<lbm::PdfField>(b, srcId_);
                if (usesAaPattern()) boundaries_[b]->applyAaShell(src, aaParity());
                else boundaries_[b]->applyShell(src);
            }
        }
        {
            ScopedTimer t(timing_["collideStream"]);
            obs::ScopedTrace tr(trace_, "collideStream");
            const auto shell0 = std::chrono::steady_clock::now();
            for (std::size_t b = 0; b < forest_.blocks().size(); ++b)
                sweepSubset(b, coreShellRuns_[b].shell, coreShellCells_[b].shell, op);
            applySweepThrottle();
            stepShellSeconds_ = elapsedSeconds(shell0, std::chrono::steady_clock::now());
        }
        if (!usesAaPattern())
            for (std::size_t b = 0; b < forest_.blocks().size(); ++b)
                forest_.getData<lbm::PdfField>(b, srcId_)
                    .swapDataWith(forest_.getData<lbm::PdfField>(b, dstId_));
    }

    /// (Re)creates every per-block datum of the current forest_: PDF fields
    /// (equilibrium-initialized), flag fields (derived through initFlags_),
    /// boundary handlings, fluid runs/cell lists, the ghost-exchange scheme
    /// and the per-block sweep-time accumulators. Shared by the constructor
    /// and applyBlockAssignment().
    void buildBlockData() {
        const cell_idx_t cx = forest_.cellsX(), cy = forest_.cellsY(), cz = forest_.cellsZ();
        // Uniform equilibrium including ghosts is also a valid AA state at
        // the initial parity (Even): pdf(x, a) = P(x - e_a, a) holds
        // trivially when every cell carries the same PDF set. After a
        // mid-run rebuild the migrator restores the real state on top
        // before any sweep runs. One pass per field on the rank's team.
        const auto makeEquilibrium = [&] {
            return std::make_unique<lbm::PdfField>(
                lbm::makePdfField<M>(cx, cy, cz, real_c(1), Vec3{0, 0, 0}));
        };
        srcId_ = forest_.addBlockData<lbm::PdfField>(
            [&](const auto&) { return makeEquilibrium(); });
        // The AA tiers update in place — the shadow grid shrinks to a token
        // allocation and the per-block PDF footprint halves.
        dstId_ = forest_.addBlockData<lbm::PdfField>([&](const auto&) {
            return usesAaPattern()
                       ? std::make_unique<lbm::PdfField>(lbm::makePdfField<M>(1, 1, 1))
                       : makeEquilibrium();
        });
        flagId_ = forest_.addBlockData<field::FlagField>([&](const bf::BlockForest::Block& b) {
            auto ff = std::make_unique<field::FlagField>(cx, cy, cz, 1);
            masks_ = lbm::BoundaryFlags::registerOn(*ff);
            initFlags_(*ff, masks_, b, geometry::CellMapping{b.aabb, forest_.dx()});
            return ff;
        });
        for (std::size_t b = 0; b < forest_.blocks().size(); ++b) {
            auto& flags = forest_.getData<field::FlagField>(b, flagId_);
            boundaries_.push_back(std::make_unique<lbm::BoundaryHandling<M>>(flags, masks_));
            boundaries_.back()->setWallVelocity(wallVelocity_);
            boundaries_.back()->setPressureDensity(pressureDensity_);
            runs_.push_back(lbm::buildFluidRuns(flags, masks_.fluid));
            // Split plan for the overlapped schedule (always built — cheap,
            // and rebalance migrations rebuild it here automatically). A
            // ghost region backed by a block on *another rank* is filled by
            // a halo message; everything it feeds is shell.
            std::array<bool, 26> remote{};
            for (const auto& n : forest_.blocks()[b].neighbors)
                if (n.localIndex < 0) remote[lbm::dirIndex26(n.dir)] = true;
            coreShellRuns_.push_back(
                lbm::splitFluidRuns<M>(runs_[b], cx, cy, cz, remote));
            // Only the cell-list tiers sweep the cell lists; the others keep
            // them empty (24 bytes per fluid cell, twice, saved).
            cellLists_.emplace_back();
            coreShellCells_.emplace_back();
            if (sweepsCellLists()) {
                cellLists_.back() = lbm::buildFluidCellList(flags, masks_.fluid);
                coreShellCells_.back() =
                    lbm::splitFluidCellList<M>(cellLists_.back(), cx, cy, cz, remote);
            }
            // Boundary links whose boundary cell sits in a remote-backed
            // ghost slice are overwritten by the unpack: apply them after
            // finishExchange (their unique readers are shell cells).
            boundaries_.back()->partitionForOverlap([&](const Cell& c) {
                const std::array<int, 3> g = {c.x < 0 ? -1 : (c.x >= cx ? 1 : 0),
                                              c.y < 0 ? -1 : (c.y >= cy ? 1 : 0),
                                              c.z < 0 ? -1 : (c.z >= cz ? 1 : 0)};
                if (g[0] == 0 && g[1] == 0 && g[2] == 0) return false;
                return remote[lbm::dirIndex26(g)];
            });
        }
        comm_scheme_ = std::make_unique<PdfCommScheme>(forest_, *comm_, srcId_);
        syncExchangeMode();
        blockSweepSeconds_.assign(forest_.blocks().size(), 0.0);

        std::size_t pdfBytes = 0;
        for (std::size_t b = 0; b < forest_.blocks().size(); ++b)
            pdfBytes += (forest_.getData<lbm::PdfField>(b, srcId_).allocCells() +
                         forest_.getData<lbm::PdfField>(b, dstId_).allocCells()) *
                        sizeof(real_t);
        metrics_.gauge("mem.pdf_bytes").set(double(pdfBytes));
    }

    /// The tiers whose sweep reads cellLists_/coreShellCells_ rather than
    /// the fluid runs.
    bool sweepsCellLists() const {
        return tier_ == KernelTier::D3Q19 || tier_ == KernelTier::Aa;
    }

    /// Points the ghost-exchange scheme at the mode matching the kernel
    /// tier and (for AA) the current step parity. Called before every
    /// exchange — parity advances every step.
    void syncExchangeMode() {
        if (!usesAaPattern()) return; // schemes default to TwoGrid
        comm_scheme_->setExchangeMode(aaParity() == lbm::AaParity::Odd
                                          ? PdfCommScheme::ExchangeMode::AaForward
                                          : PdfCommScheme::ExchangeMode::AaReverse);
    }

    /// Last-breath diagnostics: when a CommError surfaces on this rank
    /// (deadline miss, corrupt payload, killed rank), dump the flight
    /// recorder before the error unwinds — the telemetry survives even when
    /// a caller absorbs the exception. One-shot until resetErrorDump().
    /// Installed at construction and re-installed by rebindComm().
    void installErrorObserver() {
        comm_->setErrorObserver([this](const vmpi::CommError& e) {
            if (errorDumped_) return;
            errorDumped_ = true;
            dumpFlightRecorder(std::string("comm-error: ") +
                               vmpi::CommError::kindName(e.kind));
        });
    }

    vmpi::Comm* comm_;
    bf::SetupBlockForest setup_; ///< global structure, kept current by migrations
    FlagInitializer initFlags_;  ///< retained: migration re-derives flag fields
    bf::BlockForest forest_;
    KernelTier tier_;
    lbm::BoundaryFlags masks_{};
    bf::BlockForest::BlockDataID srcId_ = 0, dstId_ = 0, flagId_ = 0;
    std::vector<std::unique_ptr<lbm::BoundaryHandling<M>>> boundaries_;
    std::vector<lbm::FluidRunList> runs_;
    std::vector<std::vector<Cell>> cellLists_;
    std::vector<lbm::CoreShellRuns> coreShellRuns_;
    std::vector<lbm::CoreShellCells> coreShellCells_;
    bool overlap_ = false;
    double commHiddenSeconds_ = 0.0;
    double commExposedSeconds_ = 0.0;
    double commBeginSeconds_ = 0.0;  ///< pack + send posting (overlap mode)
    double commFinishSeconds_ = 0.0; ///< blocking drain (overlap mode)
    lbm::KernelD3Q19Simd<> simdKernel_;
    lbm::KernelAaSimd<> aaSimdKernel_;
    std::unique_ptr<lbm::PdfField> canonScratch_; ///< AA canonicalization staging
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
    // Per-step phase scratch, reset at the top of each step schedule and
    // harvested into the StepSample by run().
    double stepPackSeconds_ = 0.0;
    double stepExchangeSeconds_ = 0.0;
    double stepShellSeconds_ = 0.0;
};

/// Drives a simulation under the CheckpointOptions command-line contract:
/// optionally restarts from `opt.restartFrom`, then advances to `numSteps`
/// total steps (or `opt.steps` when given), saving a checkpoint every
/// `opt.every` steps and at the end, and stopping early after
/// `opt.stopAfter` steps (simulated process death — no final checkpoint
/// beyond the last periodic one). Returns the number of steps executed in
/// this process. Throws std::runtime_error if a requested restart file
/// cannot be loaded.
template <typename Op>
std::uint64_t runWithCheckpoints(DistributedSimulation& sim, const CheckpointOptions& opt,
                                 uint_t numSteps, const Op& op) {
    if (opt.steps > 0) numSteps = uint_t(opt.steps);
    if (!opt.restartFrom.empty()) {
        std::string err;
        if (!sim.loadCheckpoint(opt.restartFrom, &err))
            throw std::runtime_error("restart from '" + opt.restartFrom + "' failed: " + err);
        WALB_LOG_INFO("restarted from '" << opt.restartFrom << "' at step "
                                         << sim.currentStep());
    }

    const std::uint64_t target =
        opt.stopAfter > 0 ? std::min<std::uint64_t>(numSteps, opt.stopAfter)
                          : std::uint64_t(numSteps);
    std::uint64_t executed = 0;
    while (sim.currentStep() < target) {
        // Next stop: the upcoming checkpoint boundary or the target.
        std::uint64_t next = target;
        if (opt.every > 0) {
            const std::uint64_t boundary =
                (sim.currentStep() / opt.every + 1) * opt.every;
            next = std::min(next, boundary);
        }
        const uint_t chunk = uint_t(next - sim.currentStep());
        sim.run(chunk, op);
        executed += chunk;
        const bool atPeriodicBoundary =
            opt.every > 0 && sim.currentStep() % opt.every == 0;
        const bool atEnd = sim.currentStep() >= target;
        if (atPeriodicBoundary || (atEnd && opt.every > 0)) {
            std::string err;
            if (!sim.saveCheckpoint(opt.path, &err))
                WALB_LOG_ERROR("checkpoint save to '" << opt.path << "' failed: " << err);
            else
                WALB_LOG_INFO("checkpoint written to '" << opt.path << "' at step "
                                                        << sim.currentStep());
        }
    }
    return executed;
}

/// Verdict of the between-chunk control callback of runResumableChunks().
enum class ChunkControl : std::uint8_t { Continue = 0, Preempt = 1 };

/// Result of one runResumableChunks() leg.
struct ResumableRunResult {
    bool preempted = false;          ///< stopped early on a Preempt verdict
    std::uint64_t step = 0;          ///< sim step when the leg ended
    std::uint64_t checkpointStep = 0;///< step of the newest on-disk checkpoint
    bool hasCheckpoint = false;      ///< false when no checkpoint was written
};

/// Resumable job entry point (walb::serve): advances the simulation to
/// `targetStep` total steps in chunks of `chunkSteps`, consulting `control`
/// between chunks so an external scheduler can preempt the job at a
/// deterministic step. `control(currentStep)` MUST return the identical
/// verdict on every rank of the simulation's communicator (serve's gang
/// leader broadcasts the word before returning it) — a split verdict
/// deadlocks the next ghost exchange. Checkpoints are written every
/// `checkpointEvery` steps and on preemption, so the job can later resume
/// from `checkpointStep` via DistributedSimulation::loadCheckpoint. The
/// final completed state is NOT checkpointed here — callers digest/persist
/// it themselves. Propagates CommError from the step loop (rank failure);
/// `liveProgress`, when given, tracks the result so far and stays valid
/// across such a throw (the serve scheduler reads the last checkpoint step
/// off it when a gang member dies mid-job).
template <typename Op, typename Control>
ResumableRunResult runResumableChunks(DistributedSimulation& sim,
                                      const std::string& checkpointPath,
                                      std::uint64_t targetStep,
                                      std::uint64_t checkpointEvery,
                                      std::uint64_t chunkSteps, const Op& op,
                                      const Control& control,
                                      ResumableRunResult* liveProgress = nullptr) {
    WALB_ASSERT(chunkSteps > 0, "chunkSteps must be positive");
    ResumableRunResult local;
    ResumableRunResult& res = liveProgress ? *liveProgress : local;
    res = {};
    res.step = sim.currentStep();
    res.checkpointStep = res.step;
    res.hasCheckpoint = false;
    while (sim.currentStep() < targetStep) {
        const std::uint64_t chunk =
            std::min<std::uint64_t>(chunkSteps, targetStep - sim.currentStep());
        sim.run(uint_t(chunk), op);
        res.step = sim.currentStep();
        const bool done = sim.currentStep() >= targetStep;
        const ChunkControl word = control(sim.currentStep());
        if (word == ChunkControl::Preempt && !done) {
            std::string err;
            if (!sim.saveCheckpoint(checkpointPath, &err))
                WALB_LOG_ERROR("preemption checkpoint to '" << checkpointPath
                                                            << "' failed: " << err);
            else {
                res.checkpointStep = sim.currentStep();
                res.hasCheckpoint = true;
            }
            res.preempted = true;
            return res;
        }
        if (!done && checkpointEvery > 0 && sim.currentStep() % checkpointEvery == 0) {
            std::string err;
            if (!sim.saveCheckpoint(checkpointPath, &err))
                WALB_LOG_ERROR("periodic checkpoint to '" << checkpointPath
                                                          << "' failed: " << err);
            else {
                res.checkpointStep = sim.currentStep();
                res.hasCheckpoint = true;
            }
        }
    }
    return res;
}

} // namespace walb::sim
