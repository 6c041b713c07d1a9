#include "sim/DistributedSimulation.h"

#include <algorithm>
#include <fstream>

#include "core/Logging.h"

namespace walb::sim {

namespace {

using Clock = std::chrono::steady_clock;

constexpr real_t kInitialDensity = 1; ///< see initialPdfs()

double elapsedSeconds(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

/// `tier` when the driver runs it (Simd or AaSimd); throws OptionError
/// naming any other tier.
KernelTier driverTier(KernelTier tier) {
    if (tier != KernelTier::Simd && tier != KernelTier::AaSimd)
        throw OptionError(std::string("kernel tier '") + kernelTierName(tier) +
                          "': DistributedSimulation runs only 'simd' and 'aa-simd'");
    return tier;
}

} // namespace

struct DistributedSimulation::Stepper {
    template <typename Op>
    static void run(DistributedSimulation& s, uint_t numSteps, const Op& op) {
        // Cached metric handles: one map lookup per run, not per step.
        obs::Counter& steps = s.metrics_.counter("sim.steps");
        obs::Counter& bytesSent = s.metrics_.counter("comm.bytesSent");
        obs::Counter& bytesRecv = s.metrics_.counter("comm.bytesReceived");
        obs::Counter& msgsSent = s.metrics_.counter("comm.messagesSent");
        obs::Counter& msgsRecv = s.metrics_.counter("comm.messagesReceived");
        obs::Histogram& stepSecondsHist = s.metrics_.histogram(
            "sim.step_seconds", obs::logHistogramEdges(1e-6, 10.0, 4));

        Timer wall;
        wall.start();
        for (uint_t i = 0; i < numSteps; ++i) {
            if (s.preStep_) s.preStep_(s.currentStep_);
            // The structural hook may replace forest_/comm_scheme_ (block
            // migration), so per-step state is re-read below, never cached
            // across iterations.
            if (s.stepHook_) s.stepHook_(s.currentStep_);
            const auto step0 = Clock::now();
            obs::StepSample sample = step(s, op);
            const double stepSeconds = elapsedSeconds(step0, Clock::now());
            const vmpi::BufferSystem& bs = s.comm_scheme_->bufferSystem();
            bytesSent.inc(bs.lastSendBytes());
            bytesRecv.inc(bs.lastRecvBytes());
            msgsSent.inc(bs.lastSendMessages());
            msgsRecv.inc(bs.lastRecvMessages());
            steps.inc();

            sample.step = s.currentStep_;
            sample.totalSeconds = stepSeconds;
            sample.mlups =
                stepSeconds > 0 ? double(s.localFluidCells()) / stepSeconds / 1e6 : 0.0;
            sample.imbalance = s.straggler_.lastImbalance();
            sample.bytesMoved = bs.lastSendBytes() + bs.lastRecvBytes();
            sample.messages = bs.lastSendMessages() + bs.lastRecvMessages();
            s.flight_.record(sample);
            stepSecondsHist.record(stepSeconds);
            // The detector smooths this rank's *work* share, not the whole
            // step: bulk-synchronous stepping equalizes total step times (a
            // slow rank surfaces as exchange wait on every fast rank), so
            // only the non-wait share separates a straggler from its fleet.
            s.straggler_.record(std::max(stepSeconds - sample.exchangeSeconds, 0.0));

            ++s.currentStep_;
            if (s.stragglerEnabled_ && s.stragglerOptions_.detectEvery > 0 &&
                s.currentStep_ % s.stragglerOptions_.detectEvery == 0)
                detectStragglers(s);
            if (s.health_ && s.health_->policy().checkEvery > 0 &&
                s.currentStep_ % s.health_->policy().checkEvery == 0)
                s.health_->check(s, s.currentStep_);
        }
        wall.stop();
        obs::MetricsRegistry& metrics = s.metrics_;
        if (wall.total() > 0)
            metrics.gauge("sim.mlups").set(double(s.localFluidCells()) * double(numSteps) /
                                           wall.total() / 1e6);
        metrics.gauge("sim.fluidCells").set(double(s.localFluidCells()));
        if (s.usesAaPattern())
            metrics.gauge("perf.aa_parity").set(double(std::uint8_t(s.aaParity())));
        const double exposed = s.commBeginSeconds_ + s.commFinishSeconds_;
        metrics.gauge("comm.hidden_seconds").set(s.commHiddenSeconds_);
        metrics.gauge("comm.exposed_seconds").set(exposed);
        metrics.gauge("comm.begin_seconds").set(s.commBeginSeconds_);
        metrics.gauge("comm.finish_seconds").set(s.commFinishSeconds_);
        metrics.gauge("comm.core_sweep_seconds").set(s.commCoreSweepSeconds_);
        const double commTotal = s.commHiddenSeconds_ + exposed;
        metrics.gauge("comm.hidden_fraction")
            .set(commTotal > 0 ? s.commHiddenSeconds_ / commTotal : 0.0);
        if (s.perfReferenceMlups_ > 0.0) {
            metrics.gauge("perf.predicted_mlups").set(s.perfReferenceMlups_);
            metrics.gauge("perf.efficiency")
                .set(metrics.gauge("sim.mlups").value() / s.perfReferenceMlups_);
        }
    }

    /// One time step (see the file comment); returns its phase seconds.
    /// The synchronous schedule finishes the exchange in the first
    /// communication phase and covers whole blocks. The overlapped one
    /// handles and sweeps the core while the halos are in flight, draining
    /// arrivals between sweep chunks (unpack writes only remote-backed
    /// ghost slices, which no core cell reads), then finishes the exchange
    /// and does the shell, whose boundary slots unpack would clobber and
    /// whose cells read the halos. The two are bit-exact; so is deferring
    /// the two-grid swap, since blocks never read each other's fields.
    ///
    /// Exposed communication is pack + wait; hidden is the part of the
    /// halo-arrival window (posting end -> last arrival) covered by the
    /// core sweep. Same-rank ghost copies are memory traffic and count
    /// towards neither, so sync and overlap numbers stay comparable.
    template <typename Op>
    static obs::StepSample step(DistributedSimulation& s, const Op& op) {
        PdfCommScheme& scheme = *s.comm_scheme_;
        const lbm::StepPattern pattern = s.stepPattern();
        scheme.setExchangeMode(PdfCommScheme::modeFor(pattern));
        const lbm::Region first = s.overlap_ ? lbm::Region::Core : lbm::Region::All;
        obs::StepSample sample;
        sample.kernelTier = std::uint8_t(s.tier_);
        sample.aaParity = std::uint8_t(pattern == lbm::StepPattern::AaOdd);
        try {
            obs::PhaseClock clock(s.timing_, s.trace_);
            scheme.copyLocalGhosts();
            const auto packBegin = Clock::now();
            scheme.packAndPost();
            const auto posted = Clock::now();
            sample.packSeconds = elapsedSeconds(packBegin, posted);
            auto lastArrival = posted;
            // Blocks for the halos still in flight; returns the end read.
            const auto drain = [&](Clock::time_point begin) {
                const bool pending = scheme.pendingReceives() > 0;
                scheme.finishExchange();
                const auto end = Clock::now();
                if (pending) lastArrival = end;
                sample.exchangeSeconds += elapsedSeconds(begin, end);
                return end;
            };
            clock.lap("communication", s.overlap_ ? posted : drain(posted));
            applyBoundaries(s, first, pattern);
            sample.boundarySeconds = clock.lap("boundary");
            sweep(s, first, pattern, op, lastArrival);
            sample.collideSeconds = clock.lap("collideStream");
            if (s.overlap_) {
                s.commCoreSweepSeconds_ += sample.boundarySeconds + sample.collideSeconds;
                clock.lap("communication", drain(clock.last()));
                applyBoundaries(s, lbm::Region::Shell, pattern);
                sample.boundarySeconds += clock.lap("boundary");
                sweep(s, lbm::Region::Shell, pattern, op, lastArrival);
                sample.shellSeconds = clock.lap("collideStream");
                sample.collideSeconds += sample.shellSeconds;
            }
            s.commBeginSeconds_ += sample.packSeconds;
            s.commFinishSeconds_ += sample.exchangeSeconds;
            s.commHiddenSeconds_ +=
                std::max(0.0, elapsedSeconds(posted, lastArrival) - sample.exchangeSeconds);
        } catch (const vmpi::CommError& e) {
            logExchangeError(s, e);
            throw;
        }
        if (pattern == lbm::StepPattern::TwoGrid)
            for (std::size_t b = 0; b < s.forest_.blocks().size(); ++b)
                s.pdfField(b).swapDataWith(s.pdfDstField(b));
        return sample;
    }

    /// Sweeps `region` of every block. The core sweep runs in chunks and
    /// drains halo arrivals between them: the earlier an arrival is
    /// drained, the more of the exchange latency the sweep hides.
    /// `lastArrival` records the last drain that made progress. The step's
    /// final sweep (all or shell) also spends the sweep throttle.
    template <typename Op>
    static void sweep(DistributedSimulation& s, lbm::Region region, lbm::StepPattern pattern,
                      const Op& op, Clock::time_point& lastArrival) {
        constexpr std::size_t kArrivalPollChunks = 8;
        const std::size_t chunks = region == lbm::Region::Core ? kArrivalPollChunks : 1;
        for (std::size_t b = 0; b < s.forest_.blocks().size(); ++b)
            for (std::size_t chunk = 0; chunk < chunks; ++chunk) {
                sweepSubset(s, b, region, pattern, op, chunk, chunks);
                if (s.comm_scheme_->exchangeInProgress() && s.comm_scheme_->progress() > 0)
                    lastArrival = Clock::now();
            }
        if (region != lbm::Region::Core) applySweepThrottle(s);
    }

    /// One fluid sweep of `region` of block b (whole block, core or
    /// shell): the fused SIMD body over the region's runs, under `pattern`
    /// (the AA patterns update src in place).
    ///
    /// `chunk`/`numChunks` select a contiguous slice of the region's runs;
    /// the core sweep runs in several chunks so it can poll for halo
    /// arrivals between them. The union over all chunks is exactly the
    /// full region, and every cell is updated by the same kernel either way.
    template <typename Op>
    static void sweepSubset(DistributedSimulation& s, std::size_t b, lbm::Region region,
                            lbm::StepPattern pattern, const Op& op, std::size_t chunk,
                            std::size_t numChunks) {
        const std::vector<lbm::FluidRun>& runs =
            region == lbm::Region::All    ? s.runs_[b].runs
            : region == lbm::Region::Core ? s.coreShellRuns_[b].core.runs
                                          : s.coreShellRuns_[b].shell.runs;
        auto& src = s.pdfField(b);
        auto& dst = s.pdfDstField(b);
        const std::size_t lo = runs.size() * chunk / numChunks,
                          hi = runs.size() * (chunk + 1) / numChunks;
        const auto sweepBegin = Clock::now();
        lbm::collideRuns(src, pattern == lbm::StepPattern::TwoGrid ? dst : src, pattern,
                         runs.data() + lo, hi - lo, op);
        s.blockSweepSeconds_[b] += elapsedSeconds(sweepBegin, Clock::now());
    }

    /// Boundary handling of `region` on every block, in one team region:
    /// apply() shares each block's links over the team (lbm/Boundary.h).
    static void applyBoundaries(DistributedSimulation& s, lbm::Region region,
                                lbm::StepPattern pattern) {
#ifdef _OPENMP
#pragma omp parallel
#endif
        for (std::size_t b = 0; b < s.boundaries_.size(); ++b)
            s.boundaries_[b]->apply(s.pdfField(b), region, pattern);
    }

    /// One collective straggler-detection epoch (enableStragglerDetection):
    /// allgathers the per-rank step-time EWMAs, publishes the verdict as
    /// gauges and drops a zero-length trace marker when anyone is flagged.
    static void detectStragglers(DistributedSimulation& s) {
        if (!s.straggler_.hasSample()) return;
        s.lastStragglerVerdict_ = s.straggler_.detect(*s.comm_, s.currentStep_);
        const obs::StragglerVerdict& v = s.lastStragglerVerdict_;
        s.metrics_.gauge("perf.straggler_ranks").set(double(v.stragglers.size()));
        s.metrics_.gauge("perf.step_seconds_ewma").set(s.straggler_.ewma());
        s.metrics_.gauge("perf.fleet_median_step_seconds").set(v.median);
        s.metrics_.gauge("perf.imbalance").set(s.straggler_.lastImbalance());
        if (v.stragglers.empty()) return;
        if (s.firstStragglerStep_ < 0) s.firstStragglerStep_ = std::int64_t(v.step);
        s.trace_.begin("straggler-detected");
        s.trace_.end();
        if (s.comm_->rank() == 0) {
            std::string who;
            for (int r : v.stragglers) who += (who.empty() ? "" : ",") + std::to_string(r);
            WALB_LOG_WARNING("step " << s.currentStep_ << ": straggler rank(s) " << who
                                     << " (fleet median step " << v.median << " s)");
        }
    }

    /// Busy spin for the configured throttle — unlike a sleep, the core
    /// stays busy, which is what a genuinely slow sweep looks like to the
    /// scheduler and to the phase clocks.
    static void applySweepThrottle(const DistributedSimulation& s) {
        if (s.sweepThrottle_.count() <= 0) return;
        const auto until = std::chrono::steady_clock::now() + s.sweepThrottle_;
        while (std::chrono::steady_clock::now() < until) {
        }
    }

    static void logExchangeError(DistributedSimulation& s, const vmpi::CommError& e) {
        if (e.kind == vmpi::CommError::Kind::DeadlineExceeded)
            s.metrics_.counter("comm.deadline_misses").inc();
        WALB_LOG_ERROR("step " << s.currentStep_ << ": ghost exchange failed: " << e.what());
    }
};

void DistributedSimulation::run(uint_t numSteps, const lbm::SRT& op) {
    Stepper::run(*this, numSteps, op);
}

void DistributedSimulation::run(uint_t numSteps, const lbm::TRT& op) {
    Stepper::run(*this, numSteps, op);
}

DistributedSimulation::DistributedSimulation(vmpi::Comm& comm, const bf::SetupBlockForest& setup,
                                             const FlagInitializer& initFlags, KernelTier tier)
    : comm_(&comm), tier_(driverTier(tier)), setup_(setup), initFlags_(initFlags),
      forest_(setup_, std::uint32_t(comm.rank())) {
    buildBlockData();
    trace_.setRank(comm.rank());
    installErrorObserver();
}

DistributedSimulation::~DistributedSimulation() { comm_->setErrorObserver(nullptr); }

void DistributedSimulation::applyBlockAssignment(
    const std::vector<std::uint32_t>& ownerBySetupIndex) {
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
    coreShellRuns_.clear();
    buildBlockData();
}

void DistributedSimulation::refillGhostLayers() {
    comm_scheme_->setExchangeMode(PdfCommScheme::modeFor(stepPattern()));
    comm_scheme_->communicate();
}

void DistributedSimulation::rebindComm(vmpi::Comm& comm) {
    comm_->setErrorObserver(nullptr);
    comm_ = &comm;
    installErrorObserver();
}

std::array<real_t, DistributedSimulation::M::Q> DistributedSimulation::initialPdfs() {
    std::array<real_t, M::Q> eq{};
    lbm::setEquilibrium<M>(eq, kInitialDensity, Vec3{0, 0, 0});
    return eq;
}

void DistributedSimulation::attachHealthMonitor(const HealthPolicy& policy) {
    health_ = std::make_unique<HealthMonitor>(policy);
    health_->setViolationHook(
        [this](const HealthReport&) { dumpFlightRecorder("health-violation"); });
}

std::string DistributedSimulation::dumpFlightRecorder(const std::string& reason) {
    const std::string path = flightDumpPrefix_ + ".r" + std::to_string(comm_->rank()) + ".s" +
                             std::to_string(currentStep_) + ".wfr";
    std::string err;
    if (!flight_.dump(path, comm_->rank(), comm_->size(), &err)) {
        WALB_LOG_ERROR("flight recorder dump to '" << path << "' failed: " << err);
        return "";
    }
    WALB_LOG_INFO("flight recorder dumped to '" << path << "' (" << flight_.size()
                                                << " samples, reason: " << reason << ")");
    return path;
}

void DistributedSimulation::enableStragglerDetection(const StragglerOptions& opt) {
    stragglerOptions_ = opt;
    straggler_ = obs::StragglerDetector(opt.alpha, opt.relThreshold, opt.madK);
    stragglerEnabled_ = true;
}

void DistributedSimulation::setWallVelocity(const Vec3& u) {
    wallVelocity_ = u;
    for (auto& b : boundaries_) b->setWallVelocity(u);
}

void DistributedSimulation::setPressureDensity(real_t rho) {
    pressureDensity_ = rho;
    for (auto& b : boundaries_) b->setPressureDensity(rho);
}

uint_t DistributedSimulation::localFluidCells() const {
    uint_t n = 0;
    for (const auto& r : runs_) n += r.fluidCells;
    return n;
}

uint_t DistributedSimulation::globalFluidCells() {
    // walb-lint: allow(blocking): diagnostic collective, reached by all ranks; the run comm's recv deadline applies
    return vmpi::allreduceSum(*comm_, std::uint64_t(localFluidCells()));
}

uint_t DistributedSimulation::localShellCells() const {
    uint_t n = 0;
    for (const auto& cs : coreShellRuns_) n += cs.shell.fluidCells;
    return n;
}

void DistributedSimulation::printFigure6Report(std::ostream& os) {
    const obs::ReducedTimingPool reduced = reduceTiming();
    const obs::ReducedMetrics metrics = reduceMetrics();
    if (comm_->rank() != 0) return;
    const auto hist = metrics.histograms.find("sim.step_seconds");
    obs::printFigure6Report(os, reduced, "communication", metrics.gaugeAvg("sim.mlups"),
                            metrics.gaugeAvg("comm.hidden_seconds", -1.0),
                            metrics.gaugeAvg("comm.exposed_seconds", -1.0),
                            hist != metrics.histograms.end() ? &hist->second : nullptr);
}

bool DistributedSimulation::writeChromeTrace(const std::string& path) {
    const auto events = obs::TraceRecorder::gather(*comm_, trace_);
    const std::uint64_t dropped = obs::TraceRecorder::gatherDropped(*comm_, trace_);
    if (comm_->rank() != 0) return true;
    std::ofstream os(path, std::ios::binary);
    if (!os) return false;
    obs::TraceRecorder::writeChromeJson(os, events, "walb", dropped);
    return bool(os);
}

Vec3 DistributedSimulation::gatherCellVelocity(const Cell& global) {
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

real_t DistributedSimulation::gatherTotalMass() {
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

std::array<real_t, DistributedSimulation::M::Q> DistributedSimulation::cellCanonicalPdfs(
    std::size_t block, cell_idx_t x, cell_idx_t y, cell_idx_t z) {
    const lbm::PdfField& pdf = pdfField(block);
    std::array<real_t, M::Q> out = initialPdfs();
    for (uint_t a = 0; a < M::Q; ++a) {
        const lbm::CanonicalLocation l = lbm::canonicalLocation(stepPattern(), a);
        const Cell c = Cell{x, y, z} + l.shift;
        if (pdf.isStored(c.x, c.y, c.z)) out[a] = pdf.get(c, l.slot);
    }
    return out;
}

bool DistributedSimulation::saveCheckpoint(const std::string& path, std::string* error) {
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

/// (Re)creates every per-block datum of the current forest_: PDF fields
/// (equilibrium-initialized), flag fields (derived through initFlags_),
/// boundary handlings, fluid runs, the ghost-exchange scheme
/// and the per-block sweep-time accumulators. Shared by the constructor
/// and applyBlockAssignment().
void DistributedSimulation::buildBlockData() {
    const cell_idx_t cx = forest_.cellsX(), cy = forest_.cellsY(), cz = forest_.cellsZ();
    const auto& blocks = forest_.blocks();
    flagId_ = forest_.addBlockData<field::FlagField>([&](const bf::BlockForest::Block& b) {
        auto ff = std::make_unique<field::FlagField>(cx, cy, cz, 1);
        masks_ = lbm::BoundaryFlags::registerOn(*ff);
        initFlags_(*ff, masks_, b, geometry::CellMapping{b.aabb, forest_.dx()});
        return ff;
    });
    std::vector<std::shared_ptr<const field::RowTable>> rows;
    for (std::size_t b = 0; b < blocks.size(); ++b) {
        auto& flags = forest_.getData<field::FlagField>(b, flagId_);
        runs_.push_back(lbm::buildFluidRuns(flags, masks_.fluid));
        rows.push_back(lbm::pdfRowTable<M>(flags, masks_.fluid, runs_[b]));
        // Split plan for the overlapped schedule (always built — cheap,
        // and rebalance migrations rebuild it here automatically).
        coreShellRuns_.push_back(
            lbm::splitFluidRuns<M>(runs_[b], cx, cy, cz, remoteGhostRegions(b)));
    }
    // Uniform equilibrium including ghosts is also a valid AA state at
    // the initial parity (Even): pdf(x, a) = P(x - e_a, a) holds
    // trivially when every cell carries the same PDF set. After a
    // mid-run rebuild the migrator restores the real state on top
    // before any sweep runs. One pass per field on the rank's team.
    const auto makeEquilibrium = [&](const bf::BlockForest::Block& b) {
        return std::make_unique<lbm::PdfField>(lbm::makePdfField<M>(
            rows[std::size_t(&b - blocks.data())], kInitialDensity, Vec3{0, 0, 0}));
    };
    srcId_ = forest_.addBlockData<lbm::PdfField>(makeEquilibrium);
    // The AA tiers update in place — the shadow grid shrinks to a token
    // allocation and the per-block PDF footprint halves.
    dstId_ = forest_.addBlockData<lbm::PdfField>([&](const bf::BlockForest::Block& b) {
        return usesAaPattern() ? std::make_unique<lbm::PdfField>(lbm::makePdfField<M>(1, 1, 1))
                               : makeEquilibrium(b);
    });
    for (std::size_t b = 0; b < blocks.size(); ++b) boundaries_.push_back(makeBoundary(b));
    comm_scheme_ = std::make_unique<PdfCommScheme>(
        forest_, *comm_, srcId_, flagId_, masks_.fluid,
        [this](std::size_t b, std::shared_ptr<const field::RowTable> grown) {
            growPdfStorage(b, std::move(grown));
        });
    blockSweepSeconds_.assign(blocks.size(), 0.0);
    setPdfBytesGauge();
}

/// Ghost regions of block b backed by a block on *another rank*: a halo
/// message fills them, so everything they feed is shell.
std::array<bool, 26> DistributedSimulation::remoteGhostRegions(std::size_t b) const {
    std::array<bool, 26> remote{};
    for (const auto& n : forest_.blocks()[b].neighbors)
        if (n.localIndex < 0) remote[lbm::dirIndex26(n.dir)] = true;
    return remote;
}

/// The boundary handling of block b, on the storage of its PDF fields.
std::unique_ptr<lbm::BoundaryHandling<DistributedSimulation::M>>
DistributedSimulation::makeBoundary(std::size_t b) {
    auto handling = std::make_unique<lbm::BoundaryHandling<M>>(
        forest_.getData<field::FlagField>(b, flagId_), masks_, pdfField(b));
    handling->setWallVelocity(wallVelocity_);
    handling->setPressureDensity(pressureDensity_);
    // Boundary links whose boundary cell sits in a remote-backed ghost
    // slice are overwritten by the unpack: apply them after
    // finishExchange (their unique readers are shell cells).
    const cell_idx_t cx = forest_.cellsX(), cy = forest_.cellsY(), cz = forest_.cellsZ();
    const std::array<bool, 26> remote = remoteGhostRegions(b);
    handling->partitionForOverlap([&](const Cell& c) {
        const std::array<int, 3> g = {c.x < 0 ? -1 : (c.x >= cx ? 1 : 0),
                                      c.y < 0 ? -1 : (c.y >= cy ? 1 : 0),
                                      c.z < 0 ? -1 : (c.z >= cz ? 1 : 0)};
        if (g[0] == 0 && g[1] == 0 && g[2] == 0) return false;
        return remote[lbm::dirIndex26(g)];
    });
    return handling;
}

/// PdfCommScheme's GrowStorage: block b's PDF fields move to `rows`,
/// the new slots holding the initializer's value (what a slot outside
/// storage stands for: nothing writes it), and its boundary handling is
/// rebuilt on the new storage.
void DistributedSimulation::growPdfStorage(std::size_t b,
                                           std::shared_ptr<const field::RowTable> rows) {
    for (const auto id : {srcId_, dstId_}) {
        if (id == dstId_ && usesAaPattern()) continue;
        lbm::PdfField& f = forest_.getData<lbm::PdfField>(b, id);
        lbm::PdfField grown = lbm::makePdfField<M>(rows, kInitialDensity, Vec3{0, 0, 0});
        grown.copyStoredRowsFrom(f);
        f = std::move(grown);
    }
    boundaries_[b] = makeBoundary(b);
    setPdfBytesGauge();
}

/// mem.pdf_bytes: the stored slots of every local PDF field, src and dst.
void DistributedSimulation::setPdfBytesGauge() {
    std::size_t pdfBytes = 0;
    for (std::size_t b = 0; b < forest_.blocks().size(); ++b)
        pdfBytes += (pdfField(b).allocCells() + pdfDstField(b).allocCells()) * sizeof(real_t);
    metrics_.gauge("mem.pdf_bytes").set(double(pdfBytes));
}

/// Last-breath diagnostics: when a CommError surfaces on this rank
/// (deadline miss, corrupt payload, killed rank), dump the flight
/// recorder before the error unwinds — the telemetry survives even when
/// a caller absorbs the exception. One-shot until resetErrorDump().
/// Installed at construction and re-installed by rebindComm().
void DistributedSimulation::installErrorObserver() {
    comm_->setErrorObserver([this](const vmpi::CommError& e) {
        if (errorDumped_) return;
        errorDumped_ = true;
        dumpFlightRecorder(std::string("comm-error: ") + vmpi::CommError::kindName(e.kind));
    });
}

} // namespace walb::sim
