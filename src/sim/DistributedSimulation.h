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
///      slots a fluid cell of the receiver reads. A periodic domain is a
///      forest whose links wrap (bf::SetupConfig): the wrap is exchanged
///      like any other link, down to a block that is its own neighbor;
///   2. boundary handling per block;
///   3. fused stream-pull-collide sweep over the fluid intervals;
///   4. src/dst swap (two-grid Simd tier only).
///
/// One function, step(), runs this sequence for both driver tiers (Simd,
/// AaSimd) and both schedules. The step's storage pattern (two-grid, AA
/// even or AA odd) is computed once and selects the exchange mode, the
/// boundary link slots and the kernel's load and store slots. The
/// synchronous schedule finishes the exchange before boundary handling and
/// sweeps each whole block; the overlapped schedule (setOverlapCommunication)
/// sweeps the core cells while the halos are in flight and the shell after
/// they landed.
///
/// A block's PDF fields store only the rows its fluid cells reach
/// (lbm::pdfRowTable over the block's fluid runs, interior and ghost layer),
/// so PDF memory follows the fluid cells, not the block extent.
///
/// Each phase is timed once (obs::PhaseClock), and that measurement feeds
/// the TimingPool — communication vs. compute time, the quantity behind
/// the "% MPI communication" curves of Figure 6 — the phase trace and the
/// flight recorder's StepSample alike.

#include <algorithm>
#include <fstream>
#include <functional>
#include <map>

#include "blockforest/BlockForest.h"
#include "core/BinaryIO.h"
#include "core/KernelTier.h"
#include "core/Logging.h"
#include "core/Timer.h"
#include "lbm/Boundary.h"
#include "lbm/Communication.h"
#include "lbm/KernelAa.h"
#include "lbm/Sparse.h"
#include "obs/FlightRecorder.h"
#include "vmpi/Tags.h"
#include "obs/Metrics.h"
#include "obs/PerfDiag.h"
#include "obs/TimingReduction.h"
#include "obs/Trace.h"
#include "sim/Checkpoint.h"
#include "sim/Health.h"
#include "vmpi/BufferSystem.h"

namespace walb::sim {

/// Exchanges ghost-layer PDFs between all blocks of a forest, moving only
/// the slots a fluid cell of the receiver reads (the reader rule of
/// lbm/Communication.h).
///
/// The receiver's flags decide: each block voxelizes its own ghost layer,
/// and neighboring blocks' cell centers can differ by rounding, so a sender
/// never guesses the receiver's fluid cells. Every block builds one
/// ReceiveMask per neighbor from its own flags; same-rank senders read it
/// directly, remote senders get it in one neighbor round over a
/// BufferSystem (tag kExchangePlan). Each exchange mode's plan — same-rank
/// copy runs, pack runs and unpack runs — is built from the masks on the
/// mode's first use, and the mask round runs with the first plan: the
/// first exchange (or plan query) of a scheme is collective over the
/// neighbor ranks, like every exchange. buildBlockData rebuilds the scheme
/// on every rank after every block assignment. The constructor itself
/// never waits for a neighbor.
///
/// Every slot a plan names must be stored. A block's storage covers the
/// dilation of its ghost-layer fluid cells, which holds every slot its
/// sends read wherever it agrees with the receiver on their shared cells.
/// Where it does not (rounding), the mask round computes the missing cells
/// of all three modes at once, before any plan exists, and hands each
/// such block's widened row table to `grow`, which re-lays the block's
/// fields out on it.
class PdfCommScheme {
public:
    using M = lbm::D3Q19;
    /// Re-lays block `block`'s PDF fields out on `rows`, a superset of the
    /// rows they store.
    using GrowStorage =
        std::function<void(std::size_t block, std::shared_ptr<const field::RowTable> rows)>;

    /// What the exchange ships. TwoGrid is the classic post-collision ghost
    /// fill; the AA modes are the parity-specific exchanges of the in-place
    /// tiers (see lbm/Communication.h): AaForward before an odd step (ghost
    /// fill, opposing slots), AaReverse before an even step (the sender's
    /// ghost pushes travel back to the interior cells that own them). The
    /// driver re-selects the mode before every exchange from its step
    /// parity.
    using ExchangeMode = lbm::ExchangeMode;

    PdfCommScheme(bf::BlockForest& forest, vmpi::Comm& comm, bf::BlockForest::BlockDataID srcId,
                  bf::BlockForest::BlockDataID flagId, field::flag_t fluid, GrowStorage grow)
        : forest_(forest), comm_(comm), srcId_(srcId), flagId_(flagId), fluid_(fluid),
          grow_(std::move(grow)), bufferSystem_(comm, vmpi::tags::kGhostExchange) {
        bufferSystem_.setReceiverInfo(std::vector<int>(forest.neighborProcesses().begin(),
                                                       forest.neighborProcesses().end()));
        // Map (sender block id, sender direction) -> receiving link, in the
        // order plan() lists the receive links.
        for (std::size_t b = 0; b < forest_.blocks().size(); ++b)
            for (const auto& n : forest_.blocks()[b].neighbors)
                if (n.localIndex < 0) {
                    const std::size_t link = remoteSources_.size();
                    remoteSources_[{n.id, std::uint8_t(lbm::dirIndex26(negated(n.dir)))}] = link;
                }
    }

    void setExchangeMode(ExchangeMode mode) { mode_ = mode; }
    /// The exchange that opens a step of storage pattern `p`.
    static ExchangeMode modeFor(lbm::StepPattern p) {
        constexpr ExchangeMode kByPattern[] = {ExchangeMode::TwoGrid, ExchangeMode::AaReverse,
                                               ExchangeMode::AaForward};
        return kByPattern[std::size_t(p)];
    }

    /// Direct ghost copies between same-rank neighbor blocks. Pure local
    /// memory traffic — no message leaves the rank — so the drivers account
    /// it separately from the exposed communication time. Must complete
    /// before any cell whose stencil reads a locally-backed ghost slice is
    /// swept (such cells are *core* in the overlap split, so this runs
    /// before the core sweep). The runs of all the rank's blocks are shared
    /// over the rank's OpenMP team, so a few large blocks balance as well as
    /// many small ones.
    void copyLocalGhosts() {
        const lbm::LocalCopyPlan& local = plan(mode_).local;
#ifdef _OPENMP
#pragma omp parallel
#endif
        local.run();
    }

    /// Packs one message per remote neighbor rank, ships them all and
    /// starts expecting the incoming ones — the network half of phase 1.
    /// Every (block, direction) with planned slots contributes a header
    /// (sender block id, sender direction, slot count) and its payload;
    /// every neighbor rank gets a message, possibly empty.
    void packAndPost() {
        const ModePlan& p = plan(mode_);
        for (int rank : forest_.neighborProcesses()) bufferSystem_.sendBuffer(rank);
        for (const Link& l : p.sends) {
            SendBuffer& buf = bufferSystem_.sendBuffer(l.process);
            forest_.blocks()[l.block].id.toWire(buf);
            buf << l.dir << l.slots;
            std::uint8_t* out = buf.grow(std::size_t(l.slots) * sizeof(real_t));
            const real_t* src = field(l.block).data();
            for (std::size_t r = l.runBegin; r < l.runEnd; ++r)
                lbm::detail::packRun(src, out, p.runs[r]);
        }
        bytesLastExchange_ = bufferSystem_.totalSendBytes();
        bufferSystem_.beginExchange();
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
        copyLocalGhosts();
        packAndPost();
        finishExchange();
    }

    std::size_t bytesLastExchange() const { return bytesLastExchange_; }

    /// Traffic accounting of the underlying neighbor exchange (bytes and
    /// message counts, per-exchange and cumulative) — the feed for the
    /// simulation's metrics counters.
    const vmpi::BufferSystem& bufferSystem() const { return bufferSystem_; }

    // ---- plan volume (per exchange of `mode`) ------------------------------

    /// Slots local block `block` receives from its neighbor in direction
    /// `dir`, by same-rank copy or message payload.
    std::size_t recvSlots(ExchangeMode mode, std::size_t block, const std::array<int, 3>& dir) {
        return plan(mode).recvSlots[block][lbm::dirIndex26(dir)];
    }
    /// Slots copied between this rank's blocks.
    std::size_t copiedSlots(ExchangeMode mode) { return plan(mode).local.numSlots(); }
    /// Slots this rank ships to other ranks.
    std::size_t shippedSlots(ExchangeMode mode) {
        std::size_t n = 0;
        for (const Link& l : plan(mode).sends) n += l.slots;
        return n;
    }

private:
    /// One remote (block, neighbor) link of a plan: its runs in
    /// ModePlan::runs and its payload length.
    struct Link {
        std::size_t block = 0;   ///< local packing or unpacking block
        int process = 0;         ///< peer rank (send links)
        std::uint8_t dir = 0;    ///< dirIndex26 of the sender's direction (send links)
        std::uint32_t slots = 0; ///< payload length in PDF values
        std::size_t runBegin = 0, runEnd = 0;
    };

    struct ModePlan {
        bool built = false;
        lbm::LocalCopyPlan local;
        std::vector<lbm::StridedRun> runs; ///< pack and unpack runs of all links
        std::vector<Link> sends;           ///< links with planned slots only
        std::vector<Link> recvs;           ///< every remote link, see remoteSources_
        std::vector<std::array<std::uint32_t, 26>> recvSlots; ///< [block][dirIndex26]
    };

    static std::array<int, 3> negated(const std::array<int, 3>& d) { return {-d[0], -d[1], -d[2]}; }

    lbm::PdfField& field(std::size_t block) {
        return forest_.getData<lbm::PdfField>(block, srcId_);
    }

    /// Builds ownMasks_ from this rank's flags and fills peerMasks_: the
    /// same-rank receivers' masks directly, the remote ones in one neighbor
    /// round. Collective over the neighbor ranks.
    void exchangeReceiveMasks() {
        const auto& blocks = forest_.blocks();
        const std::vector<int> peers(forest_.neighborProcesses().begin(),
                                     forest_.neighborProcesses().end());
        std::map<bf::BlockID, std::size_t> localBlock;
        ownMasks_.assign(blocks.size(), {});
        peerMasks_.assign(blocks.size(), {});
        for (std::size_t b = 0; b < blocks.size(); ++b) {
            localBlock[blocks[b].id] = b;
            const auto& flags = forest_.getData<field::FlagField>(b, flagId_);
            for (const auto& n : blocks[b].neighbors)
                ownMasks_[b].push_back(lbm::ReceiveMask::fromCells(
                    flags, n.dir, [&](const Cell& c) { return (flags.get(c) & fluid_) != 0; }));
            peerMasks_[b].resize(blocks[b].neighbors.size());
        }
        const auto neighborIndex = [&](std::size_t b, const std::array<int, 3>& dir) {
            const auto& ns = blocks[b].neighbors;
            for (std::size_t i = 0; i < ns.size(); ++i)
                if (ns[i].dir == dir) return i;
            return ns.size();
        };

        vmpi::BufferSystem round(comm_, vmpi::tags::kExchangePlan);
        round.setReceiverInfo(peers);
        for (int rank : peers) round.sendBuffer(rank);
        for (std::size_t b = 0; b < blocks.size(); ++b)
            for (std::size_t i = 0; i < blocks[b].neighbors.size(); ++i) {
                const auto& n = blocks[b].neighbors[i];
                if (n.localIndex >= 0) {
                    const auto nb = std::size_t(n.localIndex);
                    peerMasks_[b][i] = ownMasks_[nb][neighborIndex(nb, negated(n.dir))];
                    continue;
                }
                // Addressed like a ghost message from n: n's id and its
                // direction toward b.
                SendBuffer& buf = round.sendBuffer(int(n.process));
                n.id.toWire(buf);
                buf << std::uint8_t(lbm::dirIndex26(negated(n.dir)));
                ownMasks_[b][i].toWire(buf);
            }
        round.beginExchange();
        round.finishExchange([&](int rank, RecvBuffer& buf) {
            while (!buf.atEnd()) {
                const bf::BlockID id = bf::BlockID::fromWire(buf);
                std::uint8_t dir = 0;
                buf >> dir;
                const auto it = localBlock.find(id);
                const std::size_t i =
                    (dir < 26 && it != localBlock.end())
                        ? neighborIndex(it->second, lbm::neighborhood26[dir])
                        : std::size_t(-1);
                if (i == std::size_t(-1) || i >= blocks[it->second].neighbors.size() ||
                    int(blocks[it->second].neighbors[i].process) != rank)
                    throw makeCorruptError(rank, vmpi::tags::kExchangePlan,
                                           "receive mask for a link this rank does not have");
                peerMasks_[it->second][i] = lbm::ReceiveMask::fromWire(
                    field(it->second), negated(lbm::neighborhood26[dir]), buf);
            }
        });
        for (std::size_t b = 0; b < blocks.size(); ++b)
            for (std::size_t i = 0; i < blocks[b].neighbors.size(); ++i)
                if (!peerMasks_[b][i].valid())
                    throw makeCorruptError(int(blocks[b].neighbors[i].process),
                                           vmpi::tags::kExchangePlan,
                                           "no receive mask for a neighbor link");
        masksExchanged_ = true;
        storeSentSlots();
    }

    /// Widens the storage of every local block that does not store a slot
    /// one of its sends reads, under any mode (AaForward reads the cells of
    /// TwoGrid). Runs before any plan is built.
    void storeSentSlots() {
        const auto& blocks = forest_.blocks();
        for (std::size_t b = 0; b < blocks.size(); ++b) {
            const lbm::PdfField& f = field(b);
            std::vector<Cell> missing;
            for (std::size_t i = 0; i < blocks[b].neighbors.size(); ++i) {
                // b sends toward n, which receives from direction -n.dir.
                const std::array<int, 3> d = negated(blocks[b].neighbors[i].dir);
                const Cell shift = lbm::exchangeShift(f, d);
                for (const ExchangeMode mode : {ExchangeMode::TwoGrid, ExchangeMode::AaReverse})
                    lbm::forEachExchangeSlot<M>(
                        mode, f, d, peerMasks_[b][i], [&](const Cell& g, cell_idx_t, std::int32_t) {
                            if (const Cell c = g + shift; !f.isStored(c.x, c.y, c.z))
                                missing.push_back(c);
                        });
            }
            if (!missing.empty()) grow_(b, f.rowTable()->including(missing));
        }
    }

    /// The plan of `mode`, built from the masks on first use (the first
    /// build runs the collective mask round).
    ModePlan& plan(ExchangeMode mode) {
        ModePlan& p = plans_[std::size_t(mode)];
        if (p.built) return p;
        if (!masksExchanged_) exchangeReceiveMasks();
        p.built = true;
        const auto& blocks = forest_.blocks();
        p.recvSlots.assign(blocks.size(), {});
        std::vector<lbm::StridedRun> copyRuns;
        for (std::size_t b = 0; b < blocks.size(); ++b) {
            lbm::PdfField& f = field(b);
            for (std::size_t i = 0; i < blocks[b].neighbors.size(); ++i) {
                const auto& n = blocks[b].neighbors[i];
                // b sends toward n, which receives from direction -n.dir.
                if (n.localIndex >= 0) {
                    lbm::PdfField& to = field(std::size_t(n.localIndex));
                    copyRuns.clear();
                    p.recvSlots[std::size_t(n.localIndex)][lbm::dirIndex26(negated(n.dir))] =
                        std::uint32_t(lbm::planExchangeRuns<M>(mode, f, to, negated(n.dir),
                                                               peerMasks_[b][i],
                                                               lbm::RunEnds::Copy, copyRuns));
                    p.local.add(f, to, copyRuns);
                    continue;
                }
                Link send{b, int(n.process), std::uint8_t(lbm::dirIndex26(n.dir)), 0,
                          p.runs.size(), 0};
                send.slots = std::uint32_t(lbm::planExchangeRuns<M>(
                    mode, f, f, negated(n.dir), peerMasks_[b][i], lbm::RunEnds::Pack, p.runs));
                send.runEnd = p.runs.size();
                if (send.slots > 0) p.sends.push_back(send);
                Link recv{b, int(n.process), 0, 0, p.runs.size(), 0};
                recv.slots = std::uint32_t(lbm::planExchangeRuns<M>(
                    mode, f, f, n.dir, ownMasks_[b][i], lbm::RunEnds::Unpack, p.runs));
                recv.runEnd = p.runs.size();
                p.recvs.push_back(recv);
                p.recvSlots[b][lbm::dirIndex26(n.dir)] = recv.slots;
            }
        }
        return p;
    }

    /// Unpacks one rank's ghost message into the ghost slices of the
    /// receiving blocks. A truncated or corrupted payload (BufferError), or
    /// a (block, direction) payload whose length differs from the plan's,
    /// surfaces as CommError{Corrupt} naming the peer, exactly like a
    /// deadline miss — no silent garbage (conversion done by the
    /// BufferSystem's guarded delivery; the structural checks here throw
    /// CommError directly).
    void unpackMessage(int rank, RecvBuffer& buf) {
        const ModePlan& p = plan(mode_);
        while (!buf.atEnd()) {
            const bf::BlockID senderId = bf::BlockID::fromWire(buf);
            std::uint8_t senderDir = 0;
            std::uint32_t slots = 0;
            buf >> senderDir >> slots;
            if (senderDir >= 26)
                throw makeCorruptError(rank, vmpi::tags::kGhostExchange,
                                       "ghost message names invalid direction " +
                                           std::to_string(int(senderDir)));
            const auto it = remoteSources_.find({senderId, senderDir});
            if (it == remoteSources_.end())
                throw makeCorruptError(rank, vmpi::tags::kGhostExchange,
                                       "ghost message for a block this rank "
                                       "does not border (corrupt block id?)");
            const Link& l = p.recvs[it->second];
            if (slots != l.slots)
                throw makeCorruptError(rank, vmpi::tags::kGhostExchange,
                                       "ghost payload of " + std::to_string(slots) +
                                           " slots from direction " +
                                           std::to_string(int(senderDir)) +
                                           "; the exchange plan expects " +
                                           std::to_string(l.slots));
            const std::uint8_t* in = buf.cursor();
            buf.skip(std::size_t(slots) * sizeof(real_t)); // throws BufferError when short
            real_t* dst = field(l.block).data();
            for (std::size_t r = l.runBegin; r < l.runEnd; ++r)
                lbm::detail::unpackRun(in, dst, p.runs[r]);
        }
    }

    vmpi::CommError makeCorruptError(int rank, int tag, const std::string& detail) const {
        return vmpi::CommError(vmpi::CommError::Kind::Corrupt, rank, tag, 0.0, detail);
    }

    bf::BlockForest& forest_;
    vmpi::Comm& comm_;
    bf::BlockForest::BlockDataID srcId_;
    bf::BlockForest::BlockDataID flagId_;
    field::flag_t fluid_;
    GrowStorage grow_;
    ExchangeMode mode_ = ExchangeMode::TwoGrid;
    vmpi::BufferSystem bufferSystem_;
    std::map<std::pair<bf::BlockID, std::uint8_t>, std::size_t> remoteSources_;
    /// [block][neighbor]: the block's mask as the receiver of that neighbor.
    std::vector<std::vector<lbm::ReceiveMask>> ownMasks_;
    /// [block][neighbor]: the neighbor's mask as the receiver of the block.
    std::vector<std::vector<lbm::ReceiveMask>> peerMasks_;
    bool masksExchanged_ = false;
    std::array<ModePlan, 3> plans_; ///< indexed by ExchangeMode
    std::size_t bytesLastExchange_ = 0;
};

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
                          KernelTier tier = KernelTier::AaSimd)
        : comm_(&comm), tier_(driverTier(tier)), setup_(setup), initFlags_(initFlags),
          forest_(setup_, std::uint32_t(comm.rank())) {
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
    /// migrator, the recovery restore) re-apply block records after it.
    /// Must be invoked with the identical `ownerBySetupIndex` on every rank.
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
        coreShellRuns_.clear();
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
        comm_scheme_->setExchangeMode(PdfCommScheme::modeFor(stepPattern()));
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
    /// (walb::recover): after a rank failure the survivors rebind to the
    /// SubComm of the agreed survivors and carry on. Moves the last-breath error observer to the
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
    /// The destination PDF field (post-swap history buffer). Block records
    /// carry its boundary-link slots along with pdfField()'s: boundary
    /// handling writes into whichever buffer is src each step, so both
    /// buffers hold live hull values. The AA tiers have no shadow grid —
    /// this is a token 1-cell allocation there, and block records skip it.
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
    static std::array<real_t, M::Q> initialPdfs() {
        std::array<real_t, M::Q> eq{};
        lbm::setEquilibrium<M>(eq, kInitialDensity, Vec3{0, 0, 0});
        return eq;
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

    /// Shell cells of the current core/shell split (rebuilt by
    /// buildBlockData after every migration).
    uint_t localShellCells() const {
        uint_t n = 0;
        for (const auto& cs : coreShellRuns_) n += cs.shell.fluidCells;
        return n;
    }

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

        Timer wall;
        wall.start();
        for (uint_t i = 0; i < numSteps; ++i) {
            if (preStep_) preStep_(currentStep_);
            // The structural hook may replace forest_/comm_scheme_ (block
            // migration), so per-step state is re-read below, never cached
            // across iterations.
            if (stepHook_) stepHook_(currentStep_);
            const auto step0 = Clock::now();
            obs::StepSample sample = step(op);
            const double stepSeconds = elapsedSeconds(step0, Clock::now());
            const vmpi::BufferSystem& bs = comm_scheme_->bufferSystem();
            bytesSent.inc(bs.lastSendBytes());
            bytesRecv.inc(bs.lastRecvBytes());
            msgsSent.inc(bs.lastSendMessages());
            msgsRecv.inc(bs.lastRecvMessages());
            steps.inc();

            sample.step = currentStep_;
            sample.totalSeconds = stepSeconds;
            sample.mlups =
                stepSeconds > 0 ? double(localFluidCells()) / stepSeconds / 1e6 : 0.0;
            sample.imbalance = straggler_.lastImbalance();
            sample.bytesMoved = bs.lastSendBytes() + bs.lastRecvBytes();
            sample.messages = bs.lastSendMessages() + bs.lastRecvMessages();
            flight_.record(sample);
            stepSecondsHist.record(stepSeconds);
            // The detector smooths this rank's *work* share, not the whole
            // step: bulk-synchronous stepping equalizes total step times (a
            // slow rank surfaces as exchange wait on every fast rank), so
            // only the non-wait share separates a straggler from its fleet.
            straggler_.record(std::max(stepSeconds - sample.exchangeSeconds, 0.0));

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
        const double exposed = commBeginSeconds_ + commFinishSeconds_;
        metrics_.gauge("comm.hidden_seconds").set(commHiddenSeconds_);
        metrics_.gauge("comm.exposed_seconds").set(exposed);
        metrics_.gauge("comm.begin_seconds").set(commBeginSeconds_);
        metrics_.gauge("comm.finish_seconds").set(commFinishSeconds_);
        metrics_.gauge("comm.core_sweep_seconds").set(commCoreSweepSeconds_);
        const double commTotal = commHiddenSeconds_ + exposed;
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
        const auto hist = metrics.histograms.find("sim.step_seconds");
        obs::printFigure6Report(os, reduced, "communication", metrics.gaugeAvg("sim.mlups"),
                                metrics.gaugeAvg("comm.hidden_seconds", -1.0),
                                metrics.gaugeAvg("comm.exposed_seconds", -1.0),
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
    /// all tiers report physically comparable values. A slot outside the
    /// block's storage is one nothing writes, so it reads as the
    /// initializer's value.
    std::array<real_t, M::Q> cellCanonicalPdfs(std::size_t block, cell_idx_t x, cell_idx_t y,
                                               cell_idx_t z) {
        const lbm::PdfField& pdf = pdfField(block);
        std::array<real_t, M::Q> out = initialPdfs();
        for (uint_t a = 0; a < M::Q; ++a) {
            const lbm::CanonicalLocation l = lbm::canonicalLocation(stepPattern(), a);
            const Cell c = Cell{x, y, z} + l.shift;
            if (pdf.isStored(c.x, c.y, c.z)) out[a] = pdf.get(c, l.slot);
        }
        return out;
    }

    std::size_t bytesLastExchange() const { return comm_scheme_->bytesLastExchange(); }
    /// The ghost-exchange scheme of the current block assignment.
    PdfCommScheme& commScheme() { return *comm_scheme_; }

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

    /// Order-independent fingerprint of the distributed fluid state
    /// (collective): the canonical PDFs of every interior fluid cell, so
    /// equal digests <=> bit-exact equal fluid states, whatever the kernel
    /// tier, AA parity, schedule or block assignment (sim/Checkpoint.h).
    std::uint64_t stateDigest() { return checkpointDigest(*this); }

private:
    /// Configured boundary parameters, reapplied whenever the per-block
    /// boundary handlings are rebuilt (defaults match lbm::BoundaryHandling).
    Vec3 wallVelocity_{0, 0, 0};
    real_t pressureDensity_ = real_c(1);

    using Clock = std::chrono::steady_clock;

    static double elapsedSeconds(Clock::time_point a, Clock::time_point b) {
        return std::chrono::duration<double>(b - a).count();
    }

    /// `tier` when the driver runs it (Simd or AaSimd); throws OptionError
    /// naming any other tier.
    static KernelTier driverTier(KernelTier tier) {
        if (tier != KernelTier::Simd && tier != KernelTier::AaSimd)
            throw OptionError(std::string("kernel tier '") + kernelTierName(tier) +
                              "': DistributedSimulation runs only 'simd' and 'aa-simd'");
        return tier;
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
    void sweepSubset(std::size_t b, lbm::Region region, lbm::StepPattern pattern, const Op& op,
                     std::size_t chunk, std::size_t numChunks) {
        const std::vector<lbm::FluidRun>& runs =
            region == lbm::Region::All    ? runs_[b].runs
            : region == lbm::Region::Core ? coreShellRuns_[b].core.runs
                                          : coreShellRuns_[b].shell.runs;
        auto& src = forest_.getData<lbm::PdfField>(b, srcId_);
        auto& dst = forest_.getData<lbm::PdfField>(b, dstId_);
        const std::size_t lo = runs.size() * chunk / numChunks,
                          hi = runs.size() * (chunk + 1) / numChunks;
        const auto sweepBegin = Clock::now();
        lbm::collideRuns(src, pattern == lbm::StepPattern::TwoGrid ? dst : src, pattern,
                         runs.data() + lo, hi - lo, op);
        blockSweepSeconds_[b] += elapsedSeconds(sweepBegin, Clock::now());
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
    obs::StepSample step(const Op& op) {
        const lbm::StepPattern pattern = stepPattern();
        comm_scheme_->setExchangeMode(PdfCommScheme::modeFor(pattern));
        const lbm::Region first = overlap_ ? lbm::Region::Core : lbm::Region::All;
        obs::StepSample s;
        s.kernelTier = std::uint8_t(tier_);
        s.aaParity = std::uint8_t(pattern == lbm::StepPattern::AaOdd);
        try {
            obs::PhaseClock clock(timing_, trace_);
            comm_scheme_->copyLocalGhosts();
            const auto packBegin = Clock::now();
            comm_scheme_->packAndPost();
            const auto posted = Clock::now();
            s.packSeconds = elapsedSeconds(packBegin, posted);
            auto lastArrival = posted;
            // Blocks for the halos still in flight; returns the end read.
            const auto drain = [&](Clock::time_point begin) {
                const bool pending = comm_scheme_->pendingReceives() > 0;
                comm_scheme_->finishExchange();
                const auto end = Clock::now();
                if (pending) lastArrival = end;
                s.exchangeSeconds += elapsedSeconds(begin, end);
                return end;
            };
            clock.lap("communication", overlap_ ? posted : drain(posted));
            applyBoundaries(first, pattern);
            s.boundarySeconds = clock.lap("boundary");
            sweep(first, pattern, op, lastArrival);
            s.collideSeconds = clock.lap("collideStream");
            if (overlap_) {
                commCoreSweepSeconds_ += s.boundarySeconds + s.collideSeconds;
                clock.lap("communication", drain(clock.last()));
                applyBoundaries(lbm::Region::Shell, pattern);
                s.boundarySeconds += clock.lap("boundary");
                sweep(lbm::Region::Shell, pattern, op, lastArrival);
                s.shellSeconds = clock.lap("collideStream");
                s.collideSeconds += s.shellSeconds;
            }
            commBeginSeconds_ += s.packSeconds;
            commFinishSeconds_ += s.exchangeSeconds;
            commHiddenSeconds_ +=
                std::max(0.0, elapsedSeconds(posted, lastArrival) - s.exchangeSeconds);
        } catch (const vmpi::CommError& e) {
            logExchangeError(e);
            throw;
        }
        if (pattern == lbm::StepPattern::TwoGrid)
            for (std::size_t b = 0; b < forest_.blocks().size(); ++b)
                pdfField(b).swapDataWith(pdfDstField(b));
        return s;
    }

    /// Boundary handling of `region` on every block, in one team region:
    /// apply() shares each block's links over the team (lbm/Boundary.h).
    void applyBoundaries(lbm::Region region, lbm::StepPattern pattern) {
#ifdef _OPENMP
#pragma omp parallel
#endif
        for (std::size_t b = 0; b < boundaries_.size(); ++b)
            boundaries_[b]->apply(pdfField(b), region, pattern);
    }

    /// Sweeps `region` of every block. The core sweep runs in chunks and
    /// drains halo arrivals between them: the earlier an arrival is
    /// drained, the more of the exchange latency the sweep hides.
    /// `lastArrival` records the last drain that made progress. The step's
    /// final sweep (all or shell) also spends the sweep throttle.
    template <typename Op>
    void sweep(lbm::Region region, lbm::StepPattern pattern, const Op& op,
               Clock::time_point& lastArrival) {
        constexpr std::size_t kArrivalPollChunks = 8;
        const std::size_t chunks = region == lbm::Region::Core ? kArrivalPollChunks : 1;
        for (std::size_t b = 0; b < forest_.blocks().size(); ++b)
            for (std::size_t chunk = 0; chunk < chunks; ++chunk) {
                sweepSubset(b, region, pattern, op, chunk, chunks);
                if (comm_scheme_->exchangeInProgress() && comm_scheme_->progress() > 0)
                    lastArrival = Clock::now();
            }
        if (region != lbm::Region::Core) applySweepThrottle();
    }

    /// (Re)creates every per-block datum of the current forest_: PDF fields
    /// (equilibrium-initialized), flag fields (derived through initFlags_),
    /// boundary handlings, fluid runs, the ghost-exchange scheme
    /// and the per-block sweep-time accumulators. Shared by the constructor
    /// and applyBlockAssignment().
    void buildBlockData() {
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
            return usesAaPattern()
                       ? std::make_unique<lbm::PdfField>(lbm::makePdfField<M>(1, 1, 1))
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
    std::array<bool, 26> remoteGhostRegions(std::size_t b) const {
        std::array<bool, 26> remote{};
        for (const auto& n : forest_.blocks()[b].neighbors)
            if (n.localIndex < 0) remote[lbm::dirIndex26(n.dir)] = true;
        return remote;
    }

    /// The boundary handling of block b, on the storage of its PDF fields.
    std::unique_ptr<lbm::BoundaryHandling<M>> makeBoundary(std::size_t b) {
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
    void growPdfStorage(std::size_t b, std::shared_ptr<const field::RowTable> rows) {
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
    void setPdfBytesGauge() {
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
    void installErrorObserver() {
        comm_->setErrorObserver([this](const vmpi::CommError& e) {
            if (errorDumped_) return;
            errorDumped_ = true;
            dumpFlightRecorder(std::string("comm-error: ") +
                               vmpi::CommError::kindName(e.kind));
        });
    }

    static constexpr real_t kInitialDensity = 1; ///< see initialPdfs()

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
