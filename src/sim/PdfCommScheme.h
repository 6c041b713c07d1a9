#pragma once
/// \file PdfCommScheme.h
/// The ghost-layer PDF exchange of the distributed driver
/// (sim::DistributedSimulation, phase 1 of its step).

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "blockforest/BlockForest.h"
#include "field/FlagField.h"
#include "lbm/Communication.h"
#include "lbm/KernelAa.h"
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
                  bf::BlockForest::BlockDataID flagId, field::flag_t fluid, GrowStorage grow);

    void setExchangeMode(ExchangeMode mode) { mode_ = mode; }
    /// The exchange that opens a step of storage pattern `p`.
    static ExchangeMode modeFor(lbm::StepPattern p);

    /// Direct ghost copies between same-rank neighbor blocks. Pure local
    /// memory traffic — no message leaves the rank — so the drivers account
    /// it separately from the exposed communication time. Must complete
    /// before any cell whose stencil reads a locally-backed ghost slice is
    /// swept (such cells are *core* in the overlap split, so this runs
    /// before the core sweep). The runs of all the rank's blocks are shared
    /// over the rank's OpenMP team, so a few large blocks balance as well as
    /// many small ones.
    void copyLocalGhosts();

    /// Packs one message per remote neighbor rank, ships them all and
    /// starts expecting the incoming ones — the network half of phase 1.
    /// Every (block, direction) with planned slots contributes a header
    /// (sender block id, sender direction, slot count) and its payload;
    /// every neighbor rank gets a message, possibly empty.
    void packAndPost();

    /// Non-blocking: unpacks whatever ghost messages have already arrived
    /// (each message writes only its own remote-backed ghost slices, which
    /// core cells never read — safe to call between core sweeps). Returns
    /// the number of messages drained.
    std::size_t progress();

    /// Blocks until every outstanding ghost message has arrived and is
    /// unpacked (arrival order; BufferError and deadline misses surface as
    /// structured CommErrors, see BufferSystem::finishExchange).
    void finishExchange();

    std::size_t pendingReceives() const { return bufferSystem_.pendingReceives(); }
    bool exchangeInProgress() const { return bufferSystem_.exchangeInProgress(); }
    void abortExchange() { bufferSystem_.abortExchange(); }

    /// Performs one full (synchronous) ghost-layer synchronization of the
    /// src fields. Message unpacks are disjoint per sender, so draining in
    /// arrival order is bit-identical to any fixed order.
    void communicate();

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
    std::size_t shippedSlots(ExchangeMode mode);

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

    lbm::PdfField& field(std::size_t block) {
        return forest_.getData<lbm::PdfField>(block, srcId_);
    }

    /// Builds ownMasks_ from this rank's flags and fills peerMasks_: the
    /// same-rank receivers' masks directly, the remote ones in one neighbor
    /// round. Collective over the neighbor ranks.
    void exchangeReceiveMasks();

    /// Widens the storage of every local block that does not store a slot
    /// one of its sends reads, under any mode (AaForward reads the cells of
    /// TwoGrid). Runs before any plan is built.
    void storeSentSlots();

    /// The plan of `mode`, built from the masks on first use (the first
    /// build runs the collective mask round).
    ModePlan& plan(ExchangeMode mode);

    /// Unpacks one rank's ghost message into the ghost slices of the
    /// receiving blocks. A truncated or corrupted payload (BufferError), or
    /// a (block, direction) payload whose length differs from the plan's,
    /// surfaces as CommError{Corrupt} naming the peer, exactly like a
    /// deadline miss — no silent garbage (conversion done by the
    /// BufferSystem's guarded delivery; the structural checks here throw
    /// CommError directly).
    void unpackMessage(int rank, RecvBuffer& buf);

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

} // namespace walb::sim
