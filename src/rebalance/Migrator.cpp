#include "rebalance/Migrator.h"

#include <map>
#include <unordered_map>

#include "core/Buffer.h"
#include "core/Crc32.h"
#include "core/Debug.h"
#include "core/Random.h"
#include "core/Timer.h"
#include "sim/DistributedSimulation.h"
#include "vmpi/Comm.h"

namespace walb::rebalance {

namespace {

/// Contiguous interior rows (fzyx: xStride == 1), f-plane by f-plane.
template <typename T>
void packInterior(const field::Field<T>& f, SendBuffer& buf) {
    WALB_ASSERT(f.xStride() == 1, "interior packing assumes fzyx layout");
    for (cell_idx_t c = 0; c < cell_idx_t(f.fSize()); ++c)
        for (cell_idx_t z = 0; z < f.zSize(); ++z)
            for (cell_idx_t y = 0; y < f.ySize(); ++y)
                buf.putBytes(f.dataAt(0, y, z, c), std::size_t(f.xSize()) * sizeof(T));
}

template <typename T>
void unpackInterior(field::Field<T>& f, RecvBuffer& buf) {
    WALB_ASSERT(f.xStride() == 1, "interior unpacking assumes fzyx layout");
    for (cell_idx_t c = 0; c < cell_idx_t(f.fSize()); ++c)
        for (cell_idx_t z = 0; z < f.zSize(); ++z)
            for (cell_idx_t y = 0; y < f.ySize(); ++y)
                buf.getBytes(f.dataAt(0, y, z, c), std::size_t(f.xSize()) * sizeof(T));
}

/// Order-sensitive hash of the assignment, for the cross-rank agreement
/// check — a rank acting on a divergent assignment would silently corrupt
/// the block structure, so divergence must abort loudly instead.
// walb-lint: begin(deterministic)
std::uint64_t assignmentHash(const std::vector<std::uint32_t>& owner) {
    std::uint64_t h = 0x243f6a8885a308d3ull;
    for (std::uint32_t o : owner) {
        std::uint64_t s = h ^ o;
        h = splitmix64(s);
    }
    return h;
}
// walb-lint: end(deterministic)

} // namespace

MigrationStats migrate(sim::DistributedSimulation& sim,
                       const std::vector<std::uint32_t>& newOwner) {
    Timer wall;
    wall.start();

    vmpi::Comm& comm = sim.comm();
    const bf::SetupBlockForest& setup = sim.setup();
    const auto myRank = std::uint32_t(comm.rank());
    WALB_ASSERT(newOwner.size() == setup.numBlocks(), "assignment size mismatch");

    // All ranks must act on the identical assignment.
    std::uint64_t hashes[2] = {assignmentHash(newOwner), assignmentHash(newOwner)};
    // walb-lint: allow(blocking): assignment-agreement collective guarding the migration itself (two reduces on the next lines)
    comm.allreduce(std::span<std::uint64_t>(hashes, 1), vmpi::ReduceOp::Min);
    comm.allreduce(std::span<std::uint64_t>(hashes + 1, 1), vmpi::ReduceOp::Max); // walb-lint: allow(blocking): second leg of the agreement check above
    WALB_ASSERT(hashes[0] == hashes[1],
               "migration assignment differs across ranks (collective broken)");

    std::vector<std::uint32_t> oldOwner(setup.numBlocks());
    for (std::size_t i = 0; i < setup.numBlocks(); ++i)
        oldOwner[i] = setup.blocks()[i].process;

    MigrationStats stats;
    for (std::size_t i = 0; i < setup.numBlocks(); ++i)
        if (oldOwner[i] != newOwner[i]) ++stats.blocksMoved;

    // Local block b <-> setup index: the BlockForest constructor extracts
    // this rank's blocks in setup storage order.
    const bf::BlockForest& forest = sim.forest();
    std::vector<std::size_t> setupIdxOfLocal;
    for (std::size_t i = 0; i < setup.numBlocks(); ++i)
        if (oldOwner[i] == myRank) setupIdxOfLocal.push_back(i);
    WALB_ASSERT(setupIdxOfLocal.size() == forest.numLocalBlocks(),
                "setup assignment and local forest disagree");

    // 1. Pack departing blocks, one message per destination rank. 2. Stash
    // the full contents of staying blocks (restored bit-exactly below).
    //
    // AA tiers: the wire payload carries the *canonical* (parity-normalized)
    // PDF view instead of src+dst — raw AA storage at parity Even keeps part
    // of a block's state in its own ghost layer, which an interior-only pack
    // would lose. The stash path is unaffected: it copies the full src
    // allocation (ghosts included) and the parity does not change across a
    // migration, so raw bytes restore bit-exactly. The tier is a global
    // config, so sender and receiver agree on the payload shape.
    const bool aa = sim.usesAaPattern();
    struct Stash {
        std::vector<real_t> src, dst;
        std::vector<field::flag_t> flags;
    };
    std::unordered_map<bf::BlockID, Stash, bf::BlockIDHash> stash;
    std::map<std::uint32_t, SendBuffer> outgoing; // dest rank -> message
    std::map<std::uint32_t, std::uint32_t> outgoingBlocks;
    for (std::size_t b = 0; b < forest.numLocalBlocks(); ++b) {
        const std::size_t i = setupIdxOfLocal[b];
        const lbm::PdfField& src = sim.pdfField(b);
        const lbm::PdfField& dst = sim.pdfDstField(b);
        const field::FlagField& flags = sim.flagField(b);
        if (newOwner[i] == myRank) {
            Stash& s = stash[forest.blocks()[b].id];
            s.src.assign(src.data(), src.data() + src.allocCells());
            s.dst.assign(dst.data(), dst.data() + dst.allocCells());
            s.flags.assign(flags.data(), flags.data() + flags.allocCells());
            continue;
        }
        SendBuffer payload;
        if (aa) {
            packInterior(sim.canonicalPdfField(b), payload);
        } else {
            packInterior(src, payload);
            packInterior(dst, payload);
        }
        packInterior(flags, payload);
        SendBuffer& msg = outgoing[newOwner[i]];
        forest.blocks()[b].id.toWire(msg);
        msg << crc32(payload.data(), payload.size()) << std::uint64_t(payload.size());
        msg.putBytes(payload.data(), payload.size());
        ++outgoingBlocks[newOwner[i]];
    }

    // 3. Buffered non-blocking sends — safe to post before any recv, and
    // therefore safe to rebuild the local structure while in flight.
    for (auto& [dest, msg] : outgoing) {
        SendBuffer framed;
        framed << outgoingBlocks[dest];
        framed.putBytes(msg.data(), msg.size());
        stats.bytesSent += framed.size();
        comm.send(int(dest), kMigrationTag, framed.release());
    }

    sim.applyBlockAssignment(newOwner);

    // 4a. Restore stayed blocks from the stash.
    const bf::BlockForest& rebuilt = sim.forest();
    std::unordered_map<bf::BlockID, std::size_t, bf::BlockIDHash> localOf;
    for (std::size_t b = 0; b < rebuilt.numLocalBlocks(); ++b)
        localOf[rebuilt.blocks()[b].id] = b;
    for (const auto& [id, s] : stash) {
        const auto it = localOf.find(id);
        WALB_ASSERT(it != localOf.end(), "stayed block vanished in rebuild");
        std::copy(s.src.begin(), s.src.end(), sim.pdfField(it->second).data());
        std::copy(s.dst.begin(), s.dst.end(), sim.pdfDstField(it->second).data());
        std::copy(s.flags.begin(), s.flags.end(), sim.flagField(it->second).data());
    }

    // 4b. Receive incoming blocks, in ascending source-rank order (the set
    // of senders is derived from the same owner vectors on both sides).
    std::map<std::uint32_t, std::uint32_t> expected; // src rank -> #blocks
    for (std::size_t i = 0; i < setup.numBlocks(); ++i)
        if (newOwner[i] == myRank && oldOwner[i] != myRank) ++expected[oldOwner[i]];
    for (const auto& [srcRank, numBlocks] : expected) {
        // walb-lint: allow(blocking): sender set derived from the agreed owner vectors on both sides, so the matching send exists; comm deadline bounds a lost peer
        RecvBuffer msg(comm.recv(int(srcRank), kMigrationTag));
        stats.bytesReceived += msg.size();
        std::uint32_t count = 0;
        msg >> count;
        WALB_ASSERT(count == numBlocks, "migration message from rank "
                                           << srcRank << " carries " << count
                                           << " blocks, expected " << numBlocks);
        for (std::uint32_t k = 0; k < count; ++k) {
            const bf::BlockID id = bf::BlockID::fromWire(msg);
            std::uint32_t storedCrc = 0;
            std::uint64_t payloadBytes = 0;
            msg >> storedCrc >> payloadBytes;
            if (msg.remaining() < payloadBytes)
                throw BufferError(std::size_t(payloadBytes), msg.remaining());
            // CRC over the raw payload *before* touching live fields — a
            // mangled migration message must not corrupt the simulation.
            const std::uint32_t actualCrc =
                crc32(msg.cursor(), std::size_t(payloadBytes));
            WALB_ASSERT(actualCrc == storedCrc,
                        "migration payload CRC mismatch from rank "
                            << srcRank << " on block " << id.rootIndex() << ":"
                            << int(id.level()) << ":" << id.path() << ": expected 0x"
                            << std::hex << storedCrc << " (stored), actual 0x"
                            << actualCrc << std::dec << " (computed)");
            const auto it = localOf.find(id);
            WALB_ASSERT(it != localOf.end(),
                       "migration message carries a block not assigned here");
            if (aa) {
                // Flags must land before the canonical scatter — it walks
                // the block's fluid cells.
                lbm::PdfField& canon = sim.canonicalScratch();
                unpackInterior(canon, msg);
                unpackInterior(sim.flagField(it->second), msg);
                sim.applyCanonicalPdf(it->second, canon);
            } else {
                unpackInterior(sim.pdfField(it->second), msg);
                unpackInterior(sim.pdfDstField(it->second), msg);
                unpackInterior(sim.flagField(it->second), msg);
            }
        }
        WALB_ASSERT(msg.atEnd(), "trailing bytes in migration message from rank "
                                    << srcRank);
    }

    // 5. Ghost layers under the new neighborhood plan.
    sim.refillGhostLayers();

    wall.stop();
    stats.seconds = wall.total();
    return stats;
}

} // namespace walb::rebalance
