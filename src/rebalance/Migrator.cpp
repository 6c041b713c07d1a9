#include "rebalance/Migrator.h"

#include <map>
#include <optional>
#include <string>

#include "core/Buffer.h"
#include "core/Debug.h"
#include "core/Random.h"
#include "core/Timer.h"
#include "sim/Checkpoint.h"
#include "sim/DistributedSimulation.h"
#include "vmpi/Comm.h"

namespace walb::rebalance {

namespace {

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

    // 1. Pack each departing block's record into one message per
    // destination rank. 2. Stash the records of staying blocks: the rebuild
    // below re-initializes every field, and a record holds exactly the
    // slots that differ from the initializer (sim/Checkpoint.h).
    std::map<std::uint32_t, std::uint32_t> outgoingBlocks; // dest rank -> #blocks
    for (const std::size_t i : setupIdxOfLocal)
        if (newOwner[i] != myRank) ++outgoingBlocks[newOwner[i]];
    std::map<std::uint32_t, SendBuffer> outgoing; // dest rank -> message
    for (const auto& [dest, count] : outgoingBlocks) outgoing[dest] << count;
    SendBuffer stash;
    std::uint32_t stashed = 0;
    for (std::size_t b = 0; b < forest.numLocalBlocks(); ++b) {
        const std::uint32_t dest = newOwner[setupIdxOfLocal[b]];
        stashed += dest == myRank ? 1 : 0;
        sim::appendBlockRecord(sim, b, dest == myRank ? stash : outgoing[dest]);
    }

    // 3. Buffered non-blocking sends — safe to post before any recv, and
    // therefore safe to rebuild the local structure while in flight.
    for (auto& [dest, msg] : outgoing) {
        stats.bytesSent += msg.size();
        comm.send(int(dest), kMigrationTag, msg.release());
    }

    sim.applyBlockAssignment(newOwner);

    // 4. Receive incoming blocks, in ascending source-rank order (the set
    // of senders is derived from the same owner vectors on both sides),
    // and verify every record — stashed and received — before the first
    // one is written into a live field: a mangled migration message throws
    // sim::CheckpointError naming the block and both CRCs.
    const auto verify = [&](RecvBuffer& rb, std::uint32_t count, const std::string& origin,
                            std::vector<sim::VerifiedBlockRecord>& out) {
        for (std::uint32_t k = 0; k < count; ++k) {
            std::optional<sim::VerifiedBlockRecord> rec;
            try {
                rec = sim::verifyBlockRecord(sim, rb);
            } catch (const sim::CheckpointError& e) {
                throw sim::CheckpointError(origin + ": " + e.what());
            }
            WALB_ASSERT(rec, << origin << " carries a block not assigned here");
            out.push_back(std::move(*rec));
        }
        WALB_ASSERT(rb.atEnd(), "trailing bytes in " << origin);
    };
    std::vector<sim::VerifiedBlockRecord> records;
    RecvBuffer stashView{std::span<const std::uint8_t>(stash.data(), stash.size())};
    verify(stashView, stashed, "migration stash", records);
    std::map<std::uint32_t, std::uint32_t> expected; // src rank -> #blocks
    for (std::size_t i = 0; i < setup.numBlocks(); ++i)
        if (newOwner[i] == myRank && oldOwner[i] != myRank) ++expected[oldOwner[i]];
    std::vector<std::vector<std::uint8_t>> messages; // the records borrow from these
    messages.reserve(expected.size());
    for (const auto& [srcRank, numBlocks] : expected) {
        // walb-lint: allow(blocking): sender set derived from the agreed owner vectors on both sides, so the matching send exists; comm deadline bounds a lost peer
        messages.push_back(comm.recv(int(srcRank), kMigrationTag));
        stats.bytesReceived += messages.back().size();
        RecvBuffer msg{std::span<const std::uint8_t>(messages.back())};
        std::uint32_t count = 0;
        msg >> count;
        WALB_ASSERT(count == numBlocks, "migration message from rank "
                                           << srcRank << " carries " << count
                                           << " blocks, expected " << numBlocks);
        verify(msg, count, "migration message from rank " + std::to_string(srcRank), records);
    }
    for (const sim::VerifiedBlockRecord& rec : records) sim::restoreBlockRecord(sim, rec);

    // 5. Ghost layers under the new neighborhood plan.
    sim.refillGhostLayers();

    wall.stop();
    stats.seconds = wall.total();
    return stats;
}

} // namespace walb::rebalance
