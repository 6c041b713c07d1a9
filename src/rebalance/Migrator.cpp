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

std::size_t deliverBlockRecords(sim::DistributedSimulation& sim, vmpi::Comm& comm, int tag,
                                const std::string& label, std::map<int, SendBuffer> outgoing,
                                std::span<const std::uint8_t> local,
                                const std::map<int, std::uint32_t>& expected) {
    // Buffered non-blocking sends first: deadlock-free in any plan shape.
    for (auto& [dest, msg] : outgoing) comm.send(dest, tag, msg.release());

    std::vector<sim::VerifiedBlockRecord> records;
    const auto verifyAll = [&](std::span<const std::uint8_t> view, const std::string& origin) {
        RecvBuffer rb{view};
        std::uint32_t count = 0;
        while (!rb.atEnd()) {
            std::optional<sim::VerifiedBlockRecord> rec;
            try {
                rec = sim::verifyBlockRecord(sim, rb);
            } catch (const sim::CheckpointError& e) {
                throw sim::CheckpointError(origin + ": " + e.what());
            } catch (const BufferError& e) {
                throw sim::CheckpointError(origin + " truncated: " + e.what());
            }
            if (!rec) throw sim::CheckpointError(origin + " carries a block not assigned here");
            records.push_back(std::move(*rec));
            ++count;
        }
        return count;
    };
    verifyAll(local, label + " stash");
    std::vector<std::vector<std::uint8_t>> messages; // the records borrow from these
    messages.reserve(expected.size());
    std::size_t received = 0;
    for (const auto& [src, count] : expected) {
        // walb-lint: allow(blocking): sender set derived from agreed data on both sides, so the matching send exists; comm deadline bounds a lost peer
        messages.push_back(comm.recv(src, tag));
        received += messages.back().size();
        const std::string origin = label + " message from rank " + std::to_string(src);
        const std::uint32_t got = verifyAll(messages.back(), origin);
        if (got != count)
            throw sim::CheckpointError(origin + " carries " + std::to_string(got) +
                                       " block(s), expected " + std::to_string(count));
    }
    for (const sim::VerifiedBlockRecord& rec : records) sim::restoreBlockRecord(sim, rec);
    return received;
}

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

    // Local block b <-> setup index: the BlockForest constructor extracts
    // this rank's blocks in setup storage order. The senders of incoming
    // blocks follow from the same owner vectors on every rank.
    const bf::BlockForest& forest = sim.forest();
    MigrationStats stats;
    std::vector<std::size_t> setupIdxOfLocal;
    std::map<int, std::uint32_t> expected; // src rank -> #blocks
    for (std::size_t i = 0; i < setup.numBlocks(); ++i) {
        const std::uint32_t oldOwner = setup.blocks()[i].process;
        if (oldOwner != newOwner[i]) ++stats.blocksMoved;
        if (oldOwner == myRank) setupIdxOfLocal.push_back(i);
        else if (newOwner[i] == myRank) ++expected[int(oldOwner)];
    }
    WALB_ASSERT(setupIdxOfLocal.size() == forest.numLocalBlocks(),
                "setup assignment and local forest disagree");

    // 1. Append each departing block's record to one message per
    // destination rank. 2. Stash the records of staying blocks: the rebuild
    // below re-initializes every field, and a record holds exactly the
    // slots that differ from the initializer (sim/Checkpoint.h).
    std::map<int, SendBuffer> outgoing; // dest rank -> message
    SendBuffer stash;
    for (std::size_t b = 0; b < forest.numLocalBlocks(); ++b) {
        const std::uint32_t dest = newOwner[setupIdxOfLocal[b]];
        sim::appendBlockRecord(sim, b, dest == myRank ? stash : outgoing[int(dest)]);
    }

    // 3. The records are packed, so the structure can be rebuilt before
    // delivery starts.
    for (const auto& [dest, msg] : outgoing) stats.bytesSent += msg.size();
    sim.applyBlockAssignment(newOwner);

    // 4. Deliver: every record is verified before the first one is written
    // into a live field.
    stats.bytesReceived =
        deliverBlockRecords(sim, comm, kMigrationTag, "migration", std::move(outgoing),
                            std::span<const std::uint8_t>(stash.data(), stash.size()),
                            expected);

    // 5. Ghost layers under the new neighborhood plan.
    sim.refillGhostLayers();

    wall.stop();
    stats.seconds = wall.total();
    return stats;
}

} // namespace walb::rebalance
