#pragma once
/// \file Migrator.h
/// Migration layer of `walb::rebalance`: applies a new block -> rank
/// assignment to a *running* DistributedSimulation, moving live field
/// state over the virtual-MPI layer.
///
/// Protocol (collective; every rank derives the identical move list from
/// the old/new owner vectors, so no negotiation messages are needed):
///   1. append each departing block's record (sim/Checkpoint.h: flags plus
///      the slots that differ from the initializer, CRC-protected) to one
///      message per destination rank;
///   2. stash the records of blocks that stay local the same way;
///   3. applyBlockAssignment() replaces the BlockForest, its per-block data
///      (re-initialized) and the BufferSystem exchange plan;
///   4. deliverBlockRecords() sends the messages, receives the incoming
///      ones, verifies every stashed and received record, and only then
///      restores them all — a corrupt record throws sim::CheckpointError
///      (naming the block and both CRCs) before any live field is written;
///   5. one ghost-layer exchange re-fills the ghost layers under the new
///      neighborhood plan.
///
/// deliverBlockRecords() is also the recovery pipeline's lost-block
/// transport (recover::RecoveryManager): one path ships block records
/// between ranks, whoever planned the moves.
///
/// checkpointDigest() (interior-only by design) is invariant across
/// migrate(), and so is every later step: the records carry every slot
/// that can differ from the initializer.

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/Buffer.h"
#include "vmpi/Comm.h"
#include "vmpi/Tags.h"

namespace walb::sim {
class DistributedSimulation;
}

namespace walb::rebalance {

/// The message tag of block-migration traffic (vmpi::tags::kMigration;
/// ghost exchange runs on vmpi::tags::kGhostExchange).
inline constexpr int kMigrationTag = vmpi::tags::kMigration;

struct MigrationStats {
    std::size_t blocksMoved = 0;   ///< global: blocks that changed rank
    std::size_t bytesSent = 0;     ///< this rank's outgoing payload bytes
    std::size_t bytesReceived = 0; ///< this rank's incoming payload bytes
    double seconds = 0.0;          ///< wall time of the whole epoch, this rank
};

/// The deliver → verify-all → apply path of every block-record transfer
/// between ranks. Sends each `outgoing[dest]` (block records back to back)
/// as one `tag` message, receives one message from every source rank in
/// `expected` holding exactly that many records, verifies every record —
/// the `local` ones and the received ones — and only then restores them
/// all. A corrupt, truncated, miscounted or misrouted record throws
/// sim::CheckpointError naming `label` and the record's origin before any
/// live field is written. The caller has applied the new block assignment
/// already and, for the AA tiers, the step the records were taken at.
/// Returns the bytes this rank received.
std::size_t deliverBlockRecords(sim::DistributedSimulation& sim, vmpi::Comm& comm, int tag,
                                const std::string& label, std::map<int, SendBuffer> outgoing,
                                std::span<const std::uint8_t> local,
                                const std::map<int, std::uint32_t>& expected);

/// Collective live migration to `newOwner` (indexed like
/// sim.setup().blocks(); identical on every rank — asserted via an
/// allreduced assignment hash). No-op moves (newOwner == current owner
/// everywhere) still rebuild and re-fill, keeping the path exercised.
MigrationStats migrate(sim::DistributedSimulation& sim,
                       const std::vector<std::uint32_t>& newOwner);

} // namespace walb::rebalance
