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
///      tagged message per destination rank;
///   2. stash the records of blocks that stay local the same way;
///   3. sends are buffered and non-blocking (vmpi contract), so the
///      structure can be rebuilt immediately: applyBlockAssignment()
///      replaces the BlockForest, its per-block data (re-initialized) and
///      the BufferSystem exchange plan;
///   4. receive the incoming messages, verify every stashed and received
///      record, and only then restore them all — a corrupt record throws
///      sim::CheckpointError (naming the block and both CRCs) before any
///      live field is written;
///   5. one ghost-layer exchange re-fills the ghost layers under the new
///      neighborhood plan.
///
/// checkpointDigest() (interior-only by design) is invariant across
/// migrate(), and so is every later step: the records carry every slot
/// that can differ from the initializer.

#include <cstdint>
#include <vector>

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

/// Collective live migration to `newOwner` (indexed like
/// sim.setup().blocks(); identical on every rank — asserted via an
/// allreduced assignment hash). No-op moves (newOwner == current owner
/// everywhere) still rebuild and re-fill, keeping the path exercised.
MigrationStats migrate(sim::DistributedSimulation& sim,
                       const std::vector<std::uint32_t>& newOwner);

} // namespace walb::rebalance
