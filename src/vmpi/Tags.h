#pragma once
/// \file Tags.h
/// Central registry of every vmpi message tag and tag band in the tree.
///
/// Five concurrency-heavy subsystems (ghost exchange, rebalance migration,
/// buddy checkpointing, ReliableComm NACK traffic, failure agreement and
/// the post-shrink collectives) multiplex one tag space per rank pair. A
/// collision between two subsystems' tags is the worst kind of bug: a
/// migration frame consumed as a ghost message corrupts state silently and
/// only on the runs where both are in flight. This header is therefore the
/// ONLY place a tag value may be written down; `walb_lint` (rule
/// `tag-registry`) rejects integer tag literals anywhere else in src/,
/// bench/ and tools/, and statically verifies from the band markers below
/// that
///   * every tag lies inside its declared band,
///   * no two bands overlap, and no two tags share a value,
///   * no band shifted by one or more recovery epochs
///     (`kEpochTagStride`, see ShrunkComm) can land inside another band.
///
/// The `tag-band(name, lo, hi)` walb-lint markers below are machine
/// parsed — keep each marker directly above the constants of its band.

namespace walb::vmpi::tags {

/// Tag distance between recovery epochs. ShrunkComm shifts every tag
/// (user and control) by `epoch * kEpochTagStride` so stale frames of an
/// abandoned epoch can never match a current receive.
// walb-lint: tag-stride
inline constexpr int kEpochTagStride = 1 << 20;

// ---- user band: steady-state point-to-point traffic ----------------------
// walb-lint: tag-band(user, 0, 1023)

/// Ghost-layer PDF exchange (BufferSystem owned by DistributedSimulation).
inline constexpr int kGhostExchange = 77;
/// Exchange-plan handshake: once per block assignment, each rank ships the
/// receive masks of its blocks to the ranks of their remote neighbors
/// (sim::PdfCommScheme).
inline constexpr int kExchangePlan = 78;
/// Rebalance block migration (Migrator): block records on the move.
inline constexpr int kMigration = 91;
/// Checkpoint load: rank 0 sends every rank the records of its own blocks
/// (sim::checkpointLoad).
inline constexpr int kCheckpointScatter = 92;
/// Buddy checkpoint store: each rank ships its in-memory checkpoint to
/// its +1 neighbor (recover::BuddyCheckpoint).
inline constexpr int kBuddyStore = 93;
/// Buddy checkpoint restore: a survivor returns its dead partner's blocks
/// to the adopting rank (recover::RecoveryManager).
inline constexpr int kBuddyRestore = 94;

// ---- serve band: scenario-service control traffic ------------------------
// walb-lint: tag-band(serve, 1024, 1027)

/// Worker → dispatcher job events (done / failed / preempted) on the pool
/// comm (serve::Scheduler). Carried outside any gang SubComm so a shrunken
/// gang's new leader can still reach rank 0.
inline constexpr int kServeEvent = 1024;
/// Dispatcher → gang-leader control (grant / preempt / shutdown) on the
/// pool comm.
inline constexpr int kServeCtrl = 1025;
/// Gang-leader → member job launch and shutdown fan-out on the pool comm;
/// per-attempt traffic then moves onto a fresh-generation SubComm.
inline constexpr int kServeGangCtrl = 1026;
/// Chunk-boundary continue/preempt word the leader broadcasts to the gang
/// (sent through the job's SubComm, i.e. generation-shifted).
inline constexpr int kServeChunkWord = 1027;

// ---- reliable band: ReliableComm control traffic -------------------------
// walb-lint: tag-band(reliable, -9117, -9117)

/// Out-of-band NACK frames of the retry/heal layer (ReliableComm). Unframed
/// control messages; negative so no epoch-shifted user tag reaches it.
inline constexpr int kNack = -9117;

// ---- agreement band: failure-agreement rounds ----------------------------
// walb-lint: tag-band(agreement, -9499, -9300)

/// Agreement round tag for recovery epoch e is `kAgreeBase - e` (epochs
/// 0..199 fit in the band), so concurrent agreement generations never mix.
inline constexpr int kAgreeBase = -9300;

// ---- shrunk band: ShrunkComm tree collectives ----------------------------
// walb-lint: tag-band(shrunk, -9504, -9501)

/// Fan-in/fan-out collective legs of the post-recovery communicator.
inline constexpr int kShrunkBarrier = -9501;
inline constexpr int kShrunkBcast = -9502;
inline constexpr int kShrunkReduce = -9503;
inline constexpr int kShrunkGather = -9504;

} // namespace walb::vmpi::tags
