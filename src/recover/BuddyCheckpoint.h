#pragma once
/// \file BuddyCheckpoint.h
/// In-memory buddy checkpointing: the rewind source of the self-healing
/// runtime, with no disk round-trip.
///
/// Every K steps each rank serializes its own blocks — the block records
/// of the disk checkpoint (BlockID, payload size, CRC32, flag CRC and the
/// canonical fluid PDFs; see sim/Checkpoint.h) — and exchanges
/// the serialized contribution around a ring: rank r keeps its *own* copy
/// and receives the copy of its ring predecessor (r-1 mod n). Two live
/// replicas of every rank's state therefore exist at the refresh step: one
/// on the owner, one on its ring successor (the "buddy").
///
/// On recovery, survivors restore their own blocks from their self copy
/// (rewinding to the refresh step) and the dead rank's blocks are shipped
/// from its buddy to whoever the re-spread assigned them to. Only a failure
/// of a rank *and* its buddy within one refresh interval loses state — then
/// the RecoveryManager falls back to the last disk checkpoint, if any.
///
/// Restoring the records at a step boundary reproduces the disk-restart
/// state bit-exactly — the same argument that makes .wckp restarts
/// digest-identical from the first step on applies unchanged, since both
/// use the same records.

#include <cstdint>
#include <string>
#include <vector>

#include "blockforest/BlockID.h"
#include "vmpi/Comm.h"
#include "vmpi/Tags.h"

namespace walb::sim {
class DistributedSimulation;
}

namespace walb::recover {

/// Tag of the ring exchange (plain user tag: epoch-shifted automatically
/// when the active comm is a recovery epoch's SubComm).
inline constexpr int kBuddyTag = vmpi::tags::kBuddyStore;
/// Tag of recovery-time lost-block shipping (RecoveryManager, through
/// rebalance::deliverBlockRecords).
inline constexpr int kRestoreTag = vmpi::tags::kBuddyRestore;

class BuddyCheckpoint {
public:
    /// One per-block record of a held contribution: the identity for
    /// routing plus the raw record bytes (BlockID..payload) ready to be
    /// re-shipped through rebalance::deliverBlockRecords.
    struct BlockRecord {
        bf::BlockID id;
        std::vector<std::uint8_t> bytes;
    };

    /// Collective over `comm`: serializes this rank's blocks and swaps
    /// copies around the ring. After it returns, selfCopy holds my state at
    /// `step` and partnerCopy the state of ring rank (rank-1 mod n) — both
    /// CRC-protected per block.
    void refresh(sim::DistributedSimulation& sim, vmpi::Comm& comm,
                 std::uint64_t step);

    bool valid() const { return valid_; }
    std::uint64_t step() const { return step_; }
    /// Size of the ring at the last refresh (the comm's size then).
    int ringSize() const { return ringSize_; }
    /// Ring rank whose contribution partnerCopy holds (-1 for a 1-rank
    /// world, which has no partner).
    int partnerRingRank() const { return partnerRank_; }

    /// Applies every record of my self copy that names a locally owned
    /// block; all of them must apply (survivors keep their blocks across a
    /// recovery re-spread). Returns false with a diagnosis on CRC/size
    /// failure or a record that no longer has a local home.
    bool restoreOwnBlocks(sim::DistributedSimulation& sim, std::string* error);

    /// Splits the held partner contribution into per-block records for
    /// recovery-time shipping. Returns false on a malformed contribution.
    bool partnerBlocks(std::vector<BlockRecord>& out, std::string* error) const;

    /// Drops both copies (e.g. after a failed restore made them suspect).
    void invalidate() {
        valid_ = false;
        selfCopy_.clear();
        partnerCopy_.clear();
    }

    std::size_t selfBytes() const { return selfCopy_.size(); }
    std::size_t partnerBytes() const { return partnerCopy_.size(); }

private:
    std::vector<std::uint8_t> selfCopy_;
    std::vector<std::uint8_t> partnerCopy_;
    std::uint64_t step_ = 0;
    int ringSize_ = 0;
    int partnerRank_ = -1;
    bool valid_ = false;
};

} // namespace walb::recover
