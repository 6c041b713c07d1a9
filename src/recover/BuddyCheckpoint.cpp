#include "recover/BuddyCheckpoint.h"

#include "core/Buffer.h"
#include "core/Debug.h"
#include "rebalance/Migrator.h"
#include "sim/Checkpoint.h"
#include "sim/DistributedSimulation.h"

namespace walb::recover {

namespace {

/// Copy header: ring rank (u32), step (u64), block count (u32).
constexpr std::size_t kHeaderBytes = 2 * sizeof(std::uint32_t) + sizeof(std::uint64_t);

void setError(std::string* error, const std::string& msg) {
    if (error) *error = msg;
}

} // namespace

void BuddyCheckpoint::refresh(sim::DistributedSimulation& sim, vmpi::Comm& comm,
                              std::uint64_t step) {
    const int n = comm.size();
    const int me = comm.rank();

    SendBuffer mine;
    mine << std::uint32_t(me) << std::uint64_t(step);
    sim::appendLocalBlockRecords(sim, mine);
    selfCopy_ = mine.release();

    if (n > 1) {
        // Ring exchange: my copy travels to my successor; I hold my
        // predecessor's. Send first (buffered, non-blocking), then receive.
        comm.send((me + 1) % n, kBuddyTag, selfCopy_);
        // walb-lint: allow(blocking): ring partner sent first (buffered, non-blocking), so the matching send exists; comm deadline bounds a dead partner
        partnerCopy_ = comm.recv((me - 1 + n) % n, kBuddyTag);
        partnerRank_ = (me - 1 + n) % n;
    } else {
        partnerCopy_.clear();
        partnerRank_ = -1;
    }

    step_ = step;
    ringSize_ = n;
    valid_ = true;
}

bool BuddyCheckpoint::restoreOwnBlocks(sim::DistributedSimulation& sim,
                                       std::string* error) {
    if (!valid_) {
        setError(error, "buddy checkpoint: no refresh to restore from");
        return false;
    }
    // Rewind the step counter before the first record is applied: the
    // AA-tier restore scatters PDFs by the parity of the checkpointed step.
    // (The recovery manager's later rewind to the same step is a no-op
    // after this.) Survivors keep their blocks across the recovery
    // re-spread, so every record must have a local home.
    const std::uint64_t current = sim.currentStep();
    sim.setCurrentStep(step_);
    try {
        rebalance::deliverBlockRecords(
            sim, sim.comm(), kRestoreTag, "buddy checkpoint self copy", {},
            std::span<const std::uint8_t>(selfCopy_).subspan(kHeaderBytes), {});
        return true;
    } catch (const sim::CheckpointError& e) {
        sim.setCurrentStep(current);
        setError(error, e.what());
        return false;
    }
}

bool BuddyCheckpoint::partnerBlocks(std::vector<BlockRecord>& out,
                                    std::string* error) const {
    out.clear();
    if (!valid_ || partnerRank_ < 0) {
        setError(error, "buddy checkpoint: no partner copy held");
        return false;
    }
    try {
        RecvBuffer rb{std::span<const std::uint8_t>(partnerCopy_)};
        std::uint32_t rank = 0, numBlocks = 0;
        std::uint64_t step = 0;
        rb >> rank >> step >> numBlocks;
        for (std::uint32_t b = 0; b < numBlocks; ++b) {
            bf::BlockID id;
            const auto record = sim::nextBlockRecord(rb, id);
            out.push_back({id, {record.begin(), record.end()}});
        }
        return true;
    } catch (const BufferError& e) {
        out.clear();
        setError(error,
                 std::string("buddy checkpoint partner copy truncated: ") + e.what());
        return false;
    }
}

} // namespace walb::recover
