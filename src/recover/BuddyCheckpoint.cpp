#include "recover/BuddyCheckpoint.h"

#include "core/Buffer.h"
#include "core/Debug.h"
#include "sim/Checkpoint.h"
#include "sim/DistributedSimulation.h"

namespace walb::recover {

namespace {

void setError(std::string* error, const std::string& msg) {
    if (error) *error = msg;
}

} // namespace

void BuddyCheckpoint::refresh(sim::DistributedSimulation& sim, vmpi::Comm& comm,
                              std::uint64_t step) {
    const int n = comm.size();
    const int me = comm.rank();

    std::size_t bytes = 2 * sizeof(std::uint32_t) + sizeof(std::uint64_t);
    for (std::size_t b = 0; b < sim.forest().numLocalBlocks(); ++b)
        bytes += sim::blockRecordBytes(sim, b);
    SendBuffer mine;
    mine.reserve(bytes);
    mine << std::uint32_t(me) << std::uint64_t(step)
         << std::uint32_t(sim.forest().numLocalBlocks());
    for (std::size_t b = 0; b < sim.forest().numLocalBlocks(); ++b)
        sim::appendBlockRecord(sim, b, mine);
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
    ringRank_ = me;
    valid_ = true;
}

bool BuddyCheckpoint::restoreOwnBlocks(sim::DistributedSimulation& sim,
                                       std::string* error) {
    if (!valid_) {
        setError(error, "buddy checkpoint: no refresh to restore from");
        return false;
    }
    try {
        RecvBuffer rb{std::span<const std::uint8_t>(selfCopy_)};
        std::uint32_t rank = 0, numBlocks = 0;
        std::uint64_t step = 0;
        rb >> rank >> step >> numBlocks;
        // Verify every record before the first one is applied.
        std::vector<sim::VerifiedBlockRecord> records;
        for (std::uint32_t b = 0; b < numBlocks; ++b) {
            auto rec = sim::verifyBlockRecord(sim, rb);
            if (!rec) {
                // Survivors keep their blocks across the recovery re-spread;
                // a homeless record means the assignment diverged.
                setError(error,
                         "buddy checkpoint self copy holds a block this rank "
                         "no longer owns (record " +
                             std::to_string(b) + " of " +
                             std::to_string(numBlocks) + ")");
                return false;
            }
            records.push_back(std::move(*rec));
        }
        // Rewind the step counter before the first record is applied: the
        // AA-tier restore scatters PDFs by the parity of the checkpointed
        // step. (The recovery manager's later rewind to the same step is a
        // no-op after this.)
        sim.setCurrentStep(step);
        for (const auto& rec : records) sim::restoreBlockRecord(sim, rec);
        return true;
    } catch (const sim::CheckpointError& e) {
        setError(error, std::string("buddy checkpoint self copy: ") + e.what());
        return false;
    } catch (const BufferError& e) {
        setError(error,
                 std::string("buddy checkpoint self copy truncated: ") + e.what());
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
