#pragma once
/// \file SubComm.h
/// A dense sub-communicator carved out of a larger rank pool.
///
/// Two subsystems need "a subset of the world that looks like a whole
/// world": the post-failure recovery pipeline (the agreed survivors of a
/// failed world, whose generation is the recovery epoch) and the scenario
/// service (gangs of ranks each running an independent job,
/// `walb::serve`). SubComm is the shared mechanism:
///
///   * `members` is a sorted list of parent ranks, identical on every
///     participating rank; rank()/size() are the *dense* numbering (index
///     in that list), parentRank()/subRankOf() translate between the two
///     spaces — the rank map MPI_Comm_split / MPI_Comm_shrink hand back.
///   * Collectives never touch the parent comm's own collectives — those
///     synchronize the full parent world (ThreadComm's std::barrier) and
///     would hang forever on ranks outside the subset (or dead ones).
///     barrier / broadcast / allreduce / allgatherv / gatherv are
///     reimplemented as hub fan-in/fan-out over send/recv among members
///     only. Through a ReliableComm underneath they inherit transient-fault
///     healing; a member failure surfaces as a CommError from one of the
///     p2p legs.
///   * Generation tag isolation: every tag (user and internal collective)
///     is shifted by `generation * tags::kEpochTagStride` (a recovery
///     epoch >= 1 is the generation; 0 is the unshrunken world). An abandoned
///     generation — a recovery epoch's half-delivered time step, or a
///     preempted/killed job attempt whose ghost-exchange frames still sit
///     in mailboxes — can never pollute a later one, because each
///     generation's traffic lives in its own tag band.
///
/// Over a SerialComm (or any 1-member subset) everything degenerates to
/// the trivial no-op semantics of a single-rank world.

#include <vector>

#include "vmpi/Comm.h"
#include "vmpi/Tags.h"

namespace walb::vmpi {

class SubComm : public Comm {
public:
    /// `members` must be identical (and sorted ascending) on every
    /// participating rank. The calling rank's parent rank must be in the
    /// list. `generation` numbers the carve: 0 shares the parent's tag
    /// space, >= 1 isolates this instance's traffic from every earlier
    /// generation over the same member pairs.
    SubComm(Comm& parent, std::vector<int> members, int generation);

    int rank() const override { return myRank_; }
    int size() const override { return int(members_.size()); }

    int generation() const { return generation_; }
    /// Dense sub rank → parent rank.
    int parentRank(int subRank) const { return members_[std::size_t(subRank)]; }
    /// Parent rank → dense sub rank, -1 for ranks outside the subset.
    int subRankOf(int parentRank) const;

    void setRecvDeadline(std::chrono::milliseconds deadline) override;
    void setErrorObserver(ErrorObserver observer) override;

    void send(int dest, int tag, std::vector<std::uint8_t> data) override;
    std::vector<std::uint8_t> recv(int src, int tag) override;
    bool tryRecv(int src, int tag, std::vector<std::uint8_t>& out) override;

    void barrier() override;
    void broadcast(std::vector<std::uint8_t>& data, int root) override;
    void allreduce(std::span<double> inout, ReduceOp op) override;
    void allreduce(std::span<std::uint64_t> inout, ReduceOp op) override;
    std::vector<std::vector<std::uint8_t>> allgatherv(
        std::span<const std::uint8_t> mine) override;
    std::vector<std::vector<std::uint8_t>> gatherv(std::span<const std::uint8_t> mine,
                                                   int root) override;

protected:
    /// Shifts a tag into this generation's band (applied uniformly,
    /// internal collective tags included). User tags are small (ghost
    /// exchange 77, migration 91, buddy 93/94, serve band ≤ 2047); one band
    /// of tags::kEpochTagStride comfortably holds them all plus the internal
    /// collective tags.
    int shift(int tag) const { return tag + generation_ * tags::kEpochTagStride; }

private:
    /// Hub-reduce worker shared by both allreduce element types.
    template <typename T>
    void allreduceHub(std::span<T> inout, ReduceOp op);

    /// Internal collective tags, placed well below zero so they can never
    /// collide with shifted user tags of any generation.
    static constexpr int kBarrierTag = tags::kSubCommBarrier;
    static constexpr int kBcastTag = tags::kSubCommBcast;
    static constexpr int kReduceTag = tags::kSubCommReduce;
    static constexpr int kGatherTag = tags::kSubCommGather;

    Comm& parent_;
    std::vector<int> members_;
    int generation_;
    int myRank_;
};

} // namespace walb::vmpi
