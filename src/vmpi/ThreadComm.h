#pragma once
/// \file ThreadComm.h
/// Thread-backed virtual MPI world: N ranks, each a std::thread, exchanging
/// messages through per-rank mailboxes. Collectives are implemented with a
/// std::barrier and shared contribution slots (each slot written by exactly
/// one rank between two barriers, so no locking is needed there).
///
/// This backend preserves MPI's programming model — fully distributed
/// algorithms written against vmpi::Comm run unchanged — while executing in
/// one address space on this single-core machine.

#include <barrier>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

#include "core/Debug.h"
#include "vmpi/Comm.h"

namespace walb::vmpi {

class ThreadCommWorld;

/// Per-rank communicator handle into a ThreadCommWorld.
class ThreadComm final : public Comm {
public:
    int rank() const override { return rank_; }
    int size() const override;

    void send(int dest, int tag, std::vector<std::uint8_t> data) override;
    /// Blocks until a matching message arrives. With a positive
    /// recvDeadline() the wait is bounded (cv.wait_for, resilient against
    /// spurious wakeups) and exceeding it throws CommError{DeadlineExceeded,
    /// peer, tag, elapsed} — a dead peer can no longer hang the world.
    std::vector<std::uint8_t> recv(int src, int tag) override;
    /// Non-blocking contract: returns immediately in all cases — true with
    /// `out` filled when a matching message was already queued, false
    /// otherwise. Never waits, never throws on an empty mailbox, and is
    /// unaffected by recvDeadline().
    bool tryRecv(int src, int tag, std::vector<std::uint8_t>& out) override;

    void barrier() override;
    void broadcast(std::vector<std::uint8_t>& data, int root) override;
    void allreduce(std::span<double> inout, ReduceOp op) override;
    void allreduce(std::span<std::uint64_t> inout, ReduceOp op) override;
    std::vector<std::vector<std::uint8_t>> allgatherv(
        std::span<const std::uint8_t> mine) override;
    std::vector<std::vector<std::uint8_t>> gatherv(std::span<const std::uint8_t> mine,
                                                   int root) override;

private:
    friend class ThreadCommWorld;
    ThreadComm(ThreadCommWorld& world, int rank) : world_(&world), rank_(rank) {}

    ThreadCommWorld* world_;
    int rank_;
};

/// Owns the shared state of a virtual world and runs rank main functions.
class ThreadCommWorld {
public:
    explicit ThreadCommWorld(int numRanks);
    ~ThreadCommWorld();

    ThreadCommWorld(const ThreadCommWorld&) = delete;
    ThreadCommWorld& operator=(const ThreadCommWorld&) = delete;

    int size() const { return numRanks_; }

    /// Runs fn(comm) on every rank concurrently and joins. Exceptions thrown
    /// by rank functions are captured; the first one is rethrown here.
    void run(const std::function<void(Comm&)>& fn);

    /// Convenience: construct a world of n ranks and run fn on it.
    static void launch(int numRanks, const std::function<void(Comm&)>& fn) {
        ThreadCommWorld world(numRanks);
        world.run(fn);
    }

private:
    friend class ThreadComm;

    struct Message {
        int src;
        int tag;
        std::vector<std::uint8_t> data;
    };

    struct Mailbox {
        std::mutex mutex;
        std::condition_variable cv;
        std::deque<Message> messages;
    };

    void deliver(int dest, Message msg);
    std::vector<std::uint8_t> receive(int self, int src, int tag,
                                      std::chrono::milliseconds deadline);
    bool tryReceive(int self, int src, int tag, std::vector<std::uint8_t>& out);

    int numRanks_;
    std::vector<std::unique_ptr<Mailbox>> mailboxes_;
    std::barrier<> barrier_;

    // Collective scratch: slot r written only by rank r between barriers
    // (gatherv's root then moves them all out before the closing barrier).
    std::vector<std::vector<std::uint8_t>> byteSlots_;
    // broadcast: the root's buffer, read by the other ranks between barriers.
    const std::vector<std::uint8_t>* bcastSource_ = nullptr;
    std::vector<std::vector<double>> doubleSlots_;
    std::vector<std::vector<std::uint64_t>> u64Slots_;
};

} // namespace walb::vmpi
