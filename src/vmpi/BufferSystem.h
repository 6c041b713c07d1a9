#pragma once
/// \file BufferSystem.h
/// Neighborhood exchange: each rank packs one send buffer per neighbor rank,
/// ships them all and collects the expected incoming buffers. This mirrors
/// waLBerla's BufferSystem, the backbone of the ghost-layer PDF
/// communication. Because vmpi sends are buffered/non-blocking, the naive
/// "send everything, then receive everything" schedule is deadlock-free,
/// like the MPI_Isend/Irecv pattern it stands in for.
///
/// The exchange is split into three stages so callers can overlap
/// communication with computation (the core/shell sweep split of the
/// distributed driver):
///
///   * beginExchange()       — ship every staged send buffer (zero-copy: the
///                             buffer's storage moves into the message) and
///                             start expecting one buffer per receiver;
///   * progress(fn)          — non-blocking poll: drains whatever has
///                             already arrived, in arrival order, through
///                             `fn(srcRank, RecvBuffer&)`;
///   * finishExchange(fn)    — drains the remaining receives. Arrivals are
///                             still taken opportunistically (tryRecv over
///                             all pending sources); only when a full poll
///                             round comes up empty does it block on one
///                             source, which keeps the recv-deadline
///                             semantics of the fault-tolerant runtime.
///
/// A caller without overlap calls beginExchange() and finishExchange(fn)
/// back to back. Either drain path converts a BufferError raised by `fn`
/// (a truncated or corrupted payload) into CommError{Corrupt, peer, tag}.
///
/// Buffer lifecycle: send-buffer storage moves out with each message and
/// drained receive storage is reclaimed into a free pool that re-arms the
/// send buffers. In a steady-state symmetric exchange (same neighbors and
/// message sizes every step) this performs **zero allocations** — asserted
/// by the micro benchmark via sendBufferAllocations().

#include <algorithm>
#include <map>
#include <thread>
#include <vector>

#include "core/Buffer.h"
#include "core/Debug.h"
#include "vmpi/Comm.h"

namespace walb::vmpi {

class BufferSystem {
public:
    /// tag: disambiguates concurrent buffer systems over the same comm.
    explicit BufferSystem(Comm& comm, int tag = 0) : comm_(comm), tag_(tag) {}

    /// The ranks this rank will receive a (possibly empty) buffer from in
    /// every exchange. Usually identical to the set of send targets by
    /// symmetry of the block neighborhood graph.
    void setReceiverInfo(std::vector<int> recvFrom) { recvFrom_ = std::move(recvFrom); }

    /// Send buffer for the given neighbor rank, created on first use. A
    /// buffer whose storage moved out with the previous exchange is re-armed
    /// here from the reclaim pool — by packing time the previous receives
    /// have been drained, so their storage is available for reuse.
    SendBuffer& sendBuffer(int rank) {
        WALB_DASSERT(rank >= 0 && rank < comm_.size());
        auto [it, inserted] = sendBuffers_.try_emplace(rank);
        (void)inserted;
        if (it->second.capacity() == 0) {
            armBuffer(it->second);
            armedCapacity_[rank] = it->second.capacity();
        }
        return it->second;
    }

    // ---- split exchange (communication hiding) ---------------------------

    /// Ships all staged send buffers (the backing storage moves into the
    /// message — no staging copy) and marks every receiver-set rank as
    /// pending. Must not be called while an exchange is in progress.
    void beginExchange() {
        WALB_ASSERT(pending_.empty(), "beginExchange() while " << pending_.size()
                                                               << " receives pending");
        lastSendBytes_ = 0;
        lastSendMessages_ = 0;
        lastRecvBytes_ = 0;
        lastRecvMessages_ = 0;
        for (auto& [rank, sb] : sendBuffers_) {
            lastSendBytes_ += sb.size();
            ++lastSendMessages_;
            if (sb.capacity() > armedCapacity_[rank]) ++sendBufferAllocations_;
            comm_.send(rank, tag_, sb.release());
            armedCapacity_[rank] = 0;
        }
        pending_.assign(recvFrom_.begin(), recvFrom_.end());
        cumulativeSendBytes_ += lastSendBytes_;
        cumulativeSendMessages_ += lastSendMessages_;
    }

    /// Non-blocking poll over all pending sources: every message that has
    /// already arrived is drained through `fn(srcRank, RecvBuffer&)` (with
    /// the BufferError -> CommError{Corrupt} guard) and its storage is
    /// reclaimed. Returns the number of messages drained by this call.
    template <typename Fn>
    std::size_t progress(Fn&& fn) {
        std::size_t drained = 0;
        for (std::size_t i = 0; i < pending_.size();) {
            std::vector<std::uint8_t> bytes;
            if (comm_.tryRecv(pending_[i], tag_, bytes)) {
                deliver(pending_[i], std::move(bytes), fn);
                pending_.erase(pending_.begin() + std::ptrdiff_t(i));
                ++drained;
            } else {
                ++i;
            }
        }
        return drained;
    }

    /// Drains every remaining receive. Messages are taken in arrival order
    /// (tryRecv poll rounds). Between empty rounds the thread yield-polls
    /// for a bounded number of rounds before falling back to one blocking
    /// recv: on an oversubscribed host a blocking receive pays a scheduler
    /// wakeup per message, and polling additionally keeps this rank's own
    /// outgoing traffic progressing (tryRecv drives decorators like
    /// FaultyComm's latency queue). The blocking fallback still honors the
    /// comm's recv deadline: a miss is counted (deadlineMisses()) and the
    /// CommError{DeadlineExceeded} rethrown, so the exchange fails as one
    /// structured diagnosis instead of hanging the world on a dead rank.
    template <typename Fn>
    void finishExchange(Fn&& fn) {
        while (!pending_.empty()) {
            std::size_t drained = 0;
            for (int spin = 0; spin < kFinishSpinRounds; ++spin) {
                drained = progress(fn);
                if (drained > 0) break;
                std::this_thread::yield();
            }
            if (drained > 0) continue;
            const int src = pending_.front();
            std::vector<std::uint8_t> bytes;
            try {
                // walb-lint: allow(blocking): sweep owner installs the recv deadline on comm_; a miss is accounted here and rethrown
                bytes = comm_.recv(src, tag_);
            } catch (const CommError& e) {
                if (e.kind == CommError::Kind::DeadlineExceeded) ++deadlineMisses_;
                throw;
            }
            deliver(src, std::move(bytes), fn);
            pending_.erase(pending_.begin());
        }
    }

    /// Receives still outstanding in the current exchange.
    std::size_t pendingReceives() const { return pending_.size(); }
    bool exchangeInProgress() const { return !pending_.empty(); }

    /// Abandons the current exchange without waiting for the outstanding
    /// receives — the recovery path: after a rank failure the in-flight
    /// ghost messages of the old epoch are stale (the recovery rewind
    /// refills every ghost layer from restored interiors anyway), so the
    /// pending set is simply dropped. Any message still arriving later is
    /// never read: the shrunken world talks on an epoch-shifted tag band.
    void abortExchange() { pending_.clear(); }

    /// Number of receives that ran into the comm's deadline (and threw).
    std::uint64_t deadlineMisses() const { return deadlineMisses_; }

    /// Bytes currently staged for sending (call before the exchange starts);
    /// afterwards the staged buffers are empty and this returns 0 — use
    /// lastSendBytes()/cumulativeSendBytes() for accounting.
    std::size_t totalSendBytes() const {
        std::size_t n = 0;
        for (const auto& [rank, sb] : sendBuffers_) n += sb.size();
        return n;
    }

    /// Bytes received in the last exchange — the receive-side counterpart
    /// of totalSendBytes(), measured when the messages arrive.
    std::size_t totalRecvBytes() const { return lastRecvBytes_; }

    // ---- per-exchange and lifetime traffic accounting (feeds the
    // ---- obs::MetricsRegistry counters of the simulation drivers) --------
    std::size_t lastSendBytes() const { return lastSendBytes_; }
    std::size_t lastRecvBytes() const { return lastRecvBytes_; }
    std::size_t lastSendMessages() const { return lastSendMessages_; }
    std::size_t lastRecvMessages() const { return lastRecvMessages_; }
    std::uint64_t cumulativeSendBytes() const { return cumulativeSendBytes_; }
    std::uint64_t cumulativeRecvBytes() const { return cumulativeRecvBytes_; }
    std::uint64_t cumulativeSendMessages() const { return cumulativeSendMessages_; }
    std::uint64_t cumulativeRecvMessages() const { return cumulativeRecvMessages_; }

    /// Times a send buffer's backing storage had to be newly allocated or
    /// grown. A steady-state exchange (stable neighbors and message sizes)
    /// must not increase this — the zero-allocation acceptance bar of the
    /// buffer-reuse micro benchmark.
    std::uint64_t sendBufferAllocations() const { return sendBufferAllocations_; }

    void resetTrafficCounters() {
        lastSendBytes_ = lastRecvBytes_ = 0;
        lastSendMessages_ = lastRecvMessages_ = 0;
        cumulativeSendBytes_ = cumulativeRecvBytes_ = 0;
        cumulativeSendMessages_ = cumulativeRecvMessages_ = 0;
    }

    Comm& comm() { return comm_; }

private:
    /// Unpacks one arrived message through fn and reclaims its storage.
    template <typename Fn>
    void deliver(int rank, std::vector<std::uint8_t> bytes, Fn&& fn) {
        lastRecvBytes_ += bytes.size();
        ++lastRecvMessages_;
        cumulativeRecvBytes_ += bytes.size();
        ++cumulativeRecvMessages_;
        RecvBuffer buf(std::move(bytes));
        try {
            fn(rank, buf);
        } catch (const BufferError& e) {
            const CommError err(CommError::Kind::Corrupt, rank, tag_, 0.0, e.what());
            comm_.reportError(err);
            throw err;
        }
        reclaim(buf.release());
    }

    /// Backs a send buffer with pooled storage (keeps its capacity) when
    /// available; an empty-capacity arm is counted as a fresh allocation the
    /// moment the buffer actually grows (see beginExchange()).
    void armBuffer(SendBuffer& sb) {
        if (!pool_.empty()) {
            sb.adopt(std::move(pool_.back()));
            pool_.pop_back();
        }
    }

    void reclaim(std::vector<std::uint8_t> storage) {
        if (storage.capacity() == 0) return;
        if (pool_.size() >= kMaxPooledBuffers) return;
        pool_.push_back(std::move(storage));
        // Largest capacities last: armBuffer hands out the biggest first so
        // repacking the same neighbor slice never regrows.
        std::sort(pool_.begin(), pool_.end(),
                  [](const auto& a, const auto& b) { return a.capacity() < b.capacity(); });
    }

    static constexpr std::size_t kMaxPooledBuffers = 64;
    /// Empty poll rounds (with a yield each) before finishExchange falls
    /// back to a blocking recv.
    static constexpr int kFinishSpinRounds = 64;

    Comm& comm_;
    int tag_;
    std::map<int, SendBuffer> sendBuffers_;
    std::map<int, std::size_t> armedCapacity_;
    std::vector<int> recvFrom_;
    std::vector<int> pending_;
    std::vector<std::vector<std::uint8_t>> pool_;
    std::size_t lastSendBytes_ = 0, lastRecvBytes_ = 0;
    std::size_t lastSendMessages_ = 0, lastRecvMessages_ = 0;
    std::uint64_t deadlineMisses_ = 0;
    std::uint64_t sendBufferAllocations_ = 0;
    std::uint64_t cumulativeSendBytes_ = 0, cumulativeRecvBytes_ = 0;
    std::uint64_t cumulativeSendMessages_ = 0, cumulativeRecvMessages_ = 0;
};

} // namespace walb::vmpi
