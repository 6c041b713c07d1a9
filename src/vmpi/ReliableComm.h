#pragma once
/// \file ReliableComm.h
/// Transient-fault healing for the virtual message-passing layer: bounded
/// retry-with-backoff so a slow or lossy link is *retried*, not declared
/// dead.
///
/// PR 2 made failures detectable (recv deadlines, structured CommError); the
/// self-healing runtime of walb::recover needs one more distinction: a
/// *transient* fault (one dropped packet, a congested link reordering
/// frames, a duplicated retransmission) must be absorbed locally, while a
/// *persistent* one (dead peer) must escalate to the failure-agreement
/// protocol. ReliableComm is that filter. It decorates any Comm and adds a
/// minimal reliability protocol on every point-to-point message:
///
///   * Sequencing — each (dest, tag) stream carries a 64-bit sequence number
///     prefix. The receiver delivers strictly in order: a duplicate
///     (seq < expected) is dropped, a future message (seq > expected,
///     i.e. a Delay fault reordered the link) is stashed and delivered once
///     the gap closes. FaultyComm's Duplicate and Delay faults are thereby
///     healed without the upper layers ever noticing.
///   * NACK / resend — when a blocking recv() runs into its deadline, the
///     receiver does not give up: it sends a NACK naming the (tag, expected
///     seq) to the sender, sleeps an exponentially growing backoff
///     (backoffBase × 2^attempt) and retries. Senders keep the last
///     `resendCacheDepth` messages of every stream and answer NACKs —
///     serviced opportunistically inside their own send/recv/tryRecv calls,
///     like an MPI library progressing its queues inside MPI_Test — by
///     retransmitting everything from the requested sequence number on.
///     A Drop fault is thereby healed end-to-end.
///   * Escalation — after `maxRetries` unsuccessful retries the deadline
///     miss is re-raised unchanged (and only then reported through the
///     error observer), handing the decision to the recovery layer. The
///     observer is suppressed during non-final attempts so that healed
///     transients do not burn the simulation's one-shot flight-recorder
///     dump.
///
/// Retries, resends and backoff time are counted per instance and surface
/// as the `recover.retries` / `recover.backoff_seconds` metrics via
/// RecoveryManager::publishMetrics. Collectives pass through unchanged —
/// they are either pre-failure (ThreadComm barriers) or already rebuilt on
/// point-to-point by SubComm, whose traffic goes through send/recv here
/// and therefore enjoys the same protection.

#include <chrono>
#include <cstdint>
#include <cstring>
#include <deque>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "core/Buffer.h"
#include "vmpi/Tags.h"
#include "vmpi/Comm.h"

namespace walb::vmpi {

class ReliableComm final : public Comm {
public:
    struct RetryOptions {
        int maxRetries = 2;                        ///< deadline-miss retries per recv
        std::chrono::milliseconds backoffBase{2};  ///< sleep before retry k: base × 2^(k-1)
        std::size_t resendCacheDepth = 8;          ///< retained sends per (dest, tag) stream
    };

    /// Control tag of the NACK side channel; never used by upper layers
    /// (user tags are small non-negative ints, epoch-shifted tags stay far
    /// from it).
    static constexpr int kNackTag = tags::kNack;

    explicit ReliableComm(Comm& inner) : inner_(inner) {}
    ReliableComm(Comm& inner, RetryOptions opt) : inner_(inner), opt_(opt) {}

    ~ReliableComm() override { inner_.setErrorObserver(nullptr); }

    int rank() const override { return inner_.rank(); }
    int size() const override { return inner_.size(); }

    void setRecvDeadline(std::chrono::milliseconds deadline) override {
        Comm::setRecvDeadline(deadline);
        inner_.setRecvDeadline(deadline);
    }

    /// The observer is *gated*, not forwarded verbatim: deadline misses the
    /// retry loop is still going to heal must not reach the driver's
    /// last-breath hooks. Escalations and every non-deadline error pass
    /// through unchanged.
    void setErrorObserver(ErrorObserver observer) override {
        Comm::setErrorObserver(std::move(observer));
        inner_.setErrorObserver([this](const CommError& e) {
            if (!suppressObserver_) reportError(e);
        });
    }

    void send(int dest, int tag, std::vector<std::uint8_t> data) override {
        serviceNacks();
        SendStream& s = sendStreams_[StreamKey{dest, tag}];
        std::vector<std::uint8_t> framed = frame(s.nextSeq, data);
        s.cache.push_back({s.nextSeq, framed});
        while (s.cache.size() > opt_.resendCacheDepth) s.cache.pop_front();
        ++s.nextSeq;
        inner_.send(dest, tag, std::move(framed));
    }

    std::vector<std::uint8_t> recv(int src, int tag) override {
        serviceNacks();
        RecvStream& s = recvStreams_[StreamKey{src, tag}];
        std::vector<std::uint8_t> out;
        if (takeStashed(s, out)) return out;
        int attempt = 0;
        for (;;) {
            std::vector<std::uint8_t> raw;
            try {
                ObserverGate gate(suppressObserver_, attempt < opt_.maxRetries);
                raw = inner_.recv(src, tag); // walb-lint: allow(blocking): the retry loop exists to catch DeadlineExceeded — the deadline is installed by the owner on the inner comm
            } catch (const CommError& e) {
                if (e.kind != CommError::Kind::DeadlineExceeded) throw;
                if (attempt >= opt_.maxRetries) {
                    ++escalations_;
                    throw;
                }
                ++attempt;
                ++retries_;
                requestResend(src, tag, s.expected);
                backoff(attempt);
                serviceNacks();
                continue;
            }
            std::uint64_t seq = 0;
            std::vector<std::uint8_t> payload;
            unframe(src, tag, std::move(raw), seq, payload);
            if (seq == s.expected) {
                ++s.expected;
                return payload;
            }
            if (seq < s.expected) {
                ++duplicatesDropped_; // already delivered (resend overlap / Duplicate)
                continue;
            }
            ++reordered_; // future message: the gap must close first
            s.stash.emplace(seq, std::move(payload));
        }
    }

    bool tryRecv(int src, int tag, std::vector<std::uint8_t>& out) override {
        serviceNacks();
        RecvStream& s = recvStreams_[StreamKey{src, tag}];
        if (takeStashed(s, out)) return true;
        std::vector<std::uint8_t> raw;
        while (inner_.tryRecv(src, tag, raw)) {
            std::uint64_t seq = 0;
            std::vector<std::uint8_t> payload;
            unframe(src, tag, std::move(raw), seq, payload);
            if (seq == s.expected) {
                ++s.expected;
                out = std::move(payload);
                return true;
            }
            if (seq < s.expected) {
                ++duplicatesDropped_;
            } else {
                ++reordered_;
                s.stash.emplace(seq, std::move(payload));
            }
            raw.clear();
        }
        return false;
    }

    void barrier() override { inner_.barrier(); } // walb-lint: allow(blocking): decorator forward — the wrapped comm honors the configured recv deadline
    void broadcast(std::vector<std::uint8_t>& data, int root) override {
        inner_.broadcast(data, root); // walb-lint: allow(blocking): decorator forward — the wrapped comm honors the configured recv deadline
    }
    void allreduce(std::span<double> inout, ReduceOp op) override {
        inner_.allreduce(inout, op); // walb-lint: allow(blocking): decorator forward — the wrapped comm honors the configured recv deadline
    }
    void allreduce(std::span<std::uint64_t> inout, ReduceOp op) override {
        inner_.allreduce(inout, op); // walb-lint: allow(blocking): decorator forward — the wrapped comm honors the configured recv deadline
    }
    std::vector<std::vector<std::uint8_t>> allgatherv(
        std::span<const std::uint8_t> mine) override {
        return inner_.allgatherv(mine); // walb-lint: allow(blocking): decorator forward — the wrapped comm honors the configured recv deadline
    }
    std::vector<std::vector<std::uint8_t>> gatherv(std::span<const std::uint8_t> mine,
                                                   int root) override {
        return inner_.gatherv(mine, root); // walb-lint: allow(blocking): decorator forward — the wrapped comm honors the configured recv deadline
    }

    // ---- instrumentation (feeds the recover.* metrics) -------------------
    std::uint64_t retries() const { return retries_; }
    std::uint64_t resends() const { return resends_; }
    std::uint64_t escalations() const { return escalations_; }
    std::uint64_t duplicatesDropped() const { return duplicatesDropped_; }
    std::uint64_t reordered() const { return reordered_; }
    double backoffSeconds() const { return backoffSeconds_; }

    Comm& inner() { return inner_; }

private:
    using StreamKey = std::pair<int, int>; // (peer, tag)

    struct CachedSend {
        std::uint64_t seq;
        std::vector<std::uint8_t> bytes; // framed, ready for retransmission
    };
    struct SendStream {
        std::uint64_t nextSeq = 0;
        std::deque<CachedSend> cache;
    };
    struct RecvStream {
        std::uint64_t expected = 0;
        std::map<std::uint64_t, std::vector<std::uint8_t>> stash;
    };

    /// RAII observer suppression scope (recv retries only).
    struct ObserverGate {
        ObserverGate(bool& flag, bool suppress) : flag_(flag), prev_(flag) {
            flag_ = suppress;
        }
        ~ObserverGate() { flag_ = prev_; }
        bool& flag_;
        bool prev_;
    };

    static std::vector<std::uint8_t> frame(std::uint64_t seq,
                                           const std::vector<std::uint8_t>& payload) {
        std::vector<std::uint8_t> framed(sizeof(std::uint64_t) + payload.size());
        std::memcpy(framed.data(), &seq, sizeof(seq));
        if (!payload.empty())
            std::memcpy(framed.data() + sizeof(seq), payload.data(), payload.size());
        return framed;
    }

    void unframe(int src, int tag, std::vector<std::uint8_t> framed,
                 std::uint64_t& seq, std::vector<std::uint8_t>& payload) {
        if (framed.size() < sizeof(std::uint64_t)) {
            // Torn frame (e.g. a Truncate fault shorter than the header):
            // surface as a corrupt message rather than misparsing.
            const CommError err(
                CommError::Kind::Corrupt, src, tag, 0.0,
                "ReliableComm: frame shorter than its sequence header (" +
                    std::to_string(framed.size()) + " bytes)");
            reportError(err);
            throw err;
        }
        std::memcpy(&seq, framed.data(), sizeof(seq));
        payload.assign(framed.begin() + sizeof(seq), framed.end());
    }

    bool takeStashed(RecvStream& s, std::vector<std::uint8_t>& out) {
        auto it = s.stash.find(s.expected);
        if (it == s.stash.end()) return false;
        out = std::move(it->second);
        s.stash.erase(it);
        ++s.expected;
        return true;
    }

    void requestResend(int src, int tag, std::uint64_t expected) {
        SendBuffer sb;
        sb << std::int32_t(tag) << expected;
        inner_.send(src, kNackTag, sb.release()); // unframed control message
    }

    /// Answers any queued NACKs from any peer by retransmitting the cached
    /// tail of the named stream. Called from every communication entry
    /// point, so a rank busy sending still services its peers' recoveries.
    void serviceNacks() {
        if (inner_.size() <= 1) return;
        std::vector<std::uint8_t> raw;
        for (int r = 0; r < inner_.size(); ++r) {
            if (r == inner_.rank()) continue;
            while (inner_.tryRecv(r, kNackTag, raw)) {
                RecvBuffer rb(std::move(raw));
                std::int32_t tag = 0;
                std::uint64_t fromSeq = 0;
                rb >> tag >> fromSeq;
                raw.clear();
                auto it = sendStreams_.find(StreamKey{r, int(tag)});
                if (it == sendStreams_.end()) continue;
                for (const CachedSend& m : it->second.cache) {
                    if (m.seq < fromSeq) continue;
                    inner_.send(r, int(tag), m.bytes);
                    ++resends_;
                }
            }
        }
    }

    void backoff(int attempt) {
        const auto pause = opt_.backoffBase * (1LL << (attempt - 1));
        backoffSeconds_ += std::chrono::duration<double>(pause).count();
        std::this_thread::sleep_for(pause);
    }

    Comm& inner_;
    RetryOptions opt_;
    std::map<StreamKey, SendStream> sendStreams_;
    std::map<StreamKey, RecvStream> recvStreams_;
    bool suppressObserver_ = false;

    std::uint64_t retries_ = 0;
    std::uint64_t resends_ = 0;
    std::uint64_t escalations_ = 0;
    std::uint64_t duplicatesDropped_ = 0;
    std::uint64_t reordered_ = 0;
    double backoffSeconds_ = 0.0;
};

} // namespace walb::vmpi
