#pragma once
/// \file FaultyComm.h
/// Deterministic fault injection for the virtual message-passing layer.
///
/// Trillion-cell runs live in a regime where node failure mid-run is
/// expected; this decorator lets every failure mode be *rehearsed* in a
/// ctest under ThreadComm. A FaultyComm wraps any Comm and applies a
/// FaultPlan to outgoing messages:
///
///   * Drop      — the message is silently discarded (lost packet / dead
///                 NIC). The receiver's recv() runs into its deadline and
///                 throws CommError{DeadlineExceeded}.
///   * Delay     — the message is held back for N subsequent send() calls
///                 (out-of-order arrival / congested link).
///   * Duplicate — the message is delivered twice (retransmission bug).
///   * Truncate  — only a prefix of the payload is delivered (torn write /
///                 corrupted frame). Deserialization raises BufferError,
///                 which the exchange path converts into
///                 CommError{Corrupt}.
///   * Corrupt   — one payload byte is flipped in flight (a bit error the
///                 transport did not catch); only the application's own
///                 checksums, e.g. the block-record CRC, can detect it.
///   * KillRank  — beginStep(k) throws CommError{RankKilled} on the doomed
///                 rank, simulating a node loss at time step k.
///
/// Orthogonal to the per-message plan, setMessageLatency() models a *slow
/// serial link* (store-and-forward): each outgoing message occupies the
/// link for the configured duration, and a message can only start
/// transmitting once the previous one has been delivered — a burst of N
/// messages therefore takes N×latency to drain, exactly like back-to-back
/// frames on a congested wire. Delivery is strictly FIFO per instance (one
/// queue, monotonically increasing due times), so the per-(dest, tag)
/// message order the LBM exchange relies on is preserved — latency can
/// shift communication time between the hidden and exposed buckets of the
/// overlapped schedule, but can never change results.
///
/// Plans are either written explicitly or generated from a seed
/// (FaultPlan::randomized), so every failure scenario is replayable
/// bit-for-bit. Injections are counted per instance and, when a
/// MetricsRegistry is attached, reported live through the obs layer as
/// `comm.faults_injected`.

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "core/Random.h"
#include "obs/Metrics.h"
#include "vmpi/Comm.h"

namespace walb::vmpi {

/// Declarative description of the faults to inject, shared (read-only) by
/// all ranks' FaultyComm handles of one world.
struct FaultPlan {
    /// FaultPlan::randomized draws only the first four actions.
    enum class Action : std::uint8_t { Drop, Delay, Duplicate, Truncate, Corrupt };

    static const char* actionName(Action a) {
        switch (a) {
            case Action::Drop: return "drop";
            case Action::Delay: return "delay";
            case Action::Duplicate: return "duplicate";
            case Action::Truncate: return "truncate";
            case Action::Corrupt: return "corrupt";
        }
        return "?";
    }

    /// One message-level fault rule. A rule fires on the `matchIndex`-th
    /// send (0-based, counted per rule) that matches its src/dest/tag
    /// filters; -1 filters match anything.
    struct MessageFault {
        Action action = Action::Drop;
        int srcRank = -1;              ///< sender to fault (-1: any)
        int destRank = -1;             ///< destination filter (-1: any)
        int tag = -1;                  ///< tag filter (-1: any)
        std::uint64_t matchIndex = 0;  ///< fire on the N-th matching send
        std::size_t truncateToBytes = 0;   ///< Truncate: bytes kept
        std::size_t corruptFromEnd = 0;    ///< Corrupt: flipped byte, counted from the end
        std::uint64_t delayBySends = 1;    ///< Delay: held back this many sends
    };

    std::vector<MessageFault> messageFaults;

    int killRank = -1;            ///< rank to kill (-1: nobody)
    std::uint64_t killAtStep = 0; ///< beginStep() index at which it dies

    bool empty() const { return messageFaults.empty() && killRank < 0; }

    /// Deterministically generates `numFaults` message faults for a world of
    /// `worldSize` ranks from a seed: the same seed always reproduces the
    /// same failure scenario, which is what makes fault drills debuggable.
    static FaultPlan randomized(std::uint64_t seed, int worldSize,
                                std::size_t numFaults) {
        Random rng(seed);
        FaultPlan plan;
        plan.messageFaults.reserve(numFaults);
        for (std::size_t i = 0; i < numFaults; ++i) {
            MessageFault f;
            f.action = Action(rng.uniformInt(4));
            f.srcRank = int(rng.uniformInt(std::uint64_t(worldSize)));
            f.matchIndex = rng.uniformInt(4);
            f.truncateToBytes = std::size_t(rng.uniformInt(8));
            f.delayBySends = 1 + rng.uniformInt(2);
            plan.messageFaults.push_back(f);
        }
        return plan;
    }
};

/// Per-instance tally of what was injected (also mirrored into the obs
/// counters when a registry is attached).
struct FaultCounts {
    std::uint64_t dropped = 0;
    std::uint64_t delayed = 0;
    std::uint64_t duplicated = 0;
    std::uint64_t truncated = 0;
    std::uint64_t corrupted = 0;
    std::uint64_t killed = 0;
    std::uint64_t total() const {
        return dropped + delayed + duplicated + truncated + corrupted + killed;
    }
};

/// Decorator over any Comm that executes a FaultPlan. Each rank wraps its
/// own handle; rules filter on srcRank so one shared plan drives the whole
/// world deterministically.
class FaultyComm final : public Comm {
public:
    FaultyComm(Comm& inner, const FaultPlan& plan,
               obs::MetricsRegistry* metrics = nullptr)
        : inner_(inner),
          plan_(plan),
          matchCounts_(plan.messageFaults.size(), 0),
          metrics_(metrics) {}

    ~FaultyComm() override {
        if (deliveryThread_.joinable()) {
            {
                std::lock_guard<std::mutex> lk(latentMutex_);
                stopDelivery_ = true;
            }
            latentCv_.notify_all();
            // The delivery loop ships every still-queued message (in order,
            // without further waiting) before exiting — nothing is lost.
            deliveryThread_.join();
        }
    }

    int rank() const override { return inner_.rank(); }
    int size() const override { return inner_.size(); }

    /// Makes every subsequent outgoing message occupy a simulated serial
    /// link for `latency` of wall-clock time before delivery to the wrapped
    /// comm; queued messages transmit one after another (store-and-forward
    /// slow-link model). Pass zero to restore immediate delivery.
    /// Order-preserving; see the file comment.
    void setMessageLatency(std::chrono::microseconds latency) {
        flushLatent();
        {
            std::lock_guard<std::mutex> lk(latentMutex_);
            latency_ = latency;
        }
        if (latency.count() > 0 && !deliveryThread_.joinable())
            deliveryThread_ = std::thread([this] { deliveryLoop(); });
    }

    std::chrono::microseconds messageLatency() const {
        std::lock_guard<std::mutex> lk(latentMutex_);
        return latency_;
    }

    /// Blocks until every latency-held message has been delivered.
    void flushLatent() {
        std::unique_lock<std::mutex> lk(latentMutex_);
        latentDrainedCv_.wait(lk, [&] { return latent_.empty(); });
    }

    /// Forwards the deadline to the wrapped comm (recv() delegates there).
    void setRecvDeadline(std::chrono::milliseconds deadline) override {
        Comm::setRecvDeadline(deadline);
        inner_.setRecvDeadline(deadline);
    }

    /// Forwards the error observer to the wrapped comm (where deadline and
    /// corruption errors actually originate); kill errors raised by this
    /// decorator itself are reported through the same observer.
    void setErrorObserver(ErrorObserver observer) override {
        Comm::setErrorObserver(observer);
        inner_.setErrorObserver(std::move(observer));
    }

    /// Called by the driver at the top of time step `step` (see
    /// DistributedSimulation::setPreStepCallback). Throws
    /// CommError{RankKilled} on the doomed rank at the planned step — the
    /// rank stops dead mid-run; its peers subsequently observe deadline
    /// misses.
    void beginStep(std::uint64_t step) {
        if (plan_.killRank == rank() && step == plan_.killAtStep) {
            ++counts_.killed;
            noteInjection("kill");
            const CommError err(CommError::Kind::RankKilled, rank(), -1, 0.0,
                                "fault plan killed rank " + std::to_string(rank()) +
                                    " at step " + std::to_string(step));
            reportError(err);
            throw err;
        }
    }

    void send(int dest, int tag, std::vector<std::uint8_t> data) override {
        // Only messages queued by *previous* send() calls age on this call;
        // a message delayed right now must survive at least until after the
        // next send, otherwise Delay would never reorder anything.
        const std::size_t preExisting = delayed_.size();
        const FaultPlan::MessageFault* fault = matchNext(dest, tag);
        if (!fault) {
            forward(dest, tag, std::move(data));
        } else {
            switch (fault->action) {
                case FaultPlan::Action::Drop:
                    ++counts_.dropped;
                    noteInjection("drop");
                    break; // the message simply never leaves this rank
                case FaultPlan::Action::Delay:
                    ++counts_.delayed;
                    noteInjection("delay");
                    delayed_.push_back(
                        {dest, tag, std::move(data), fault->delayBySends});
                    break;
                case FaultPlan::Action::Duplicate:
                    ++counts_.duplicated;
                    noteInjection("duplicate");
                    forward(dest, tag, data);
                    forward(dest, tag, std::move(data));
                    break;
                case FaultPlan::Action::Truncate: {
                    ++counts_.truncated;
                    noteInjection("truncate");
                    data.resize(std::min(data.size(), fault->truncateToBytes));
                    forward(dest, tag, std::move(data));
                    break;
                }
                case FaultPlan::Action::Corrupt: {
                    ++counts_.corrupted;
                    noteInjection("corrupt");
                    if (fault->corruptFromEnd < data.size())
                        data[data.size() - 1 - fault->corruptFromEnd] ^= 0x5a;
                    forward(dest, tag, std::move(data));
                    break;
                }
            }
        }
        tickDelayed(preExisting);
    }

    /// Receive paths first ship any of this rank's *own* latency-held
    /// messages that are already due — progress piggybacks on communication
    /// calls, exactly like an MPI library progressing its send queue inside
    /// MPI_Test/MPI_Recv. Without this, a compute-saturated machine would
    /// stretch the injected latency by scheduler wakeup delays of the
    /// background delivery thread.
    std::vector<std::uint8_t> recv(int src, int tag) override {
        deliverDueLatent();
        return inner_.recv(src, tag); // walb-lint: allow(blocking): decorator forward — the wrapped comm honors the configured recv deadline
    }
    bool tryRecv(int src, int tag, std::vector<std::uint8_t>& out) override {
        deliverDueLatent();
        return inner_.tryRecv(src, tag, out);
    }

    /// Collectives pass through unchanged; barrier() additionally flushes
    /// any still-delayed and latency-held messages (a barrier orders
    /// everything anyway).
    void barrier() override {
        flushDelayed();
        flushLatent();
        inner_.barrier(); // walb-lint: allow(blocking): decorator forward — the wrapped comm honors the configured recv deadline
    }
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

    /// Releases every still-held Delay message immediately.
    void flushDelayed() {
        while (!delayed_.empty()) {
            auto msg = std::move(delayed_.front());
            delayed_.pop_front();
            forward(msg.dest, msg.tag, std::move(msg.data));
        }
    }

    const FaultCounts& counts() const { return counts_; }
    std::uint64_t faultsInjected() const { return counts_.total(); }
    const FaultPlan& plan() const { return plan_; }
    Comm& inner() { return inner_; }

private:
    struct DelayedMessage {
        int dest;
        int tag;
        std::vector<std::uint8_t> data;
        std::uint64_t remainingSends; ///< released when this reaches zero
    };

    /// Returns the first rule whose filters match this send and whose
    /// per-rule match counter equals its matchIndex (counting is
    /// deterministic: purely a function of this rank's send sequence).
    const FaultPlan::MessageFault* matchNext(int dest, int tag) {
        for (std::size_t i = 0; i < plan_.messageFaults.size(); ++i) {
            const auto& f = plan_.messageFaults[i];
            if (f.srcRank >= 0 && f.srcRank != rank()) continue;
            if (f.destRank >= 0 && f.destRank != dest) continue;
            if (f.tag >= 0 && f.tag != tag) continue;
            if (matchCounts_[i]++ == f.matchIndex) return &f;
        }
        return nullptr;
    }

    /// Ages the first `limit` queue entries by one send and releases those
    /// whose countdown reaches zero (in queue order, after the current
    /// message went out — that is what produces the reordering).
    void tickDelayed(std::size_t limit) {
        std::vector<DelayedMessage> release;
        for (std::size_t i = 0; i < limit && i < delayed_.size();) {
            if (--delayed_[i].remainingSends == 0) {
                release.push_back(std::move(delayed_[i]));
                delayed_.erase(delayed_.begin() + std::ptrdiff_t(i));
                --limit;
            } else {
                ++i;
            }
        }
        for (auto& msg : release) forward(msg.dest, msg.tag, std::move(msg.data));
    }

    /// Final delivery hop: immediate when no latency is configured,
    /// otherwise the message joins the FIFO latency queue. The link is
    /// serial: transmission starts at max(now, link-free time) and takes
    /// `latency_`, so due times are monotonically increasing — messages to
    /// the same (dest, tag) can never overtake each other.
    void forward(int dest, int tag, std::vector<std::uint8_t> data) {
        std::unique_lock<std::mutex> lk(latentMutex_);
        if (latency_.count() == 0 && latent_.empty()) {
            lk.unlock();
            inner_.send(dest, tag, std::move(data)); // walb-lint: allow(lock-scope): lk.unlock() on the line above releases the mutex first
            return;
        }
        const auto start = std::max(std::chrono::steady_clock::now(), linkFreeAt_);
        const auto due = start + latency_;
        linkFreeAt_ = due;
        latent_.push_back({dest, tag, std::move(data), due});
        latentCv_.notify_one(); // walb-lint: allow(lock-scope): notify under lock costs one spurious wakeup at most; waiter re-checks its predicate
    }

    /// Ships every queue-front message whose due time has passed. The lock
    /// is held across pop + inner send so the background loop and the
    /// opportunistic receive-path delivery can never reorder the FIFO
    /// (ThreadComm::send is a non-blocking mailbox push, so holding the
    /// latency lock across it is safe).
    void deliverDueLatent() {
        std::lock_guard<std::mutex> lk(latentMutex_);
        const bool hadLatent = !latent_.empty();
        const auto now = std::chrono::steady_clock::now();
        while (!latent_.empty() && latent_.front().due <= now) {
            auto msg = std::move(latent_.front());
            latent_.pop_front();
            inner_.send(msg.dest, msg.tag, std::move(msg.data)); // walb-lint: allow(lock-scope): ThreadComm::send is a non-blocking mailbox push; lock held to keep the latency FIFO ordered
        }
        if (hadLatent && latent_.empty()) latentDrainedCv_.notify_all(); // walb-lint: allow(lock-scope): drain signal must be ordered with the queue-empty check
    }

    /// Background delivery loop: pops the (unique, FIFO) queue front once
    /// its due time passes and ships it to the wrapped comm. On shutdown
    /// the remaining queue is shipped immediately, still in order.
    void deliveryLoop() {
        std::unique_lock<std::mutex> lk(latentMutex_);
        for (;;) {
            latentCv_.wait(lk, [&] { return stopDelivery_ || !latent_.empty(); });
            if (latent_.empty()) return; // only reachable when stopping
            if (!stopDelivery_) {
                const auto due = latent_.front().due;
                if (std::chrono::steady_clock::now() < due) {
                    latentCv_.wait_until(lk, due);
                    continue; // re-evaluate: stop flag may have been raised
                }
            }
            auto msg = std::move(latent_.front());
            latent_.pop_front();
            inner_.send(msg.dest, msg.tag, std::move(msg.data)); // walb-lint: allow(lock-scope): ThreadComm::send is a non-blocking mailbox push; lock held to keep the latency FIFO ordered
            if (latent_.empty()) latentDrainedCv_.notify_all(); // walb-lint: allow(lock-scope): drain signal must be ordered with the queue-empty check
        }
    }

    void noteInjection(const char* what) {
        (void)what;
        if (metrics_) metrics_->counter("comm.faults_injected").inc();
    }

    struct LatentMessage {
        int dest;
        int tag;
        std::vector<std::uint8_t> data;
        std::chrono::steady_clock::time_point due;
    };

    Comm& inner_;
    FaultPlan plan_;
    std::vector<std::uint64_t> matchCounts_;
    std::deque<DelayedMessage> delayed_;
    FaultCounts counts_;
    obs::MetricsRegistry* metrics_;

    mutable std::mutex latentMutex_;
    std::condition_variable latentCv_;
    std::condition_variable latentDrainedCv_;
    std::deque<LatentMessage> latent_;
    std::chrono::microseconds latency_{0};
    /// When the simulated serial link finishes its current transmission;
    /// the next queued message starts no earlier than this.
    std::chrono::steady_clock::time_point linkFreeAt_{};
    std::thread deliveryThread_;
    bool stopDelivery_ = false;
};

} // namespace walb::vmpi
