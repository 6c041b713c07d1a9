#include "vmpi/ThreadComm.h"

#include <algorithm>
#include <exception>
#include <utility>

namespace walb::vmpi {

// ---- ThreadCommWorld -------------------------------------------------------

ThreadCommWorld::ThreadCommWorld(int numRanks)
    : numRanks_(numRanks),
      barrier_(numRanks),
      byteSlots_(uint_c(numRanks)),
      doubleSlots_(uint_c(numRanks)),
      u64Slots_(uint_c(numRanks)) {
    WALB_ASSERT(numRanks > 0);
    mailboxes_.reserve(uint_c(numRanks));
    for (int i = 0; i < numRanks; ++i) mailboxes_.push_back(std::make_unique<Mailbox>());
}

ThreadCommWorld::~ThreadCommWorld() = default;

void ThreadCommWorld::run(const std::function<void(Comm&)>& fn) {
    std::vector<std::thread> threads;
    threads.reserve(uint_c(numRanks_));
    std::mutex excMutex;
    std::exception_ptr firstExc;

    for (int r = 0; r < numRanks_; ++r) {
        threads.emplace_back([this, r, &fn, &excMutex, &firstExc] {
            ThreadComm comm(*this, r);
            try {
                fn(comm);
            } catch (...) {
                std::lock_guard<std::mutex> lock(excMutex);
                if (!firstExc) firstExc = std::current_exception();
            }
        });
    }
    for (auto& t : threads) t.join();

    // Purge undelivered messages so a reused world starts clean.
    for (auto& mb : mailboxes_) {
        std::lock_guard<std::mutex> lock(mb->mutex);
        mb->messages.clear();
    }
    if (firstExc) std::rethrow_exception(firstExc);
}

void ThreadCommWorld::deliver(int dest, Message msg) {
    WALB_ASSERT(dest >= 0 && dest < numRanks_, "invalid destination rank " << dest);
    Mailbox& mb = *mailboxes_[uint_c(dest)];
    {
        std::lock_guard<std::mutex> lock(mb.mutex);
        mb.messages.push_back(std::move(msg));
    }
    mb.cv.notify_all();
}

std::vector<std::uint8_t> ThreadCommWorld::receive(int self, int src, int tag,
                                                   std::chrono::milliseconds deadline) {
    WALB_ASSERT(src >= 0 && src < numRanks_, "invalid source rank " << src);
    Mailbox& mb = *mailboxes_[uint_c(self)];
    const auto start = std::chrono::steady_clock::now();
    std::unique_lock<std::mutex> lock(mb.mutex);
    for (;;) {
        auto it = std::find_if(mb.messages.begin(), mb.messages.end(),
                               [&](const Message& m) { return m.src == src && m.tag == tag; });
        if (it != mb.messages.end()) {
            auto data = std::move(it->data);
            mb.messages.erase(it);
            return data;
        }
        if (deadline.count() <= 0) {
            mb.cv.wait(lock); // unbounded: classic MPI blocking receive
            continue;
        }
        // Bounded wait, robust against spurious wakeups: recompute the
        // remaining budget every iteration; the matching check above runs
        // again after every wakeup.
        const auto elapsed = std::chrono::steady_clock::now() - start;
        if (elapsed >= deadline) {
            throw CommError(CommError::Kind::DeadlineExceeded, src, tag,
                            std::chrono::duration<double>(elapsed).count(),
                            "rank " + std::to_string(self) +
                                " gave up waiting (peer dead, message dropped, or "
                                "deadline too tight)");
        }
        mb.cv.wait_for(lock, deadline - elapsed);
    }
}

bool ThreadCommWorld::tryReceive(int self, int src, int tag, std::vector<std::uint8_t>& out) {
    Mailbox& mb = *mailboxes_[uint_c(self)];
    std::lock_guard<std::mutex> lock(mb.mutex);
    auto it = std::find_if(mb.messages.begin(), mb.messages.end(),
                           [&](const Message& m) { return m.src == src && m.tag == tag; });
    if (it == mb.messages.end()) return false;
    out = std::move(it->data);
    mb.messages.erase(it);
    return true;
}

// ---- ThreadComm ------------------------------------------------------------

int ThreadComm::size() const { return world_->numRanks_; }

void ThreadComm::send(int dest, int tag, std::vector<std::uint8_t> data) {
    world_->deliver(dest, ThreadCommWorld::Message{rank_, tag, std::move(data)});
}

std::vector<std::uint8_t> ThreadComm::recv(int src, int tag) {
    try {
        return world_->receive(rank_, src, tag, recvDeadline());
    } catch (const CommError& e) {
        reportError(e);
        throw;
    }
}

bool ThreadComm::tryRecv(int src, int tag, std::vector<std::uint8_t>& out) {
    return world_->tryReceive(rank_, src, tag, out);
}

void ThreadComm::barrier() { world_->barrier_.arrive_and_wait(); }

void ThreadComm::broadcast(std::vector<std::uint8_t>& data, int root) {
    // Non-roots copy straight out of the root's buffer: one copy per
    // receiving rank, none staged through a slot.
    if (rank_ == root) world_->bcastSource_ = &data;
    barrier(); // walb-lint: allow(blocking): base-transport rendezvous; deadlines live in the decorators above
    if (rank_ != root) data = *world_->bcastSource_;
    barrier(); // root's buffer must outlive every copy — walb-lint: allow(blocking): base-transport rendezvous
}

namespace {
template <typename T>
void reduceInto(std::span<T> inout, const std::vector<std::vector<T>>& slots, ReduceOp op) {
    for (std::size_t r = 0; r < slots.size(); ++r) {
        const auto& contrib = slots[r];
        WALB_ASSERT(contrib.size() == inout.size(), "allreduce length mismatch across ranks");
        for (std::size_t i = 0; i < inout.size(); ++i) {
            switch (op) {
                case ReduceOp::Sum:
                    if (r == 0) inout[i] = contrib[i];
                    else inout[i] += contrib[i];
                    break;
                case ReduceOp::Min:
                    if (r == 0 || contrib[i] < inout[i]) inout[i] = contrib[i];
                    break;
                case ReduceOp::Max:
                    if (r == 0 || contrib[i] > inout[i]) inout[i] = contrib[i];
                    break;
            }
        }
    }
}
} // namespace

void ThreadComm::allreduce(std::span<double> inout, ReduceOp op) {
    world_->doubleSlots_[uint_c(rank_)].assign(inout.begin(), inout.end());
    barrier(); // walb-lint: allow(blocking): base-transport rendezvous; deadlines live in the decorators above
    reduceInto(inout, world_->doubleSlots_, op);
    barrier(); // walb-lint: allow(blocking): base-transport rendezvous; deadlines live in the decorators above
}

void ThreadComm::allreduce(std::span<std::uint64_t> inout, ReduceOp op) {
    world_->u64Slots_[uint_c(rank_)].assign(inout.begin(), inout.end());
    barrier(); // walb-lint: allow(blocking): base-transport rendezvous; deadlines live in the decorators above
    reduceInto(inout, world_->u64Slots_, op);
    barrier(); // walb-lint: allow(blocking): base-transport rendezvous; deadlines live in the decorators above
}

std::vector<std::vector<std::uint8_t>> ThreadComm::allgatherv(
    std::span<const std::uint8_t> mine) {
    world_->byteSlots_[uint_c(rank_)].assign(mine.begin(), mine.end());
    barrier(); // walb-lint: allow(blocking): base-transport rendezvous; deadlines live in the decorators above
    std::vector<std::vector<std::uint8_t>> result = world_->byteSlots_;
    barrier(); // walb-lint: allow(blocking): base-transport rendezvous; deadlines live in the decorators above
    return result;
}

std::vector<std::vector<std::uint8_t>> ThreadComm::gatherv(std::span<const std::uint8_t> mine,
                                                           int root) {
    world_->byteSlots_[uint_c(rank_)].assign(mine.begin(), mine.end());
    barrier(); // walb-lint: allow(blocking): base-transport rendezvous; deadlines live in the decorators above
    // The root moves the slots out instead of copying them: each
    // contribution is copied once, by its own rank, in parallel. Only the
    // root touches the slots between the two barriers.
    std::vector<std::vector<std::uint8_t>> result;
    if (rank_ == root)
        result = std::exchange(world_->byteSlots_,
                               std::vector<std::vector<std::uint8_t>>(uint_c(world_->numRanks_)));
    barrier(); // walb-lint: allow(blocking): base-transport rendezvous; deadlines live in the decorators above
    return result;
}

} // namespace walb::vmpi
