/// Tests for the virtual message-passing layer: point-to-point semantics,
/// collectives, the BufferSystem neighbor exchange, and typed wrappers.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>

#include "vmpi/BufferSystem.h"
#include "vmpi/SerialComm.h"
#include "vmpi/ThreadComm.h"

namespace walb::vmpi {
namespace {

TEST(SerialComm, SelfSendRecv) {
    SerialComm comm;
    EXPECT_EQ(comm.rank(), 0);
    EXPECT_EQ(comm.size(), 1);
    sendObject(comm, 0, 5, std::uint64_t(42));
    EXPECT_EQ(recvObject<std::uint64_t>(comm, 0, 5), 42u);
}

TEST(SerialComm, TryRecvReturnsFalseWhenEmpty) {
    SerialComm comm;
    std::vector<std::uint8_t> out;
    EXPECT_FALSE(comm.tryRecv(0, 1, out));
    comm.send(0, 1, {1, 2, 3});
    EXPECT_TRUE(comm.tryRecv(0, 1, out));
    EXPECT_EQ(out, (std::vector<std::uint8_t>{1, 2, 3}));
}

TEST(SerialComm, CollectivesAreIdentity) {
    SerialComm comm;
    EXPECT_DOUBLE_EQ(allreduceSum(comm, 3.5), 3.5);
    const std::vector<std::uint8_t> mine{9, 8};
    const auto gathered = comm.allgatherv(mine);
    ASSERT_EQ(gathered.size(), 1u);
    EXPECT_EQ(gathered[0], mine);
}

class ThreadCommTest : public ::testing::TestWithParam<int> {};

TEST_P(ThreadCommTest, RanksAndSize) {
    const int n = GetParam();
    std::atomic<int> sum{0};
    ThreadCommWorld::launch(n, [&](Comm& comm) {
        EXPECT_EQ(comm.size(), n);
        sum += comm.rank();
    });
    EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

TEST_P(ThreadCommTest, RingSendRecv) {
    const int n = GetParam();
    ThreadCommWorld::launch(n, [&](Comm& comm) {
        const int next = (comm.rank() + 1) % n;
        const int prev = (comm.rank() + n - 1) % n;
        sendObject(comm, next, 1, std::uint64_t(comm.rank()));
        EXPECT_EQ(recvObject<std::uint64_t>(comm, prev, 1), std::uint64_t(prev));
    });
}

TEST_P(ThreadCommTest, TagsKeepMessagesApart) {
    const int n = GetParam();
    if (n < 2) GTEST_SKIP();
    ThreadCommWorld::launch(n, [&](Comm& comm) {
        if (comm.rank() == 0) {
            // Send two messages with different tags in "wrong" order.
            sendObject(comm, 1, 20, std::uint64_t(222));
            sendObject(comm, 1, 10, std::uint64_t(111));
        } else if (comm.rank() == 1) {
            // Receive by tag, not arrival order.
            EXPECT_EQ(recvObject<std::uint64_t>(comm, 0, 10), 111u);
            EXPECT_EQ(recvObject<std::uint64_t>(comm, 0, 20), 222u);
        }
    });
}

TEST_P(ThreadCommTest, MessagesWithSameTagArriveFifo) {
    const int n = GetParam();
    if (n < 2) GTEST_SKIP();
    ThreadCommWorld::launch(n, [&](Comm& comm) {
        if (comm.rank() == 0) {
            for (std::uint64_t i = 0; i < 50; ++i) sendObject(comm, 1, 7, i);
        } else if (comm.rank() == 1) {
            for (std::uint64_t i = 0; i < 50; ++i)
                EXPECT_EQ(recvObject<std::uint64_t>(comm, 0, 7), i);
        }
    });
}

TEST_P(ThreadCommTest, TryRecvIsNonBlocking) {
    // Documented contract: tryRecv returns immediately in all cases — false
    // on an empty mailbox (no wait, no throw, regardless of any configured
    // recvDeadline), true with the payload once the message is queued.
    const int n = GetParam();
    if (n < 2) GTEST_SKIP();
    ThreadCommWorld::launch(n, [&](Comm& comm) {
        if (comm.rank() == 1) {
            comm.setRecvDeadline(std::chrono::milliseconds(1));
            std::vector<std::uint8_t> out;
            const auto t0 = std::chrono::steady_clock::now();
            EXPECT_FALSE(comm.tryRecv(0, 42, out)); // nothing sent yet: instant
            const double waited =
                std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                    .count();
            EXPECT_LT(waited, 0.5); // returned immediately, did not block
            comm.barrier();         // release rank 0's send
            // The message may still be in flight; poll (each call non-blocking).
            while (!comm.tryRecv(0, 42, out)) std::this_thread::yield();
            RecvBuffer rb(std::move(out));
            std::uint64_t v = 0;
            rb >> v;
            EXPECT_EQ(v, 99u);
        } else {
            // The barrier comes FIRST: rank 1's empty-mailbox probe above must
            // run before any message exists, so the send happens only after
            // every rank (including rank 1, post-probe) reached the barrier.
            comm.barrier();
            if (comm.rank() == 0) sendObject(comm, 1, 42, std::uint64_t(99));
        }
    });
}

TEST_P(ThreadCommTest, Broadcast) {
    const int n = GetParam();
    ThreadCommWorld::launch(n, [&](Comm& comm) {
        std::vector<double> data;
        if (comm.rank() == n - 1) data = {1.5, 2.5, 3.5};
        broadcastObject(comm, data, n - 1);
        EXPECT_EQ(data, (std::vector<double>{1.5, 2.5, 3.5}));
    });
}

TEST_P(ThreadCommTest, AllreduceSumMinMax) {
    const int n = GetParam();
    ThreadCommWorld::launch(n, [&](Comm& comm) {
        const double r = double(comm.rank());
        EXPECT_DOUBLE_EQ(allreduceSum(comm, r), double(n * (n - 1)) / 2.0);
        EXPECT_DOUBLE_EQ(allreduceMin(comm, r), 0.0);
        EXPECT_DOUBLE_EQ(allreduceMax(comm, r), double(n - 1));
        std::uint64_t u = uint_c(comm.rank()) + 1;
        EXPECT_EQ(allreduceSum(comm, u), uint_c(n) * uint_c(n + 1) / 2);
    });
}

TEST_P(ThreadCommTest, AllreduceVectorElementwise) {
    const int n = GetParam();
    ThreadCommWorld::launch(n, [&](Comm& comm) {
        std::vector<double> v{double(comm.rank()), -double(comm.rank()), 1.0};
        comm.allreduce(std::span<double>(v), ReduceOp::Sum);
        EXPECT_DOUBLE_EQ(v[0], double(n * (n - 1)) / 2.0);
        EXPECT_DOUBLE_EQ(v[1], -double(n * (n - 1)) / 2.0);
        EXPECT_DOUBLE_EQ(v[2], double(n));
    });
}

TEST_P(ThreadCommTest, Allgatherv) {
    const int n = GetParam();
    ThreadCommWorld::launch(n, [&](Comm& comm) {
        // Each rank contributes rank+1 bytes of value rank.
        std::vector<std::uint8_t> mine(std::size_t(comm.rank()) + 1,
                                       std::uint8_t(comm.rank()));
        const auto all = comm.allgatherv(mine);
        ASSERT_EQ(all.size(), std::size_t(n));
        for (int r = 0; r < n; ++r) {
            ASSERT_EQ(all[std::size_t(r)].size(), std::size_t(r) + 1);
            for (auto b : all[std::size_t(r)]) EXPECT_EQ(b, std::uint8_t(r));
        }
    });
}

TEST_P(ThreadCommTest, GathervOnlyRootReceives) {
    const int n = GetParam();
    ThreadCommWorld::launch(n, [&](Comm& comm) {
        std::vector<std::uint8_t> mine{std::uint8_t(comm.rank())};
        const auto all = comm.gatherv(mine, 0);
        if (comm.rank() == 0) {
            ASSERT_EQ(all.size(), std::size_t(n));
            for (int r = 0; r < n; ++r) EXPECT_EQ(all[std::size_t(r)][0], std::uint8_t(r));
        } else {
            EXPECT_TRUE(all.empty());
        }
    });
}

TEST_P(ThreadCommTest, BackToBackGathervAndBroadcastWithChangingSizes) {
    // gatherv's root moves the collective slots out and broadcast reads the
    // root's own buffer: later collectives with other sizes, roots and
    // kinds must still see fresh, correctly sized slots.
    const int n = GetParam();
    ThreadCommWorld::launch(n, [&](Comm& comm) {
        const auto bytesOf = [](int round, int rank) {
            return std::size_t((round * 7 + rank * 3) % 11);
        };
        for (int round = 0; round < 8; ++round) {
            const int root = round % n;
            const std::vector<std::uint8_t> mine(bytesOf(round, comm.rank()),
                                                 std::uint8_t(comm.rank() + round));
            const auto gathered = comm.gatherv(mine, root);
            if (comm.rank() == root) {
                ASSERT_EQ(gathered.size(), std::size_t(n));
                for (int r = 0; r < n; ++r)
                    EXPECT_EQ(gathered[std::size_t(r)],
                              std::vector<std::uint8_t>(bytesOf(round, r),
                                                        std::uint8_t(r + round)))
                        << "round " << round << " rank " << r;
            } else {
                EXPECT_TRUE(gathered.empty());
            }

            // Non-roots start from a stale buffer of another size.
            const std::vector<std::uint8_t> want(std::size_t(round * 5 + 1),
                                                 std::uint8_t(round));
            std::vector<std::uint8_t> data{0xFF, 0xFF, 0xFF};
            if (comm.rank() == root) data = want;
            comm.broadcast(data, root);
            EXPECT_EQ(data, want) << "round " << round;

            const auto everyone = comm.allgatherv(mine);
            ASSERT_EQ(everyone.size(), std::size_t(n));
            for (int r = 0; r < n; ++r)
                EXPECT_EQ(everyone[std::size_t(r)].size(), bytesOf(round, r));
        }
    });
}

TEST_P(ThreadCommTest, BarrierSeparatesPhases) {
    const int n = GetParam();
    std::atomic<int> phase1{0};
    std::atomic<bool> violated{false};
    ThreadCommWorld::launch(n, [&](Comm& comm) {
        ++phase1;
        comm.barrier();
        if (phase1.load() != n) violated = true;
    });
    EXPECT_FALSE(violated.load());
}

TEST_P(ThreadCommTest, ExceptionInRankPropagates) {
    const int n = GetParam();
    if (n < 2) GTEST_SKIP();
    // Only rank 0 throws and no rank waits on collectives, so the world
    // still joins; the exception must surface on the launching thread.
    EXPECT_THROW(ThreadCommWorld::launch(n,
                                         [&](Comm& comm) {
                                             if (comm.rank() == 0)
                                                 throw std::runtime_error("rank failure");
                                         }),
                 std::runtime_error);
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, ThreadCommTest, ::testing::Values(1, 2, 3, 8, 16));

TEST(BufferSystem, NeighborExchangeRoundTrip) {
    ThreadCommWorld::launch(4, [&](Comm& comm) {
        BufferSystem bs(comm, 3);
        const int n = comm.size();
        const int left = (comm.rank() + n - 1) % n;
        const int right = (comm.rank() + 1) % n;
        bs.setReceiverInfo({left, right});
        for (int round = 0; round < 3; ++round) {
            bs.sendBuffer(left) << std::uint64_t(100 * comm.rank() + 1);
            bs.sendBuffer(right) << std::uint64_t(100 * comm.rank() + 2);
            bs.exchange();
            auto& recv = bs.recvBuffers();
            ASSERT_EQ(recv.size(), 2u);
            std::uint64_t fromLeft = 0, fromRight = 0;
            recv.at(left) >> fromLeft;
            recv.at(right) >> fromRight;
            EXPECT_EQ(fromLeft, uint_c(100 * left + 2));
            EXPECT_EQ(fromRight, uint_c(100 * right + 1));
        }
    });
}

TEST(BufferSystem, EmptyBuffersAreDelivered) {
    ThreadCommWorld::launch(2, [&](Comm& comm) {
        BufferSystem bs(comm);
        bs.setReceiverInfo({1 - comm.rank()});
        if (comm.rank() == 0) bs.sendBuffer(1) << 7.0;
        else bs.sendBuffer(0); // empty
        bs.exchange();
        if (comm.rank() == 1) {
            double v = 0;
            bs.recvBuffers().at(0) >> v;
            EXPECT_DOUBLE_EQ(v, 7.0);
        } else {
            EXPECT_EQ(bs.recvBuffers().at(1).size(), 0u);
        }
    });
}

TEST(BufferSystem, TrafficCountersUnderSerialComm) {
    // Under SerialComm the only neighbor is the rank itself, so send- and
    // receive-side accounting must agree exactly.
    SerialComm comm;
    BufferSystem bs(comm);
    bs.setReceiverInfo({0});

    bs.sendBuffer(0) << std::uint64_t(7) << 2.5; // 8 + 8 bytes
    EXPECT_EQ(bs.totalSendBytes(), 16u);

    bs.exchange();
    EXPECT_EQ(bs.totalSendBytes(), 0u); // staged buffers were cleared
    EXPECT_EQ(bs.lastSendBytes(), 16u);
    EXPECT_EQ(bs.totalRecvBytes(), 16u);
    EXPECT_EQ(bs.lastRecvBytes(), bs.lastSendBytes());
    EXPECT_EQ(bs.lastSendMessages(), 1u);
    EXPECT_EQ(bs.lastRecvMessages(), 1u);

    // Second, smaller exchange: last* reflect only the newest exchange,
    // cumulative* accumulate across both.
    bs.sendBuffer(0) << std::uint8_t(1);
    bs.exchange();
    EXPECT_EQ(bs.lastSendBytes(), 1u);
    EXPECT_EQ(bs.totalRecvBytes(), 1u);
    EXPECT_EQ(bs.cumulativeSendBytes(), 17u);
    EXPECT_EQ(bs.cumulativeRecvBytes(), 17u);
    EXPECT_EQ(bs.cumulativeSendMessages(), 2u);
    EXPECT_EQ(bs.cumulativeRecvMessages(), 2u);

    bs.resetTrafficCounters();
    EXPECT_EQ(bs.lastSendBytes(), 0u);
    EXPECT_EQ(bs.totalRecvBytes(), 0u);
    EXPECT_EQ(bs.cumulativeSendBytes(), 0u);
    EXPECT_EQ(bs.cumulativeRecvMessages(), 0u);
}

TEST(BufferSystem, TrafficCountersUnderThreadComm) {
    // Ring of 4: every rank sends rank+1 doubles left and one u64 right, so
    // per-rank byte counts differ but the world-wide send and receive sums
    // must balance — globally no byte is lost or double-counted.
    const int n = 4;
    std::atomic<std::uint64_t> sentSum{0}, recvSum{0};
    std::atomic<std::uint64_t> sentMsgs{0}, recvMsgs{0};
    ThreadCommWorld::launch(n, [&](Comm& comm) {
        BufferSystem bs(comm, 9);
        const int left = (comm.rank() + n - 1) % n;
        const int right = (comm.rank() + 1) % n;
        bs.setReceiverInfo({left, right});
        for (int round = 0; round < 2; ++round) {
            for (int i = 0; i <= comm.rank(); ++i) bs.sendBuffer(left) << 1.0;
            bs.sendBuffer(right) << std::uint64_t(comm.rank());
            const std::size_t staged = bs.totalSendBytes();
            EXPECT_EQ(staged, 8u * uint_c(comm.rank() + 1) + 8u);
            bs.exchange();
            EXPECT_EQ(bs.lastSendBytes(), staged);
            // From the right neighbor we receive its left-bound doubles,
            // from the left neighbor its right-bound u64.
            EXPECT_EQ(bs.totalRecvBytes(), 8u * uint_c(right + 1) + 8u);
            EXPECT_EQ(bs.lastSendMessages(), 2u);
            EXPECT_EQ(bs.lastRecvMessages(), 2u);
        }
        sentSum += bs.cumulativeSendBytes();
        recvSum += bs.cumulativeRecvBytes();
        sentMsgs += bs.cumulativeSendMessages();
        recvMsgs += bs.cumulativeRecvMessages();
    });
    EXPECT_GT(sentSum.load(), 0u);
    EXPECT_EQ(sentSum.load(), recvSum.load());
    EXPECT_EQ(sentMsgs.load(), recvMsgs.load());
    EXPECT_EQ(sentMsgs.load(), uint_c(2 * 2 * n)); // 2 msgs x 2 rounds x n ranks
}

TEST(ThreadCommWorld, ReusableAcrossRuns) {
    ThreadCommWorld world(3);
    for (int i = 0; i < 3; ++i) {
        world.run([&](Comm& comm) {
            EXPECT_DOUBLE_EQ(allreduceSum(comm, 1.0), 3.0);
        });
    }
}

} // namespace
} // namespace walb::vmpi
