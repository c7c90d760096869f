#include "par/thread_pool.h"

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/logspace.h"

namespace mpcgs {
namespace {

TEST(ThreadPoolTest, SizeIncludesCaller) {
    ThreadPool serial(1);
    EXPECT_EQ(serial.size(), 1u);
    ThreadPool four(4);
    EXPECT_EQ(four.size(), 4u);
}

TEST(ThreadPoolTest, ParallelForVisitsEveryIndexOnce) {
    ThreadPool pool(4);
    const std::size_t n = 10000;
    std::vector<std::atomic<int>> hits(n);
    pool.parallelFor(n, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, SerialPoolVisitsEveryIndex) {
    ThreadPool pool(1);
    std::vector<int> hits(257, 0);
    pool.parallelFor(hits.size(), [&](std::size_t i) { hits[i]++; });
    for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, EmptyRangeIsNoop) {
    ThreadPool pool(4);
    bool called = false;
    pool.parallelFor(0, [&](std::size_t) { called = true; });
    EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, ExceptionPropagates) {
    ThreadPool pool(4);
    EXPECT_THROW(pool.parallelFor(1000,
                                  [&](std::size_t i) {
                                      if (i == 567) throw std::runtime_error("boom");
                                  }),
                 std::runtime_error);
    // Pool remains usable afterwards.
    std::atomic<int> count{0};
    pool.parallelFor(100, [&](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, BackToBackBatches) {
    ThreadPool pool(4);
    for (int round = 0; round < 50; ++round) {
        std::atomic<int> count{0};
        pool.parallelFor(100, [&](std::size_t) { count.fetch_add(1); });
        ASSERT_EQ(count.load(), 100);
    }
}

TEST(ForEachIndexTest, NullPoolRunsSerially) {
    std::vector<int> hits(100, 0);
    forEachIndex(nullptr, hits.size(), [&](std::size_t i) { hits[i]++; });
    for (const int h : hits) EXPECT_EQ(h, 1);
}

// --- stress & safety ---------------------------------------------------------

TEST(ThreadPoolTest, NestedLaunchRunsSeriallyInline) {
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(64 * 32);
    std::atomic<int> nestedInside{0};
    pool.parallelFor(64, [&](std::size_t outer) {
        EXPECT_TRUE(pool.insideLaunch());
        // A launch from inside a launch must degrade to a serial inline
        // loop instead of corrupting the in-flight launch slot.
        pool.parallelFor(32, [&](std::size_t inner) {
            nestedInside.fetch_add(1);
            hits[outer * 32 + inner].fetch_add(1);
        });
    });
    EXPECT_FALSE(pool.insideLaunch());
    EXPECT_EQ(nestedInside.load(), 64 * 32);
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ConcurrentExternalLaunches) {
    // Launches submitted from distinct external threads serialize on the
    // launch mutex; neither may corrupt the other's in-flight launch.
    ThreadPool pool(4);
    std::atomic<bool> go{false};
    std::vector<std::uint64_t> results(4, 0);
    std::vector<std::thread> callers;
    for (std::size_t t = 0; t < results.size(); ++t) {
        callers.emplace_back([&, t] {
            while (!go.load()) std::this_thread::yield();
            for (int round = 0; round < 50; ++round) {
                std::atomic<std::uint64_t> sum{0};
                pool.parallelFor(1000, [&](std::size_t j) { sum.fetch_add(j); });
                results[t] = sum.load();
                EXPECT_EQ(results[t], 999u * 1000u / 2u);
            }
        });
    }
    go.store(true);
    for (auto& c : callers) c.join();
    for (const std::uint64_t v : results) EXPECT_EQ(v, 999u * 1000u / 2u);
}

TEST(ThreadPoolTest, ExceptionUnderContention) {
    // Every index throws: many workers race to record the error; exactly
    // one exception must propagate and the pool must stay healthy.
    ThreadPool pool(8);
    for (int round = 0; round < 20; ++round) {
        EXPECT_THROW(
            pool.parallelFor(512, [](std::size_t i) {
                throw std::runtime_error("boom " + std::to_string(i));
            }),
            std::runtime_error);
        std::atomic<int> count{0};
        pool.parallelFor(256, [&](std::size_t) { count.fetch_add(1); });
        ASSERT_EQ(count.load(), 256);
    }
}

TEST(ThreadPoolTest, RapidSmallLaunches) {
    // Launch overhead path: thousands of tiny back-to-back grids, the shape
    // of per-proposal and per-coalescence launches during sampling.
    ThreadPool pool(4);
    std::uint64_t checksum = 0;
    for (int round = 0; round < 20000; ++round) {
        const std::size_t n = 2 + static_cast<std::size_t>(round % 7);
        std::atomic<std::uint64_t> sum{0};
        pool.parallelFor(n, [&](std::size_t i) { sum.fetch_add(i + 1); }, 1);
        checksum += sum.load();
        ASSERT_EQ(sum.load(), n * (n + 1) / 2);
    }
    EXPECT_GT(checksum, 0u);
}

TEST(ThreadPoolTest, OversubscribedPoolIsCorrect) {
    // Pool much wider than the hardware: surplus workers park; correctness
    // and exception handling must be unaffected.
    ThreadPool pool(4 * hardwareThreads());
    std::vector<std::atomic<int>> hits(20000);
    pool.parallelFor(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
    std::atomic<std::uint64_t> sum{0};
    launchBlocked(&pool, 1000, 7, [&](std::size_t, std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) sum.fetch_add(i);
    });
    EXPECT_EQ(sum.load(), 999u * 1000u / 2u);
    EXPECT_THROW(pool.parallelFor(100,
                                  [](std::size_t i) {
                                      if (i == 50) throw std::runtime_error("x");
                                  }),
                 std::runtime_error);
}

// Bitwise thread-count invariance across launch shapes: chunk-indexed
// outputs must be identical for any pool width, for every launch entry
// point the stack uses.
TEST(ThreadPoolTest, BitwiseInvarianceAcrossWidths) {
    const std::size_t n = 4097;
    const auto runAll = [n](unsigned width) {
        ThreadPool pool(width);
        std::vector<double> viaFor(n), viaBlocked(n), viaChains(8);
        pool.parallelFor(n, [&](std::size_t i) {
            viaFor[i] = std::sin(static_cast<double>(i) * 0.7) * 3.0;
        });
        launchBlocked(&pool, n, 64, [&](std::size_t, std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i)
                viaBlocked[i] = std::sin(static_cast<double>(i)) * 0.5 + 1.0;
        });
        forEachIndex(
            &pool, viaChains.size(),
            [&](std::size_t c) {
                double acc = static_cast<double>(c) + 0.5;
                for (int k = 0; k < 100; ++k) acc = acc * 0.99 + std::cos(acc);
                viaChains[c] = acc;
            },
            /*grain=*/1);
        std::vector<double> blockRed;
        for (const std::size_t bd : {1u, 3u, 64u, 1024u})
            blockRed.push_back(blockReduceLogSumExp(&pool, viaBlocked, bd));
        std::vector<double> all;
        for (const auto* v : {&viaFor, &viaBlocked, &viaChains, &blockRed})
            all.insert(all.end(), v->begin(), v->end());
        return all;
    };
    const auto ref = runAll(1);
    for (const unsigned width : {2u, 4u, 8u}) {
        const auto got = runAll(width);
        ASSERT_EQ(got.size(), ref.size());
        for (std::size_t i = 0; i < ref.size(); ++i)
            ASSERT_EQ(got[i], ref[i]) << "width " << width << " index " << i;
    }
}

// --- kernel facade -----------------------------------------------------------

TEST(KernelTest, BlockReduceLogSumExpMatchesDirect) {
    ThreadPool pool(4);
    std::vector<double> v(513);
    for (std::size_t i = 0; i < v.size(); ++i)
        v[i] = -1000.0 + 0.5 * static_cast<double>(i % 97);
    EXPECT_NEAR(blockReduceLogSumExp(&pool, v, 32), logSumExp(v), 1e-10);
}

// Parameterized sweep: the block reduction agrees with the serial
// reference across block sizes.
class BlockSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BlockSizeSweep, ReductionsConsistent) {
    ThreadPool pool(4);
    const std::size_t blockDim = GetParam();
    std::vector<double> v(301);
    for (std::size_t i = 0; i < v.size(); ++i)
        v[i] = std::cos(static_cast<double>(i) * 0.37) * 3.0 - 1.0;
    EXPECT_NEAR(blockReduceLogSumExp(&pool, v, blockDim), logSumExp(v), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(BlockSizes, BlockSizeSweep,
                         ::testing::Values(1u, 2u, 3u, 32u, 256u, 1024u));

}  // namespace
}  // namespace mpcgs
