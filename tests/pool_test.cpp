// Work-stealing executor tests: WorkDeque (Chase-Lev) semantics and
// concurrent exactly-once claiming, and ThreadPool::run_blocks steal
// behavior. These suites are the ones CI runs under TSan/ASan to race- and
// leak-check the pool internals; higher-level ComputePool region semantics
// live in common_test.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/compute_pool.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "common/work_deque.hpp"

namespace pipad {
namespace {

// ------------------------------------------------------------------ WorkDeque

TEST(WorkDeque, OwnerPopIsLifo) {
  WorkDeque d(8);
  d.prefill(10);
  d.prefill(20);
  d.prefill(30);
  std::size_t v = 0;
  ASSERT_TRUE(d.pop(v));
  EXPECT_EQ(v, 30u);
  ASSERT_TRUE(d.pop(v));
  EXPECT_EQ(v, 20u);
  ASSERT_TRUE(d.pop(v));
  EXPECT_EQ(v, 10u);
  EXPECT_FALSE(d.pop(v));
  EXPECT_TRUE(d.empty());
}

TEST(WorkDeque, ThiefStealIsFifo) {
  WorkDeque d(8);
  d.prefill(1);
  d.prefill(2);
  d.prefill(3);
  std::size_t v = 0;
  ASSERT_TRUE(d.steal(v));
  EXPECT_EQ(v, 1u);
  ASSERT_TRUE(d.steal(v));
  EXPECT_EQ(v, 2u);
  ASSERT_TRUE(d.steal(v));
  EXPECT_EQ(v, 3u);
  EXPECT_FALSE(d.steal(v));
  EXPECT_TRUE(d.empty());
}

TEST(WorkDeque, PopAndStealMeetInTheMiddleWithoutOverlap) {
  WorkDeque d(8);
  for (std::size_t i = 1; i <= 4; ++i) d.prefill(i);
  std::size_t v = 0;
  ASSERT_TRUE(d.steal(v));
  EXPECT_EQ(v, 1u);  // Oldest.
  ASSERT_TRUE(d.pop(v));
  EXPECT_EQ(v, 4u);  // Newest.
  ASSERT_TRUE(d.steal(v));
  EXPECT_EQ(v, 2u);
  ASSERT_TRUE(d.pop(v));
  EXPECT_EQ(v, 3u);
  EXPECT_FALSE(d.pop(v));
  EXPECT_FALSE(d.steal(v));
}

TEST(WorkDeque, CapacityRoundsUpToPowerOfTwo) {
  WorkDeque d(5);  // Rounds up to 8.
  for (std::size_t i = 0; i < 8; ++i) d.prefill(i);
  EXPECT_THROW(d.prefill(8), Error);  // 9th item exceeds the fixed buffer.
  std::size_t v = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(d.pop(v));
    EXPECT_EQ(v, 7 - i);
  }
}

// The exactly-once contract under contention: one owner popping LIFO races
// several thieves stealing FIFO over a fully preloaded deque; every item
// must be claimed by exactly one thread (no losses, no duplicates).
TEST(WorkDeque, ConcurrentPopAndStealClaimEveryItemExactlyOnce) {
  constexpr std::size_t kItems = 1 << 12;
  constexpr int kThieves = 3;
  WorkDeque d(kItems);
  for (std::size_t i = 0; i < kItems; ++i) d.prefill(i);

  std::vector<std::vector<std::size_t>> claimed(kThieves + 1);
  const auto thief = [&](int t) {
    std::size_t v = 0;
    for (;;) {
      if (d.steal(v)) {
        claimed[t].push_back(v);
      } else if (d.empty()) {
        return;  // steal() may fail spuriously under CAS contention;
                 // only an observed-empty deque ends the loop.
      }
    }
  };
  std::vector<std::thread> thieves;
  thieves.reserve(kThieves);
  for (int t = 0; t < kThieves; ++t) {
    thieves.emplace_back(thief, t);
  }
  // This thread plays the owner.
  std::size_t v = 0;
  for (;;) {
    if (d.pop(v)) {
      claimed[kThieves].push_back(v);
    } else if (d.empty()) {
      break;  // pop() only fails when empty or the last item was lost.
    }
  }
  for (auto& th : thieves) th.join();

  std::vector<int> count(kItems, 0);
  std::size_t total = 0;
  for (const auto& c : claimed) {
    total += c.size();
    for (std::size_t id : c) {
      ASSERT_LT(id, kItems);
      ++count[id];
    }
  }
  EXPECT_EQ(total, kItems);
  for (std::size_t i = 0; i < kItems; ++i) {
    EXPECT_EQ(count[i], 1) << "item " << i;
  }
}

// --------------------------------------------------------------- run_blocks

TEST(RunBlocks, ExecutesEveryBlockExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kBlocks = 257;  // Not a multiple of the pool width.
  std::vector<std::atomic<int>> hits(kBlocks);
  const auto stats = pool.run_blocks(kBlocks, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(stats.executed, kBlocks);
  for (std::size_t i = 0; i < kBlocks; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "block " << i;
  }
}

TEST(RunBlocks, StealDisabledRunsEveryBlockOnItsHomeSlotOnly) {
  ThreadPool pool(4);
  constexpr std::size_t kBlocks = 32;
  std::vector<std::atomic<int>> hits(kBlocks);
  const auto stats = pool.run_blocks(
      kBlocks,
      [&](std::size_t i) {
        if (i == 0) {  // Skew the first block; nobody may rebalance it.
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        hits[i].fetch_add(1, std::memory_order_relaxed);
      },
      /*steal=*/false);
  EXPECT_EQ(stats.executed, kBlocks);
  EXPECT_EQ(stats.stolen, 0u);
  for (std::size_t i = 0; i < kBlocks; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "block " << i;
  }
}

// Deterministic steal: with 2 workers and 4 blocks, slot 1 owns blocks
// {1, 3} and pops them in ascending order (the preload is descending so
// owners run cache-friendly ascending). Block 1 spins until block 3 has
// executed — the only way block 3 can run while slot 1's owner is pinned
// inside block 1 is for the other worker to steal it.
TEST(RunBlocks, IdleWorkerStealsFromABlockedSiblingsDeque) {
  ThreadPool pool(2);
  std::atomic<bool> block3_done{false};
  std::atomic<bool> timed_out{false};
  const auto stats = pool.run_blocks(4, [&](std::size_t i) {
    if (i == 3) {
      block3_done.store(true, std::memory_order_release);
    } else if (i == 1) {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(30);
      while (!block3_done.load(std::memory_order_acquire)) {
        if (std::chrono::steady_clock::now() > deadline) {
          timed_out.store(true, std::memory_order_relaxed);
          return;  // Fail via the flag below instead of hanging the suite.
        }
        std::this_thread::yield();
      }
    }
  });
  EXPECT_FALSE(timed_out.load()) << "block 3 was never stolen";
  EXPECT_EQ(stats.executed, 4u);
  EXPECT_GE(stats.stolen, 1u);
}

TEST(RunBlocks, SingleWorkerFallsBackToInlineWithoutSteals) {
  ThreadPool pool(1);
  std::vector<int> order;
  const auto stats = pool.run_blocks(
      5, [&](std::size_t i) { order.push_back(static_cast<int>(i)); });
  EXPECT_EQ(stats.executed, 5u);
  EXPECT_EQ(stats.stolen, 0u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(RunBlocks, RethrowsFirstBlockExceptionAfterDrainingRegion) {
  ThreadPool pool(4);
  constexpr std::size_t kBlocks = 64;
  std::vector<std::atomic<int>> hits(kBlocks);
  EXPECT_THROW(pool.run_blocks(kBlocks,
                               [&](std::size_t i) {
                                 hits[i].fetch_add(
                                     1, std::memory_order_relaxed);
                                 if (i == 7) throw Error("block 7 failed");
                               }),
               Error);
  // The throwing block must not abort the region: every block still ran.
  for (std::size_t i = 0; i < kBlocks; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "block " << i;
  }
}

TEST(RunBlocks, CalledFromOwnWorkerThrowsInsteadOfDeadlocking) {
  ThreadPool pool(2);
  auto fut = pool.submit([&pool] {
    pool.run_blocks(8, [](std::size_t) {});
  });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

// ------------------------------------------------------------ caller-run slot

/// Spins until `flag` is set or 30 s pass; false on timeout, so a broken
/// contract fails the test instead of hanging the suite.
bool wait_for(const std::atomic<bool>& flag) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!flag.load(std::memory_order_acquire)) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

// Every block that lands on a worker is pinned until the calling thread has
// executed one, so the region can only finish if the caller runs blocks
// itself rather than sleeping on the workers.
TEST(RunBlocks, CallerExecutesABlockWhileWorkersArePinned) {
  ThreadPool pool(4);
  const auto caller = std::this_thread::get_id();
  std::atomic<bool> caller_ran{false};
  std::atomic<bool> timed_out{false};
  std::atomic<int> caller_blocks{0};
  const auto stats = pool.run_blocks(16, [&](std::size_t) {
    if (std::this_thread::get_id() == caller) {
      EXPECT_EQ(ThreadPool::current_pool(), &pool);
      caller_blocks.fetch_add(1, std::memory_order_relaxed);
      caller_ran.store(true, std::memory_order_release);
    } else if (!wait_for(caller_ran)) {
      timed_out.store(true, std::memory_order_relaxed);
    }
  });
  EXPECT_FALSE(timed_out.load()) << "the caller never ran a block";
  EXPECT_GE(caller_blocks.load(), 1);
  EXPECT_EQ(stats.executed, 16u);
}

// A region launched from a caller-run block runs inline on the caller and
// is not counted by the executor, exactly as it would be from a worker.
TEST(ComputePoolCallerRun, NestedRegionInCallerBlockRunsInlineUnrecorded) {
  auto& cp = ComputePool::instance();
  cp.configure(4);
  ComputePool::set_min_block_work(1);  // Force the parallel path.
  ComputePool::take_steal_stats();
  const auto caller = std::this_thread::get_id();
  std::atomic<bool> caller_ran{false};
  std::atomic<bool> timed_out{false};
  std::atomic<int> inner_elems{0};
  std::atomic<int> inner_off_caller{0};
  cp.for_blocks(32, 1 << 20, [&](std::size_t, std::size_t) {
    if (std::this_thread::get_id() != caller) {
      if (!wait_for(caller_ran)) timed_out.store(true);
      return;
    }
    cp.for_blocks(100, 1 << 20, [&](std::size_t lo, std::size_t hi) {
      if (std::this_thread::get_id() != caller) inner_off_caller.fetch_add(1);
      inner_elems.fetch_add(static_cast<int>(hi - lo));
    });
    caller_ran.store(true, std::memory_order_release);
  });
  const auto st = ComputePool::take_steal_stats();
  ComputePool::set_min_block_work(0);  // Restore the calibrated floor.
  cp.configure(0);
  EXPECT_FALSE(timed_out.load()) << "the caller never ran a block";
  EXPECT_GE(inner_elems.load(), 100);
  EXPECT_EQ(inner_elems.load() % 100, 0);
  EXPECT_EQ(inner_off_caller.load(), 0);
  // Only the outer region's 32 blocks went through the executor; the
  // inner regions' blocks ran inline.
  EXPECT_EQ(st.executed, 32u);
}

TEST(RunBlocks, CurrentPoolIsRestoredAfterTheRegionAndOnThrow) {
  ThreadPool pool(4);
  ASSERT_EQ(ThreadPool::current_pool(), nullptr);
  // Runs a region whose worker-side blocks wait for the launching thread to
  // run body() in one of its own blocks; false if it never did.
  const auto caller_runs = [&pool](const std::function<void()>& body) {
    const auto launcher = std::this_thread::get_id();
    std::atomic<bool> ran{false};
    std::atomic<bool> timed_out{false};
    pool.run_blocks(8, [&](std::size_t) {
      if (std::this_thread::get_id() != launcher) {
        if (!wait_for(ran)) timed_out.store(true);
        return;
      }
      if (!ran.load(std::memory_order_acquire)) {
        body();
        ran.store(true, std::memory_order_release);
      }
    });
    return !timed_out.load();
  };

  EXPECT_TRUE(caller_runs(
      [&] { EXPECT_EQ(ThreadPool::current_pool(), &pool); }));
  EXPECT_EQ(ThreadPool::current_pool(), nullptr);

  // Every block throws, the caller's included.
  EXPECT_THROW(pool.run_blocks(8, [](std::size_t) { throw Error("boom"); }),
               Error);
  EXPECT_EQ(ThreadPool::current_pool(), nullptr);

  // Launched from another pool's worker, the region restores that pool;
  // a run_blocks from inside a caller-run block is rejected exactly like
  // one from a worker.
  ThreadPool outer(1);
  outer
      .submit([&] {
        bool rejected = false;
        EXPECT_TRUE(caller_runs([&] {
          try {
            pool.run_blocks(2, [](std::size_t) {});
          } catch (const std::runtime_error&) {
            rejected = true;
          }
        }));
        EXPECT_TRUE(rejected);
        EXPECT_EQ(ThreadPool::current_pool(), &outer);
      })
      .get();
  EXPECT_EQ(ThreadPool::current_pool(), nullptr);
}

// ---------------------------------------------------------- ComputePool knob

TEST(ComputePoolSteal, DisablingStealingZeroesTheRegionStealCounter) {
  auto& cp = ComputePool::instance();
  cp.configure(4);
  ComputePool::set_min_block_work(1);  // Force the parallel path.
  ComputePool::take_steal_stats();

  cp.set_stealing(false);
  EXPECT_FALSE(cp.stealing());
  std::vector<double> out(4096, 0.0);
  cp.for_blocks(out.size(), out.size() * 64,
                [&](std::size_t lo, std::size_t hi) {
                  for (std::size_t i = lo; i < hi; ++i) {
                    out[i] = static_cast<double>(i) * 0.5;
                  }
                });
  const auto st = ComputePool::take_steal_stats();
  EXPECT_GT(st.executed, 1u);
  EXPECT_EQ(st.stolen, 0u);

  cp.set_stealing(true);
  EXPECT_TRUE(cp.stealing());
  ComputePool::set_min_block_work(0);  // Restore the calibrated floor.
}

}  // namespace
}  // namespace pipad
