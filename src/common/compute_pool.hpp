// ComputePool: the process-wide thread pool behind every parallel region.
//
// PiPAD's numeric hot path (aggregation, GEMM, elementwise maps) and the
// host-side preparation (HostLane) share one pool instead of each subsystem
// owning threads. `--threads N` configures it once and scales everything.
//
// Parallel regions are *deterministic by construction*: the block
// partitioning of a region depends only on the problem size and a
// per-process calibration constant — never on the pool width — and every
// block writes disjoint output rows/elements, so results are bit-identical
// for any thread count (including the inline serial fallback). Which thread
// *executes* a block is dynamic: regions run through per-slot Chase-Lev
// deques with randomized-victim work stealing (ThreadPool::run_blocks; the
// launching thread runs slot 0, the workers the rest), so a skewed block
// distribution no longer idles the other workers.
// Reductions whose rounding depends on combine order (losses) stay serial
// in their callers.
//
// Regions are not timed: the simulated device prices every numeric kernel
// through KernelStats, so the pool's job is wall-clock speed only. What the
// stealing executor did is counted per launching thread (take_steal_stats)
// as a load-balance observability counter.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"

namespace pipad {

/// Library default pool width: min(hardware_concurrency, 8). Both prep and
/// compute saturate well below the core count of a training node.
std::size_t default_compute_threads();

class ComputePool {
 public:
  /// The process-wide instance. Subsystems hold references to this, never
  /// to the underlying ThreadPool (configure() may replace it).
  static ComputePool& instance();

  /// Resize the pool (0 = default_compute_threads()). No-op when the width
  /// is unchanged. Must not be called while parallel regions are in flight;
  /// trainers call it once at construction.
  void configure(std::size_t threads);

  std::size_t threads();

  /// The underlying pool, for callers that schedule whole jobs on it
  /// (HostLane batches, dataset generation). The reference is valid until
  /// the next configure() with a different width.
  ThreadPool& pool();

  using BlockFn = std::function<void(std::size_t, std::size_t)>;
  using Ranges = std::vector<std::pair<std::size_t, std::size_t>>;

  /// Run fn(lo, hi) over contiguous blocks covering [0, n). The block
  /// layout derives from n, total_work and the per-process calibration
  /// only (never the pool width), so any order-sensitive per-block math is
  /// reproducible across thread counts. Small regions (total_work <
  /// min_block_work()) run inline as one block — on that path fn is
  /// called directly, without type erasure, so tiny ops stay cheap. fn
  /// must write only block-disjoint state. The first block exception is
  /// rethrown after the region drains.
  template <typename F>
  void for_blocks(std::size_t n, std::size_t total_work, F&& fn) {
    if (n == 0) return;
    if (total_work < min_block_work()) {
      fn(std::size_t{0}, n);
      return;
    }
    for_blocks_erased(n, total_work, BlockFn(std::forward<F>(fn)));
  }

  /// Run caller-computed contiguous ranges (e.g. blocks aligned to
  /// destination-row boundaries) as one region. Ranges must be disjoint;
  /// determinism requires that they not depend on the pool width.
  void run_ranges(const Ranges& ranges, const BlockFn& fn);

  /// Number of blocks for_blocks() would use — exposed for tests.
  static std::size_t block_count(std::size_t n, std::size_t total_work);

  /// Exact even split of [0, n) into `blocks` contiguous ranges (the first
  /// n % blocks ranges take one extra element). The one chunking formula
  /// shared by for_blocks() and callers that post-process boundaries
  /// before run_ranges() (e.g. agg_sliced's destination-row alignment).
  static Ranges even_ranges(std::size_t n, std::size_t blocks);

  /// Blocks the work-stealing executor ran (`executed`) and ran off their
  /// home slot (`stolen`) in regions launched from the calling thread
  /// since its last call; resets the tally. Per thread: a region counts on
  /// the thread that launched it (nested regions run inline and count
  /// nothing), so concurrent jobs sharing the pool each read their own
  /// (the isolation `pipad serve` relies on). Regions that run inline
  /// (one block, one worker, nested) do not reach the executor and add
  /// nothing.
  static ThreadPool::StealStats take_steal_stats();

  /// The work-unit floor: below this many scalar operations a region runs
  /// inline as one block, and block_count() targets at least this much
  /// work per block. Calibrated once per process by measuring the
  /// per-block dispatch overhead (clock reads + type-erased call) against
  /// the throughput of a canonical work unit, then clamped to
  /// [kMinBlockWorkFloor, kMinBlockWorkCeil] — a block must cost well over
  /// its own bookkeeping, or splitting is pure loss. Thread-count
  /// independent, so the block layout never varies with `--threads`.
  static std::size_t min_block_work();
  /// Pin the floor (tests, benches that assert exact block counts);
  /// 0 restores the measured calibration.
  static void set_min_block_work(std::size_t work);

  /// Enable/disable work stealing in the region executor (default on).
  /// Affects only which worker runs a block — never the block layout or
  /// the numeric outputs — so the
  /// contention_pool bench can compare steal vs. static end to end.
  void set_stealing(bool on);
  bool stealing() const;

  /// Calibration clamp bounds; a measured floor is kept inside them.
  static constexpr std::size_t kMinBlockWorkFloor = 4096;
  static constexpr std::size_t kMinBlockWorkCeil = 1u << 20;
  /// Target ratio of block work to per-block dispatch overhead.
  static constexpr std::size_t kBlockOverheadBudget = 64;
  /// Upper bound on blocks per region — more blocks than the widest
  /// default pool (8), so the stealing executor has slack to rebalance,
  /// and fixed so the layout is independent of the pool width.
  static constexpr std::size_t kMaxBlocks = 32;

 private:
  ComputePool() = default;
  ThreadPool& pool_locked();
  void for_blocks_erased(std::size_t n, std::size_t total_work,
                         const BlockFn& fn);

  std::mutex pool_mutex_;  ///< Guards pool_ creation/replacement.
  std::unique_ptr<ThreadPool> pool_;
  std::atomic<bool> steal_{true};
};

}  // namespace pipad
