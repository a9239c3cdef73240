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
// Each region's blocks are measured individually (thread-CPU time) and
// placed onto per-lane cost bins (aggregated per kernel name) so trainers
// can charge them to the simulated Timeline worker lanes the same way
// host::HostLane charges prep jobs — `pipad bench` epoch times reflect
// measured compute decomposed across `--threads N` lanes, not an assumed
// speedup factor. Placement stays least-loaded-in-block-order (not "which
// worker grabbed it"), which is what keeps the simulated timelines
// deterministic while stealing reshuffles real execution; the stealing
// outcome is surfaced separately as RegionStats::steals.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
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

  /// A measured region, aggregated per kernel name between drains. Each
  /// block's execution cost is measured (thread-CPU time, so a machine with
  /// fewer cores than pool workers does not inflate it) and placed on the
  /// least-loaded simulated lane in block order — the same per-lane
  /// accounting HostLane applies to prep jobs, kept deterministic by
  /// placing blocks instead of recording which worker happened to execute
  /// them. `blocks`/`steals` report what the work-stealing executor
  /// actually did, for the trace records and the imbalance analyzer.
  struct RegionStats {
    std::vector<double> lane_us;  ///< Summed measured cost per lane.
    std::size_t count = 0;        ///< Number of regions aggregated.
    std::size_t blocks = 0;       ///< Blocks executed across those regions.
    std::size_t steals = 0;       ///< Blocks executed off their home slot.

    double total_us() const {
      double s = 0.0;
      for (double v : lane_us) s += v;
      return s;
    }
    std::size_t lanes() const { return lane_us.size(); }
  };
  using Region = RegionStats;

  using BlockFn = std::function<void(std::size_t, std::size_t)>;
  using Ranges = std::vector<std::pair<std::size_t, std::size_t>>;

  /// Run fn(lo, hi) over contiguous blocks covering [0, n). The block
  /// layout derives from n, total_work and the per-process calibration
  /// only (never the pool width), so any order-sensitive per-block math is
  /// reproducible across thread counts. Small regions (total_work <
  /// min_block_work()) run inline and are not logged — on that path fn is
  /// called directly, without type erasure, so tiny ops stay cheap. fn
  /// must write only block-disjoint state. The first block exception is
  /// rethrown after the region drains.
  template <typename F>
  void for_blocks(const char* name, std::size_t n, std::size_t total_work,
                  F&& fn) {
    if (n == 0) return;
    if (total_work < min_block_work()) {
      fn(std::size_t{0}, n);
      return;
    }
    for_blocks_erased(name, n, total_work, BlockFn(std::forward<F>(fn)));
  }

  /// Run caller-computed contiguous ranges (e.g. blocks aligned to
  /// destination-row boundaries) as one region. Ranges must be disjoint;
  /// determinism requires that they not depend on the pool width.
  void run_ranges(const char* name, const Ranges& ranges,
                  std::size_t total_work, const BlockFn& fn);

  /// Run fn() serially but measure and log it like a parallel region with
  /// lanes = 1 (kernels whose access pattern does not decompose into
  /// disjoint blocks, e.g. COO scatter-add).
  void run_serial(const char* name, std::size_t total_work,
                  const std::function<void()>& fn);

  /// Number of blocks for_blocks() would use — exposed for tests.
  static std::size_t block_count(std::size_t n, std::size_t total_work);

  /// Exact even split of [0, n) into `blocks` contiguous ranges (the first
  /// n % blocks ranges take one extra element). The one chunking formula
  /// shared by for_blocks() and callers that post-process boundaries
  /// before run_ranges() (e.g. agg_sliced's destination-row alignment).
  static Ranges even_ranges(std::size_t n, std::size_t blocks);

  /// Regions measured since the last drain, keyed by kernel name. The
  /// accumulator is thread-local: a region is recorded on the thread that
  /// launched it (the trainer thread; blocks record nothing wherever they
  /// run, since regions nested in a block run inline), and
  /// trainers drain on that same thread, so concurrent jobs sharing the
  /// pool each see exactly their own charges (the isolation `pipad serve`
  /// relies on). Draining from a different thread than the one that ran
  /// the regions returns nothing.
  std::map<std::string, RegionStats> drain_regions();
  void discard_regions();

  /// The work-unit floor: below this many scalar operations a region runs
  /// inline and unmeasured, and block_count() targets at least this much
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
  /// Affects only which worker runs a block — never the block layout, the
  /// numeric outputs or the simulated lane charges — so the
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
  void for_blocks_erased(const char* name, std::size_t n,
                         std::size_t total_work, const BlockFn& fn);
  void record_region(const char* name, const std::vector<double>& lane_us,
                     std::size_t blocks, std::size_t steals);

  /// Per-thread region accumulator (regions are recorded and drained on
  /// the launching thread; see drain_regions()).
  static std::map<std::string, RegionStats>& local_regions();

  std::mutex pool_mutex_;  ///< Guards pool_ creation/replacement.
  std::unique_ptr<ThreadPool> pool_;
  std::atomic<bool> steal_{true};
};

}  // namespace pipad
