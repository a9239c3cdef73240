#include "common/compute_pool.hpp"

#include <ctime>

#include <algorithm>
#include <atomic>

namespace pipad {

namespace {

/// Per-thread CPU time in microseconds. The calibration measures with this
/// rather than wall-clock so scheduler interleaving on a loaded machine
/// does not inflate its probes.
double thread_cpu_us() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
    return ts.tv_sec * 1e6 + ts.tv_nsec * 1e-3;
  }
#endif
  return 0.0;
}

std::atomic<std::size_t> g_min_block_work{0};      ///< 0 = not calibrated.
std::atomic<std::size_t> g_min_block_work_pin{0};  ///< Test/bench override.
thread_local ThreadPool::StealStats t_steals;      ///< See take_steal_stats().

/// One-time measurement of the two quantities the block granularity trades
/// off: the fixed cost of dispatching one measured block (two thread-CPU
/// clock reads plus a type-erased call — what for_blocks pays per block)
/// and the cost of one canonical work unit (a dependent float
/// multiply-add, the currency every call site's total_work is quoted in).
/// The floor is the work whose execution time is kBlockOverheadBudget
/// times the dispatch overhead. Single-threaded and thread-count
/// independent: the resulting block layout is a per-process constant.
std::size_t calibrate_min_block_work() {
  const ComputePool::BlockFn nop = [](std::size_t, std::size_t) {};
  constexpr int kProbes = 256;
  double clocked = 0.0;  // Prevents the probe loop from folding away.
  const double o0 = thread_cpu_us();
  for (int i = 0; i < kProbes; ++i) {
    const double a = thread_cpu_us();
    nop(0, 0);
    clocked += thread_cpu_us() - a;
  }
  const double overhead_us = (thread_cpu_us() - o0) / kProbes;

  constexpr int kUnits = 1 << 16;
  volatile float sink = 1.0f;
  float acc = sink;
  const double u0 = thread_cpu_us();
  for (int i = 0; i < kUnits; ++i) acc = acc * 0.999f + 0.001f;
  const double unit_us = (thread_cpu_us() - u0) / kUnits;
  sink = acc;

  if (!(overhead_us > 0.0) || !(unit_us > 0.0) || clocked < 0.0) {
    // Clock unavailable or too coarse to resolve the probes: fall back to
    // the historical fixed floor.
    return 16384;
  }
  const double units =
      overhead_us * static_cast<double>(ComputePool::kBlockOverheadBudget) /
      unit_us;
  return std::clamp<std::size_t>(static_cast<std::size_t>(units),
                                 ComputePool::kMinBlockWorkFloor,
                                 ComputePool::kMinBlockWorkCeil);
}

}  // namespace

std::size_t default_compute_threads() {
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  return std::min<std::size_t>(hw, 8);
}

ComputePool& ComputePool::instance() {
  static ComputePool pool;
  return pool;
}

ThreadPool& ComputePool::pool_locked() {
  if (!pool_) pool_ = std::make_unique<ThreadPool>(default_compute_threads());
  return *pool_;
}

ThreadPool& ComputePool::pool() {
  std::lock_guard<std::mutex> lock(pool_mutex_);
  return pool_locked();
}

void ComputePool::configure(std::size_t threads) {
  if (threads == 0) threads = default_compute_threads();
  std::lock_guard<std::mutex> lock(pool_mutex_);
  if (pool_ && pool_->size() == threads) return;
  pool_.reset();  // Join the old workers before starting the new ones.
  pool_ = std::make_unique<ThreadPool>(threads);
}

std::size_t ComputePool::threads() { return pool().size(); }

std::size_t ComputePool::min_block_work() {
  const std::size_t pinned =
      g_min_block_work_pin.load(std::memory_order_relaxed);
  if (pinned != 0) return pinned;
  std::size_t v = g_min_block_work.load(std::memory_order_acquire);
  if (v == 0) {
    const std::size_t fresh = calibrate_min_block_work();
    std::size_t expected = 0;
    if (g_min_block_work.compare_exchange_strong(
            expected, fresh, std::memory_order_acq_rel)) {
      v = fresh;  // This thread's calibration won.
    } else {
      v = expected;  // A concurrent calibration won; use its value.
    }
  }
  return v;
}

void ComputePool::set_min_block_work(std::size_t work) {
  g_min_block_work_pin.store(work, std::memory_order_relaxed);
}

void ComputePool::set_stealing(bool on) {
  steal_.store(on, std::memory_order_relaxed);
}

bool ComputePool::stealing() const {
  return steal_.load(std::memory_order_relaxed);
}

std::size_t ComputePool::block_count(std::size_t n, std::size_t total_work) {
  if (n == 0) return 0;
  const std::size_t by_work = total_work / min_block_work();
  return std::min({n, kMaxBlocks, std::max<std::size_t>(1, by_work)});
}

ThreadPool::StealStats ComputePool::take_steal_stats() {
  const ThreadPool::StealStats out = t_steals;
  t_steals = {};
  return out;
}

ComputePool::Ranges ComputePool::even_ranges(std::size_t n,
                                             std::size_t blocks) {
  Ranges ranges;
  if (n == 0 || blocks == 0) return ranges;
  ranges.reserve(blocks);
  const std::size_t per = n / blocks;
  const std::size_t extra = n % blocks;
  std::size_t lo = 0;
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t hi = lo + per + (b < extra ? 1 : 0);
    ranges.emplace_back(lo, hi);
    lo = hi;
  }
  return ranges;
}

void ComputePool::for_blocks_erased(std::size_t n, std::size_t total_work,
                                    const BlockFn& fn) {
  run_ranges(even_ranges(n, block_count(n, total_work)), fn);
}

void ComputePool::run_ranges(const Ranges& ranges, const BlockFn& fn) {
  if (ranges.empty()) return;
  ThreadPool& candidate = pool();
  // A nested region (we *are* a worker of this pool, or the launching
  // thread inside a block of its own region) must run inline: submitting
  // would risk deadlock. Same block layout as the parallel path, so
  // order-sensitive per-block math stays bit-identical across thread
  // counts.
  if (ThreadPool::current_pool() == &candidate || ranges.size() == 1 ||
      candidate.size() <= 1) {
    for (const auto& [lo, hi] : ranges) fn(lo, hi);
    return;
  }
  // Work-stealing dispatch: blocks preloaded on per-slot deques, one
  // runner per slot, slot 0 on this thread (ThreadPool::run_blocks).
  const ThreadPool::StealStats st = candidate.run_blocks(
      ranges.size(),
      [&](std::size_t b) { fn(ranges[b].first, ranges[b].second); },
      steal_.load(std::memory_order_relaxed));
  t_steals.executed += st.executed;
  t_steals.stolen += st.stolen;
}

}  // namespace pipad
