#include "host/host_lane.hpp"

#include <algorithm>
#include <exception>
#include <utility>

#include "common/timer.hpp"

namespace pipad::host {

HostLane::HostLane(gpusim::Gpu& gpu, std::size_t threads) : gpu_(gpu) {
  ComputePool::instance().configure(threads);
  gpu_.set_worker_lanes(pool().size());
}

void HostLane::run(const std::string& name, std::size_t n,
                   const std::function<void(std::size_t)>& job) {
  if (n == 0) return;

  ThreadPool& p = pool();
  // Measured wall-clock per job, indexed by lane; each inner vector is only
  // touched by its own pool thread, so no lock is needed.
  std::vector<std::vector<double>> per_lane(p.size());

  auto futs = p.map(n, [&](std::size_t i) {
    const std::size_t lane = ThreadPool::worker_index();
    Timer timer;
    job(i);
    per_lane[lane].push_back(timer.elapsed_us());
  });
  // Drain the whole batch before rethrowing so per_lane stays alive for
  // every in-flight job.
  std::exception_ptr first;
  for (auto& f : futs) {
    try {
      f.get();
    } catch (...) {
      if (!first) first = std::current_exception();
    }
  }
  if (first) std::rethrow_exception(first);

  // Charge the timeline on the main thread (the Timeline is not
  // thread-safe): per lane, in the order that lane executed its jobs, so
  // the simulated schedule mirrors the real one.
  for (std::size_t lane = 0; lane < per_lane.size(); ++lane) {
    for (double wall_us : per_lane[lane]) {
      gpu_.worker_op(lane, name, wall_us);
    }
  }
}

double HostLane::charge_all(const std::string& name, double wall_us,
                            double not_before_us, std::size_t tasks) {
  const std::size_t width = pool().size();
  const std::size_t lanes = tasks == 0 ? width : std::min(tasks, width);
  double end = not_before_us;
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    end = std::max(end, gpu_.worker_op(lane, name, wall_us, not_before_us));
  }
  return end;
}

std::unique_ptr<HostStream> HostLane::stream(
    std::string name, std::size_t n, std::function<void(std::size_t)> job,
    std::size_t window) {
  if (window == 0) window = 2 * pool().size();
  window = std::max<std::size_t>(1, window);
  return std::unique_ptr<HostStream>(new HostStream(
      gpu_, pool(), std::move(name), n, std::move(job), window));
}

// ---------------------------------------------------------------- HostStream

HostStream::HostStream(gpusim::Gpu& gpu, ThreadPool& pool, std::string name,
                       std::size_t n, std::function<void(std::size_t)> job,
                       std::size_t window)
    : gpu_(gpu),
      pool_(pool),
      name_(std::move(name)),
      n_(n),
      job_(std::move(job)),
      window_(window),
      end_us_(n, 0.0),
      retired_(n, false) {
  std::lock_guard<std::mutex> lock(mutex_);
  refill_locked();
}

HostStream::~HostStream() {
  try {
    finish();
  } catch (...) {
    // Jobs reference caller state: the drain itself must happen, but a
    // destructor cannot rethrow a job's failure. wait()/finish() callers
    // see it; a stream destroyed without either ran to completion anyway.
  }
}

void HostStream::submit_next_locked() {
  if (next_submit_ >= n_) return;
  const std::size_t i = next_submit_++;
  futures_.push_back(pool_.submit([this, i] {
    Completion c;
    c.index = i;
    c.lane = ThreadPool::worker_index();
    Timer timer;
    try {
      job_(i);
    } catch (...) {
      c.error = std::current_exception();
    }
    c.wall_us = timer.elapsed_us();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      done_.push_back(std::move(c));
    }
    cv_.notify_all();
  }));
}

void HostStream::refill_locked() {
  // In-flight = submitted and not yet retired; top back up to window_.
  while (next_submit_ < n_ && next_submit_ - retired_count_ < window_) {
    submit_next_locked();
  }
}

void HostStream::retire(const Completion& c) {
  // Consumer thread only: the Timeline is not thread-safe. Completions pop
  // in arrival order, which preserves each lane's execution order, so the
  // simulated schedule mirrors the real one (same contract as run()).
  end_us_[c.index] = gpu_.worker_op(c.lane, name_, c.wall_us);
  retired_[c.index] = true;
  if (c.error && !first_error_) first_error_ = c.error;
}

double HostStream::wait(std::size_t j) {
  PIPAD_CHECK_MSG(j < n_, "HostStream::wait(" << j << ") of " << n_);
  while (!retired_[j]) {
    Completion c;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [&] { return !done_.empty(); });
      c = std::move(done_.front());
      done_.pop_front();
      ++retired_count_;
      // A retired job frees window slots; keep the pipeline primed.
      refill_locked();
    }
    retire(c);
  }
  if (first_error_) {
    finish();  // Drain stragglers before surfacing the failure.
    // Sticky: the error keeps rethrowing on every later wait(), so a
    // caller that catches and continues can never silently consume the
    // failed job's default-constructed output.
    std::rethrow_exception(first_error_);
  }
  return end_us_[j];
}

void HostStream::finish() {
  while (true) {
    Completion c;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (retired_count_ >= n_) break;
      cv_.wait(lock, [&] { return !done_.empty(); });
      c = std::move(done_.front());
      done_.pop_front();
      ++retired_count_;
      refill_locked();
    }
    retire(c);
  }
  // Join the pool tasks: a completion record arrives *before* the task
  // fully unwinds, so a worker can still be inside notify/packaged-task
  // teardown that touches this object — it is only provably out once its
  // future is ready. (Job exceptions were already captured per completion;
  // these gets never throw.)
  std::vector<std::future<void>> futs;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    futs.swap(futures_);
  }
  for (auto& f : futs) f.get();
}

double charge_load(gpusim::Gpu& gpu, const graph::io::LoadStats& st,
                   std::size_t threads) {
  HostLane lane(gpu, threads);
  double end = 0.0;
  if (st.read_us > 0.0) {
    end = lane.charge_all("load:read", st.read_us, end, 1);
  }
  if (st.inflate_us > 0.0) {
    end = lane.charge_all("load:inflate", st.inflate_us, end, 1);
  }
  if (st.cache_hit) {
    // A hit replaces parse + build with one binary read (plus the
    // deterministic transpose rebuild, measured inside cache_us).
    if (st.cache_us > 0.0) {
      end = lane.charge_all("load:cache-read", st.cache_us, end, 1);
    }
    return end;
  }
  if (st.parse_us > 0.0) {
    end = lane.charge_all("load:parse", st.parse_us, end,
                          std::max<std::size_t>(1, st.parse_chunks));
  }
  if (st.build_us > 0.0) {
    end = lane.charge_all("load:build", st.build_us, end,
                          std::max<std::size_t>(1, st.build_tasks));
  }
  if (st.cache_us > 0.0) {
    end = lane.charge_all("load:cache-write", st.cache_us, end, 1);
  }
  return end;
}

}  // namespace pipad::host
