// Session: the long-lived process state behind `pipad serve`.
//
// One Session owns the process-wide ComputePool configuration and a
// JobScheduler wired to the real runner (api::run_job). The pool width is
// pinned once at construction and every admitted job's `threads` field is
// overridden to that width: ComputePool::configure() must not race with
// in-flight parallel regions, so concurrent jobs cannot each pick a width.
// This is numerically safe — parallel regions are deterministic in the
// pool width by construction — and it is what makes serve results bitwise
// identical to standalone `pipad train` runs at any thread count.
//
// Per-job isolation: each job builds its own dataset and gpusim::Gpu (so
// timelines and memory accounting never mix) while sharing the one pool;
// the pool's steal tally is thread-local, so concurrent jobs each report
// only their own steals.
//
// The Session is also the in-process client: serve_test and the wire
// layer both talk to the same submit/wait/cancel/status surface.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "api/job_result.hpp"
#include "api/job_spec.hpp"
#include "serve/scheduler.hpp"

namespace pipad::serve {

struct SessionOptions {
  int threads = 0;  ///< ComputePool width to pin (0 = library default).
  std::size_t queue_capacity = 64;
  int executors = 2;
  std::size_t max_terminal_jobs = 256;  ///< Retained job history bound.
};

class Session {
 public:
  explicit Session(SessionOptions opts = {});
  ~Session();  ///< shutdown().

  /// Validate and admit a job. Returns its id, or 0 with `error` set
  /// (invalid spec, queue full, or shut down). The spec's `threads` is
  /// overridden to the session width.
  std::uint64_t submit(const api::JobSpec& spec, std::string& error);

  bool cancel(std::uint64_t id) { return sched_.cancel(id); }
  bool status(std::uint64_t id, JobInfo& out) const {
    return sched_.status(id, out);
  }
  std::vector<JobInfo> jobs() const { return sched_.jobs(); }
  api::JobResult wait(std::uint64_t id) { return sched_.wait(id); }
  void shutdown() { sched_.shutdown(); }

  int threads() const { return threads_; }

 private:
  int threads_;
  JobScheduler sched_;
};

}  // namespace pipad::serve
