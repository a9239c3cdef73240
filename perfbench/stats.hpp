// Statistics and span helpers of the benchmark runner: medians, the
// nearest-rank percentile, the tail-percentile rule, geometric means, and
// in-memory spans with self time.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Median (mean of the two middle values for an even count); 0 when empty.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// 1-based nearest rank of percentile `pct` among n samples.
inline std::size_t nearest_rank(double pct, std::size_t n) {
  const auto r = static_cast<std::size_t>(std::ceil(pct / 100.0 * n - 1e-9));
  return std::clamp<std::size_t>(r, 1, n);
}

/// Nearest-rank percentile; 0 when empty.
inline double percentile(std::vector<double> v, double pct) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[nearest_rank(pct, v.size()) - 1];
}

/// A percentile together with the sample count behind it and how many
/// samples lie beyond it.
struct Tail {
  double pct = 0.0;
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};

/// The tail rule: the highest of the usual percentiles (50, 75, 90, 95,
/// 99, 99.9) that has at least ten samples beyond it. With fewer than 20
/// samples no percentile qualifies and the median is returned with its
/// (short) beyond count, so the caller can see the rule was not met.
inline Tail tail_percentile(const std::vector<double>& v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  for (const double pct : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    const std::size_t beyond = v.size() - nearest_rank(pct, v.size());
    if (beyond >= 10 || pct == 50.0) {
      t.pct = pct;
      t.value = percentile(v, pct);
      t.beyond = beyond;
      return t;
    }
  }
  return t;
}

/// Geometric mean of positive values; 0 when empty or any value <= 0.
inline double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double x : v) {
    if (!(x > 0.0)) return 0.0;
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(v.size()));
}

/// One traced interval. `parent` indexes the span that caused it (-1 for a
/// root); `req` groups the spans of one request (empty when none).
struct Span {
  std::string name;
  double start = 0.0;  ///< Seconds since the tracer started.
  double end = 0.0;
  int parent = -1;
  std::string req;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children (children may overlap each other
/// and may stick out of the parent; only the covered part counts).
inline std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size()) {
      kids[static_cast<std::size_t>(s.parent)].push_back({s.start, s.end});
    }
  }
  std::vector<double> out(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start;
    const double hi = spans[i].end;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double run_lo = 0.0;
    double run_hi = -1.0;  // Empty run.
    for (const auto& [a0, b0] : iv) {
      const double a = std::max(a0, lo);
      const double b = std::min(b0, hi);
      if (b <= a) continue;
      if (a > run_hi) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = a;
        run_hi = b;
      } else {
        run_hi = std::max(run_hi, b);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    out[i] = (hi - lo) - covered;
  }
  return out;
}

/// In-memory span recorder. Spans are opened and closed on one thread
/// through Scope (nesting gives the parent); spans timed elsewhere are
/// added whole with add(). Written out once, when the run ends.
class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  double now() const {
    return std::chrono::duration<double>(Clock::now() - t0_).count();
  }

  int open(std::string name, std::string req = {}) {
    std::lock_guard<std::mutex> lk(mu_);
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{std::move(name), now(), 0.0, parent, std::move(req)});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void close(int id) {
    std::lock_guard<std::mutex> lk(mu_);
    spans_[static_cast<std::size_t>(id)].end = now();
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }

  /// The innermost open span (-1 when none).
  int current() const {
    std::lock_guard<std::mutex> lk(mu_);
    return stack_.empty() ? -1 : stack_.back();
  }

  void add(Span s) {
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back(std::move(s));
  }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lk(mu_);
    return spans_;
  }

 private:
  const Clock::time_point t0_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; a null tracer makes it a no-op, which is how untraced runs
/// avoid recording anything.
class Scope {
 public:
  Scope(Tracer* t, std::string name, std::string req = {})
      : t_(t), id_(t != nullptr ? t->open(std::move(name), std::move(req))
                                : -1) {}
  ~Scope() {
    if (t_ != nullptr) t_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
  int id_;
};

}  // namespace perfbench
