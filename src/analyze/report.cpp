#include "analyze/report.hpp"

#include <algorithm>
#include <cstdio>
#include <string>

#include "gpusim/trace.hpp"
#include "models/bench_record.hpp"

namespace pipad::analyze {

using models::json_escape;

Analysis analyze_trace(TraceData td, const PassOptions& opts,
                       ThreadPool* pool, const PassRegistry* registry) {
  Analysis a;
  a.trace = std::move(td);
  a.dag = build_dag(a.trace, pool);
  a.path = critical_path(a.trace, a.dag);
  a.slack = resource_slack(a.trace);
  const PassContext ctx{a.trace, a.dag, a.path, opts};
  if (registry != nullptr) {
    a.findings = registry->run_all(ctx);
  } else {
    a.findings = PassRegistry::with_builtins().run_all(ctx);
  }
  return a;
}

namespace {

std::string fmt1(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1f", v);
  return buf;
}

std::string pct(double num, double den) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1f%%", den > 0.0 ? num / den * 100.0
                                                      : 0.0);
  return buf;
}

std::string label_or(const std::string& s) {
  return s.empty() ? std::string("trace") : s;
}

std::string blame_string(const Finding& f) {
  std::string out;
  for (const auto& [name, us] : f.blamed) {
    if (!out.empty()) out += "; ";
    out += name + " (" + fmt1(us) + " us)";
  }
  return out;
}

}  // namespace

void write_human_report(std::ostream& os, const Analysis& a, int top) {
  const TraceData& td = a.trace;
  os << "== trace " << label_or(td.dataset) << " / " << label_or(td.model)
     << " / " << label_or(td.method) << " ==\n";
  os << "ops " << td.records.size() << ", makespan " << fmt1(td.makespan_us)
     << " us, streams " << td.num_streams << ", worker lanes "
     << td.worker_lanes << "\n\n";

  os << "critical path: " << fmt1(a.path.total_us) << " us across "
     << a.path.segments.size() << " ops\n";
  for (int r = 0; r < gpusim::kNumResources; ++r) {
    const double us = a.path.by_resource[r];
    if (us <= 0.0) continue;
    os << "  " << gpusim::resource_name(static_cast<gpusim::Resource>(r))
       << "  " << fmt1(us) << " us (" << pct(us, a.path.total_us) << ")\n";
  }
  if (a.path.gap_us > 0.0) {
    os << "  gap  " << fmt1(a.path.gap_us) << " us ("
       << pct(a.path.gap_us, a.path.total_us) << ")\n";
  }
  os << "resource slack:";
  for (int r = 0; r < gpusim::kNumResources; ++r) {
    os << ' ' << gpusim::resource_name(static_cast<gpusim::Resource>(r))
       << '=' << fmt1(a.slack[r]) << "us";
  }
  os << "\n\n";

  if (a.findings.empty()) {
    os << "findings: none\n\n";
    gpusim::GanttOptions g;
    g.width = 80;
    os << gpusim::render_gantt(td.records, td.worker_lanes, g);
    return;
  }

  const std::size_t shown =
      std::min<std::size_t>(a.findings.size(),
                            top > 0 ? static_cast<std::size_t>(top)
                                    : a.findings.size());
  os << "findings: " << a.findings.size() << " (showing " << shown
     << ")\n";
  for (std::size_t i = 0; i < shown; ++i) {
    const Finding& f = a.findings[i];
    os << "  " << (i + 1) << ". [" << severity_name(f.severity) << "] "
       << f.pass << "  window [" << fmt1(f.from_us) << ", "
       << fmt1(f.to_us) << ") us  recoverable " << fmt1(f.recoverable_us)
       << " us\n";
    os << "     " << f.detail << "\n";
    const std::string blame = blame_string(f);
    if (!blame.empty()) os << "     blame: " << blame << "\n";
  }
  os << "\n";

  const Finding& head = a.findings.front();
  os << "top finding window:\n";
  gpusim::GanttOptions g;
  g.width = 80;
  g.from_us = head.from_us;
  g.to_us = head.to_us > head.from_us ? head.to_us : -1.0;
  g.label_ops = true;
  os << gpusim::render_gantt(td.records, td.worker_lanes, g);
}

void write_json_report(std::ostream& os, const std::vector<Analysis>& as,
                       int threads) {
  os << "{\n  \"bench\": \"pipad-analyze\",\n"
     << "  \"schema_version\": " << kAnalyzeReportSchemaVersion << ",\n"
     << "  \"flags\": {\"threads\": " << threads << "},\n"
     << "  \"records\": [\n";
  for (std::size_t i = 0; i < as.size(); ++i) {
    const Analysis& a = as[i];
    const TraceData& td = a.trace;
    int by_sev[4] = {0, 0, 0, 0};
    double recoverable = 0.0;
    for (const auto& f : a.findings) {
      ++by_sev[static_cast<int>(f.severity)];
      recoverable += f.recoverable_us;
    }
    os << "    {\"dataset\": \"" << json_escape(label_or(td.dataset))
       << "\", \"model\": \"" << json_escape(label_or(td.model))
       << "\", \"method\": \"" << json_escape(label_or(td.method))
       << "\", \"ops\": " << td.records.size()
       << ", \"makespan_us\": " << fmt1(td.makespan_us)
       << ", \"critical_path_us\": " << fmt1(a.path.total_us)
       << ", \"crit_gap_us\": " << fmt1(a.path.gap_us)
       << ", \"crit_cpu_us\": "
       << fmt1(a.path.by_resource[static_cast<int>(gpusim::Resource::Cpu)])
       << ", \"crit_worker_us\": "
       << fmt1(a.path.by_resource[static_cast<int>(
              gpusim::Resource::CpuWorker)])
       << ", \"crit_h2d_us\": "
       << fmt1(a.path.by_resource[static_cast<int>(gpusim::Resource::H2D)])
       << ", \"crit_d2h_us\": "
       << fmt1(a.path.by_resource[static_cast<int>(gpusim::Resource::D2H)])
       << ", \"crit_compute_us\": "
       << fmt1(a.path.by_resource[static_cast<int>(
              gpusim::Resource::Compute)])
       << ", \"findings\": " << a.findings.size()
       << ", \"findings_high\": " << by_sev[3]
       << ", \"findings_medium\": " << by_sev[2]
       << ", \"findings_low\": " << by_sev[1]
       << ", \"findings_info\": " << by_sev[0]
       << ", \"recoverable_us\": " << fmt1(recoverable) << "}"
       << (i + 1 < as.size() ? ",\n" : "\n");
  }
  os << "  ],\n  \"findings\": [\n";
  bool first = true;
  for (const Analysis& a : as) {
    for (const Finding& f : a.findings) {
      if (!first) os << ",\n";
      first = false;
      os << "    {\"dataset\": \"" << json_escape(label_or(a.trace.dataset))
         << "\", \"model\": \"" << json_escape(label_or(a.trace.model))
         << "\", \"method\": \"" << json_escape(label_or(a.trace.method))
         << "\", \"pass\": \"" << json_escape(f.pass)
         << "\", \"severity\": \"" << severity_name(f.severity)
         << "\", \"from_us\": " << fmt1(f.from_us)
         << ", \"to_us\": " << fmt1(f.to_us)
         << ", \"recoverable_us\": " << fmt1(f.recoverable_us)
         << ", \"blame\": \"" << json_escape(blame_string(f))
         << "\", \"detail\": \"" << json_escape(f.detail) << "\"}";
    }
  }
  if (!first) os << "\n";
  os << "  ]\n}\n";
}

Severity max_severity(const std::vector<Analysis>& as) {
  Severity sev = Severity::Info;
  for (const Analysis& a : as) {
    for (const Finding& f : a.findings) {
      sev = std::max(sev, f.severity);
    }
  }
  return sev;
}

}  // namespace pipad::analyze
