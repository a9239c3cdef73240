// The repository benchmark runner (README.md in this directory has the
// metric map and why each workload exists).
//
//   perfbench --workload train-device|train-host|serve-mixed --seed N
//             --seconds S --trace 0|1 --pipad-bin PATH --work-dir DIR
//             [--git-sha SHA] [--source-digest HEX]
//
// Every layer is measured from outside, by timing calls into its public
// functions and reading the simulated Timeline / TrainResult they return.
// Untraced runs print the end-to-end metrics; a traced run records spans
// around the same calls (plus one probe per layer) and prints the
// per-layer metrics. The last stdout line is the result object; the line
// before it carries the run manifest and the per-model / per-span detail.
#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>
#include <zlib.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analyze/report.hpp"
#include "analyze/trace_data.hpp"
#include "api/job_result.hpp"
#include "api/job_spec.hpp"
#include "api/json.hpp"
#include "api/run_job.hpp"
#include "baselines/baseline_trainer.hpp"
#include "common/compute_pool.hpp"
#include "common/rng.hpp"
#include "gpusim/gpu.hpp"
#include "graph/generator.hpp"
#include "graph/io/exporter.hpp"
#include "graph/io/loader.hpp"
#include "kernels/aggregate.hpp"
#include "models/model.hpp"
#include "pipad/pipad_trainer.hpp"
#include "replica/replica_trainer.hpp"
#include "serve/scheduler.hpp"
#include "serve/session.hpp"
#include "serve/wire.hpp"
#include "sliced/partition.hpp"
#include "stats.hpp"
#include "tensor/ops.hpp"

extern char** environ;

namespace fs = std::filesystem;
using pipad::api::Json;
using pipad::api::JobSpec;

namespace {

// ------------------------------------------------------------------ basics

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of this process (all threads), in seconds.
double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// User + system CPU time of another process, in seconds; 0 when
/// unreadable.
double process_cpu_s(pid_t pid) {
  std::ifstream is("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(is)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are the
  // 12th and 13th of them.
  std::istringstream fields(stat.substr(stat.rfind(')') + 2));
  std::string f;
  double ticks = 0;
  for (int i = 1; i <= 13 && fields >> f; ++i) {
    if (i >= 12) ticks += std::stod(f);
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

/// A seed derived from the workload seed, below 2^31 so it survives the
/// JobSpec JSON (numbers are doubles) unchanged.
std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return (z ^ (z >> 31)) >> 33;
}

/// Peak resident set (VmHWM) of a process, in MB; 0 when unreadable.
double vm_hwm_mb(const std::string& pid) {
  std::ifstream is("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB.
    }
  }
  return 0.0;
}

bool finite_losses(const std::vector<float>& v) {
  if (v.empty()) return false;
  for (const float x : v) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Pass/fail bookkeeping of every checked operation.
struct Checks {
  std::mutex mu;
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> errors;

  void record(bool ok, const std::string& what) {
    std::lock_guard<std::mutex> lk(mu);
    ++attempted;
    if (!ok) {
      ++failed;
      if (errors.size() < 20) errors.push_back(what);
    }
  }
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string pipad_bin;
  std::string work_dir;
  std::string git_sha = "unavailable";
  std::string source_digest = "unavailable";
};

bool parse_args(int argc, char** argv, Args& a, std::string& err) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) {
      err = "missing value for " + k;
      return false;
    }
    const std::string v = argv[++i];
    try {
      if (k == "--workload") {
        a.workload = v;
      } else if (k == "--seed") {
        a.seed = std::stoull(v);
      } else if (k == "--seconds") {
        a.seconds = std::stoi(v);
      } else if (k == "--trace") {
        a.trace = std::stoi(v) != 0;
      } else if (k == "--pipad-bin") {
        a.pipad_bin = v;
      } else if (k == "--work-dir") {
        a.work_dir = v;
      } else if (k == "--git-sha") {
        a.git_sha = v;
      } else if (k == "--source-digest") {
        a.source_digest = v;
      } else {
        err = "unknown flag " + k;
        return false;
      }
    } catch (const std::exception&) {
      err = "bad value '" + v + "' for " + k;
      return false;
    }
  }
  if (a.workload != "train-device" && a.workload != "train-host" &&
      a.workload != "serve-mixed") {
    err = "unknown workload '" + a.workload + "'";
    return false;
  }
  if (a.seconds < 1 || a.work_dir.empty() ||
      (a.workload == "serve-mixed" && a.pipad_bin.empty())) {
    err = "need --seconds >= 1, --work-dir, and --pipad-bin for serve-mixed";
    return false;
  }
  return true;
}

/// The fixed ComputePool width: 4 lanes, or fewer on a smaller machine.
int pool_width() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 4u));
}

/// Ordered metric list: name -> (value, unit).
using Metrics =
    std::vector<std::pair<std::string, std::pair<double, std::string>>>;

Json metrics_json(const Metrics& m) {
  Json out = Json::object();
  for (const auto& [name, vu] : m) {
    Json e = Json::object();
    e.set("value", std::isfinite(vu.first) ? vu.first : 0.0);
    e.set("unit", vu.second);
    out.set(name, e);
  }
  return out;
}

// ------------------------------------------------------- in-process runs

/// One in-process training call: the spec, what it returned, its wall
/// time, and (traced runs) the simulated device it ran on.
struct Run {
  JobSpec spec;
  pipad::models::TrainResult result;
  double construct_s = 0.0;
  double train_s = 0.0;
  double cpu_s = 0.0;  ///< Process CPU time of construct + train.
  std::vector<int> sper;  ///< Tuner decisions (PiPAD only).
  std::unique_ptr<pipad::gpusim::Gpu> gpu;
};

/// Train `spec` on `data` through the runtime's public trainer.
Run train_one(const JobSpec& spec, const pipad::graph::DTDG& data,
              perfbench::Tracer* tr, bool keep_gpu) {
  Run r;
  r.spec = spec;
  r.gpu = std::make_unique<pipad::gpusim::Gpu>();
  const auto tcfg = pipad::api::train_config(spec);
  const bool pipad_rt = spec.runtime == "pipad";
  perfbench::Scope span(tr, (pipad_rt ? "pipad.train/" : "baselines.train/") +
                                spec.model);
  const double t0 = now_s();
  const double c0 = process_cpu_s();
  if (pipad_rt) {
    pipad::runtime::PipadTrainer t(*r.gpu, data, tcfg,
                                   pipad::api::pipad_options(spec));
    const double t1 = now_s();
    r.result = t.train();
    r.train_s = now_s() - t1;
    r.construct_s = t1 - t0;
    for (const auto& [start, s] : t.sper_decisions()) r.sper.push_back(s);
  } else {
    pipad::baselines::BaselineTrainer t(*r.gpu, data, tcfg,
                                        pipad::baselines::Variant::PyGT);
    const double t1 = now_s();
    r.result = t.train();
    r.train_s = now_s() - t1;
    r.construct_s = t1 - t0;
  }
  r.cpu_s = process_cpu_s() - c0;
  if (!keep_gpu) r.gpu.reset();
  return r;
}

std::string run_key(const JobSpec& s) { return s.model + "/" + s.runtime; }

double sim_epoch_ms(const Run& r) {
  return r.result.total_us / r.spec.epochs / 1000.0;
}

/// Per-model medians of the model clock over repeated runs, and the two
/// end-to-end model-clock metrics derived from them.
struct ModelClock {
  std::map<std::string, std::vector<double>> epoch_ms;  ///< key -> samples.

  double med(const std::string& model, const std::string& rt) const {
    const auto it = epoch_ms.find(model + "/" + rt);
    return it == epoch_ms.end() ? 0.0 : perfbench::median(it->second);
  }
  double pipad_geomean(const std::vector<std::string>& models) const {
    std::vector<double> v;
    for (const auto& m : models) v.push_back(med(m, "pipad"));
    return perfbench::geomean(v);
  }
  double speedup_geomean(const std::vector<std::string>& models) const {
    std::vector<double> v;
    for (const auto& m : models) {
      const double p = med(m, "pipad");
      v.push_back(p > 0 ? med(m, "pygt") / p : 0.0);
    }
    return perfbench::geomean(v);
  }
};

// ------------------------------------------------------------- layer probes

/// First `count` snapshots of `g` as a dataset of their own.
pipad::graph::DTDG prefix_of(const pipad::graph::DTDG& g, int count) {
  pipad::graph::DTDG out;
  out.name = g.name + "-prefix";
  out.num_nodes = g.num_nodes;
  out.feat_dim = g.feat_dim;
  out.sim_scale = g.sim_scale;
  const int n = std::min(count, g.num_snapshots());
  out.snapshots.assign(g.snapshots.begin(), g.snapshots.begin() + n);
  out.targets.assign(g.targets.begin(), g.targets.begin() + n);
  return out;
}

/// gzip `src` into `dst` and remove `src`.
void gzip_file(const std::string& src, const std::string& dst) {
  std::ifstream in(src, std::ios::binary);
  gzFile out = gzopen(dst.c_str(), "wb6");
  if (!in || out == nullptr) throw std::runtime_error("cannot gzip " + src);
  std::vector<char> buf(1 << 16);
  while (in) {
    in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
    const auto n = static_cast<unsigned>(in.gcount());
    if (n > 0 && gzwrite(out, buf.data(), n) != static_cast<int>(n)) {
      gzclose(out);
      throw std::runtime_error("gzip write failed for " + dst);
    }
  }
  if (gzclose(out) != Z_OK) throw std::runtime_error("gzip close " + dst);
  fs::remove(src);
}

/// Export `g` as a gzip'd edge list at `path` (".txt.gz").
void write_edge_list_gz(const pipad::graph::DTDG& g, const std::string& path) {
  const std::string plain = path.substr(0, path.size() - 3);
  pipad::graph::io::export_edge_list(g, plain);
  gzip_file(plain, path);
}

/// Repeat `fn` until at least `min_s` seconds have passed; returns
/// (repetitions, elapsed seconds).
template <typename Fn>
std::pair<long, double> repeat_for(double min_s, Fn&& fn) {
  long reps = 0;
  const double t0 = now_s();
  double el = 0.0;
  do {
    fn();
    ++reps;
    el = now_s() - t0;
  } while (el < min_s);
  return {reps, el};
}

/// graph.io: one load per (path, cache dir) entry.
struct IoLoad {
  std::string path;
  std::string cache_dir;
};

void probe_io(perfbench::Tracer* tr, const std::vector<IoLoad>& loads,
              int feat_dim, std::uint64_t seed, Metrics& m) {
  perfbench::Scope span(tr, "graph.io");
  double load_s = 0, inflate = 0, parse = 0, build = 0, bytes = 0;
  int hits = 0;
  for (const auto& l : loads) {
    pipad::graph::io::LoadOptions lo;
    lo.feat_dim = feat_dim;
    lo.cache_dir = l.cache_dir;
    lo.seed = seed;
    pipad::graph::io::LoadStats st;
    perfbench::Scope one(tr, "graph.io.load_dataset");
    const double t0 = now_s();
    pipad::graph::io::load_dataset(
        l.path, lo, &pipad::ComputePool::instance().pool(), &st);
    load_s += now_s() - t0;
    inflate += st.inflate_us / 1e6;
    parse += st.parse_us / 1e6;
    build += st.build_us / 1e6;
    hits += st.cache_hit ? 1 : 0;
    bytes += static_cast<double>(fs::file_size(l.path));
  }
  m.push_back({"graph.io.load_s", {load_s, "s"}});
  m.push_back({"graph.io.inflate_s", {inflate, "s"}});
  m.push_back({"graph.io.parse_s", {parse, "s"}});
  m.push_back({"graph.io.build_s", {build, "s"}});
  m.push_back({"graph.io.cache_hit_frac",
               {loads.empty() ? 0.0 : static_cast<double>(hits) / loads.size(),
                "ratio"}});
  m.push_back({"graph.io.mb_per_s",
               {load_s > 0 ? bytes / 1e6 / load_s : 0.0, "MB/s"}});
}

/// sliced, tensor and kernels at the workload's shapes.
void probe_kernels(perfbench::Tracer* tr, const pipad::graph::DTDG& g,
                   const JobSpec& spec, Metrics& m) {
  auto& pool = pipad::ComputePool::instance().pool();
  constexpr int kSper = 4;
  {
    perfbench::Scope span(tr, "sliced.build_partition");
    auto frames = pipad::graph::frames_of(g, spec.frame_size);
    if (spec.frames > 0 && static_cast<int>(frames.size()) > spec.frames) {
      frames.resize(static_cast<std::size_t>(spec.frames));
    }
    const double t0 = now_s();
    for (const auto& f : frames) {
      for (int s = f.start; s < f.end(); s += kSper) {
        pipad::sliced::build_partition(g, s, std::min(kSper, f.end() - s),
                                       pipad::sliced::kDefaultSliceBound,
                                       &pool);
      }
    }
    m.push_back({"sliced.build_partition_ms",
                 {(now_s() - t0) * 1000.0 / frames.size(), "ms"}});
  }
  {
    perfbench::Scope span(tr, "tensor.gemm");
    const int n = g.num_nodes;
    const int f = g.feat_dim;
    const int h = pipad::models::default_hidden_dim(f);
    pipad::Rng rng(spec.seed);
    const auto a = pipad::Tensor::randn(n, f, rng);
    const auto b = pipad::Tensor::randn(f, h, rng);
    const auto a2 = pipad::Tensor::randn(n, h, rng);
    const auto b2 = pipad::Tensor::randn(h, h, rng);
    pipad::Tensor c(n, h), c2(n, h);
    const auto [reps, el] = repeat_for(0.2, [&] {
      pipad::ops::gemm(a, b, c);
      pipad::ops::gemm(a2, b2, c2);
    });
    const double flops = 2.0 * n * h * (f + h);
    m.push_back({"tensor.gemm_gflops", {flops * reps / el / 1e9, "GFLOP/s"}});
  }
  {
    perfbench::Scope span(tr, "kernels.agg_sliced");
    const int count = std::min(kSper, g.num_snapshots());
    const auto part = pipad::sliced::build_partition(
        g, 0, count, pipad::sliced::kDefaultSliceBound, &pool);
    std::vector<const pipad::Tensor*> feats;
    for (int s = 0; s < count; ++s) feats.push_back(&g.snapshots[s].features);
    const auto x = pipad::sliced::coalesce_features(feats);
    pipad::Tensor out(x.rows(), x.cols());
    const auto [reps, el] = repeat_for(
        0.2, [&] { pipad::kernels::agg_sliced(part.overlap, x, out); });
    m.push_back({"kernels.agg_sliced_medges_per_s",
                 {static_cast<double>(part.overlap.nnz()) * reps / el / 1e6,
                  "Medges/s"}});
  }
}

/// pipad, baselines, host, gpusim, analyze and common from the traced
/// in-process runs (PiPAD runs kept their Gpu), plus the replica run.
void layer_metrics_from_runs(perfbench::Tracer* tr,
                             const std::vector<Run>& runs,
                             const Run& replica, Metrics& m, Json& detail) {
  using pipad::gpusim::Resource;
  double p_train = 0, b_train = 0, first_steady = 0;
  std::vector<double> p_epoch, b_epoch, sper;
  double compute_charge = 0, prep = 0, wait = 0, comp = 0, h2d = 0, d2h = 0;
  double makespan = 0;
  double launches = 0, sm = 0, active = 0, steals = 0;
  int n_pipad = 0;
  Json per_model = Json::object();
  for (const Run& r : runs) {
    const std::string layer = r.spec.runtime == "pipad" ? "pipad" : "baselines";
    per_model.set(layer + ".train_s." + r.spec.model, r.train_s);
    per_model.set(layer + ".sim_epoch_ms." + r.spec.model, sim_epoch_ms(r));
    if (r.spec.runtime != "pipad") {
      b_train += r.train_s;
      b_epoch.push_back(sim_epoch_ms(r));
      continue;
    }
    ++n_pipad;
    p_train += r.train_s;
    p_epoch.push_back(sim_epoch_ms(r));
    first_steady += r.result.first_steady_us / 1000.0;
    for (const int s : r.sper) sper.push_back(s);
    const auto& tl = r.gpu->timeline();
    const double per_epoch = 1000.0 * r.spec.epochs;
    for (const auto& rec : tl.records()) {
      const double d = (rec.end_us - rec.start_us) / per_epoch;
      if (rec.resource == Resource::CpuWorker) {
        if (rec.name.rfind("compute:", 0) == 0) compute_charge += d;
        if (rec.name.rfind("prep:", 0) == 0) prep += d;
      } else if (rec.resource == Resource::Cpu &&
                 rec.name.rfind("wait:", 0) == 0) {
        wait += d;
      } else if (rec.resource == Resource::Compute) {
        launches += 1;
      }
    }
    comp += tl.busy_us(Resource::Compute) / per_epoch;
    h2d += tl.busy_us(Resource::H2D) / per_epoch;
    d2h += tl.busy_us(Resource::D2H) / per_epoch;
    makespan += tl.makespan() / per_epoch;
    sm += r.result.sm_utilization;
    active += r.result.device_active;
    steals += static_cast<double>(r.result.steals);
  }
  const double np = std::max(1, n_pipad);
  double sper_mean = 0;
  for (const double s : sper) sper_mean += s;
  if (!sper.empty()) sper_mean /= static_cast<double>(sper.size());
  m.push_back({"pipad.train_s", {p_train, "s"}});
  m.push_back({"pipad.sim_epoch_ms", {perfbench::geomean(p_epoch), "ms"}});
  m.push_back({"pipad.sper_mean", {sper_mean, "snapshots"}});
  m.push_back({"pipad.first_steady_ms", {first_steady / np, "ms"}});
  m.push_back({"baselines.train_s", {b_train, "s"}});
  m.push_back({"baselines.sim_epoch_ms", {perfbench::geomean(b_epoch), "ms"}});
  m.push_back({"host.compute_charge_ms", {compute_charge, "ms"}});
  m.push_back({"host.prep_ms", {prep, "ms"}});
  // Main-lane waits and D2H traffic depend only on tensor shapes on some
  // workloads (the same for every seed), so they are given as shares of
  // the PiPAD makespan.
  const auto share = [&](double x) {
    return makespan > 0 ? x / makespan : 0.0;
  };
  m.push_back({"host.wait_share", {share(wait), "ratio"}});
  m.push_back({"gpusim.compute_busy_ms", {comp, "ms"}});
  m.push_back({"gpusim.h2d_busy_ms", {h2d, "ms"}});
  m.push_back({"gpusim.d2h_share", {share(d2h), "ratio"}});
  m.push_back({"gpusim.kernel_launches", {launches, "count"}});
  m.push_back({"gpusim.sm_util", {sm / np, "ratio"}});
  m.push_back({"gpusim.device_active", {active / np, "ratio"}});

  // analyze: critical path of every PiPAD timeline and the replica one.
  double by_res[pipad::gpusim::kNumResources] = {};
  double crit_total = 0, analyze_s = 0;
  {
    perfbench::Scope span(tr, "analyze");
    std::vector<const pipad::gpusim::Gpu*> gpus;
    for (const Run& r : runs) {
      if (r.gpu && r.spec.runtime == "pipad") gpus.push_back(r.gpu.get());
    }
    if (replica.gpu) gpus.push_back(replica.gpu.get());
    for (const auto* gpu : gpus) {
      perfbench::Scope one(tr, "analyze.analyze_trace");
      const double t0 = now_s();
      const auto a = pipad::analyze::analyze_trace(
          pipad::analyze::from_timeline(gpu->timeline()), {},
          &pipad::ComputePool::instance().pool());
      analyze_s += now_s() - t0;
      crit_total += a.path.total_us;
      for (int i = 0; i < pipad::gpusim::kNumResources; ++i) {
        by_res[i] += a.path.by_resource[i];
      }
    }
  }
  // Indexed by gpusim::Resource.
  const char* res_names[] = {"cpu", "cpu_worker", "h2d",
                             "d2h", "compute",    "link"};
  for (int i = 0; i < pipad::gpusim::kNumResources; ++i) {
    m.push_back({std::string("analyze.crit_share.") + res_names[i],
                 {crit_total > 0 ? by_res[i] / crit_total : 0.0, "ratio"}});
  }
  m.push_back({"analyze.analyze_ms", {analyze_s * 1000.0, "ms"}});
  m.push_back({"common.steals", {steals, "count"}});
  m.push_back({"replica.train_s", {replica.train_s, "s"}});
  m.push_back({"replica.allreduce_share",
               {replica.result.total_us > 0
                    ? replica.result.allreduce_us / replica.result.total_us
                    : 0.0,
                "ratio"}});
  detail.set("per_model", per_model);
}

/// api: JobSpec JSON round trip and JobResult assembly + dump.
void probe_api(perfbench::Tracer* tr, const std::vector<JobSpec>& specs,
               const Run& sample, Checks& checks, Metrics& m) {
  perfbench::Scope span(tr, "api");
  bool ok = true;
  const auto [reps, el] = repeat_for(0.05, [&] {
    for (const auto& s : specs) {
      const std::string text = s.to_json().dump();
      JobSpec back;
      std::string err;
      ok = ok && JobSpec::from_json(Json::parse(text), back, err) &&
           back.to_json().dump() == text;
    }
  });
  checks.record(ok, "JobSpec JSON round trip changed a spec");
  m.push_back({"api.spec_roundtrip_us",
               {el * 1e6 / (static_cast<double>(reps) * specs.size()), "us"}});
  pipad::api::RunOutput out;
  out.train = sample.result;
  out.dataset_name = "probe";
  std::size_t sink = 0;
  const auto [reps2, el2] = repeat_for(0.05, [&] {
    sink += pipad::api::make_result(sample.spec, out).to_json().dump().size();
  });
  checks.record(sink > 0, "empty JobResult JSON");
  m.push_back({"api.result_json_us", {el2 * 1e6 / reps2, "us"}});
}

/// serve: an in-process JobScheduler whose Runner times api::run_job, and
/// `status` round trips through a WireClient on `socket`.
void probe_serve(perfbench::Tracer* tr, const std::vector<JobSpec>& specs,
                 const std::string& socket, Checks& checks, Metrics& m) {
  perfbench::Scope span(tr, "serve");
  const int parent = tr != nullptr ? tr->current() : -1;
  struct Times {
    double submit = 0, start = 0, end = 0, done = 0;
  };
  std::mutex mu;
  std::map<std::string, Times> times;
  {
    pipad::serve::SchedulerOptions so;
    so.executors = 2;
    pipad::serve::JobScheduler sched(so, [&](const JobSpec& s,
                                             const std::atomic<bool>* c) {
      const double t0 = now_s();
      auto out = pipad::api::run_job(s, c);
      const double t1 = now_s();
      {
        std::lock_guard<std::mutex> lk(mu);
        times[s.tag].start = t0;
        times[s.tag].end = t1;
      }
      return pipad::api::make_result(s, out);
    });
    std::vector<std::thread> waiters;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      JobSpec s = specs[i];
      s.tag = "probe-" + std::to_string(i);
      std::string err;
      {
        std::lock_guard<std::mutex> lk(mu);
        times[s.tag].submit = now_s();
      }
      const auto id = sched.submit(s, err);
      checks.record(id != 0, "in-process submit refused: " + err);
      if (id == 0) continue;
      waiters.emplace_back([&, id, tag = s.tag] {
        const auto r = sched.wait(id);
        const double t = now_s();
        checks.record(r.state == "done" && finite_losses(r.frame_loss),
                      "in-process job " + tag + " " + r.state + r.error);
        std::lock_guard<std::mutex> lk(mu);
        times[tag].done = t;
      });
    }
    for (auto& w : waiters) w.join();
  }
  std::vector<double> wait_s, run_s, overhead_ms;
  for (const auto& [tag, t] : times) {
    if (t.done == 0) continue;
    wait_s.push_back(t.start - t.submit);
    run_s.push_back(t.end - t.start);
    overhead_ms.push_back((t.done - t.end) * 1000.0);  // latency - wait - run
    if (tr != nullptr) {
      const double base = now_s() - tr->now();
      tr->add({"serve.queue_wait", t.submit - base, t.start - base, parent,
               tag});
      tr->add({"serve.run_job", t.start - base, t.end - base, parent, tag});
    }
  }
  m.push_back(
      {"serve.queue_wait_s.p50", {perfbench::percentile(wait_s, 50), "s"}});
  m.push_back(
      {"serve.queue_wait_s.p90", {perfbench::percentile(wait_s, 90), "s"}});
  m.push_back({"serve.run_s.p50", {perfbench::percentile(run_s, 50), "s"}});
  m.push_back({"serve.overhead_ms", {perfbench::median(overhead_ms), "ms"}});

  perfbench::Scope rtt_span(tr, "serve.wire_rtt");
  pipad::serve::WireClient client(socket);
  Json req = Json::object();
  req.set("op", "status");
  req.set("id", 1);
  std::vector<double> rtt;
  for (int i = 0; i < 50; ++i) {
    const double t0 = now_s();
    client.request(req);
    rtt.push_back((now_s() - t0) * 1000.0);
  }
  m.push_back({"serve.wire_rtt_ms", {perfbench::median(rtt), "ms"}});
}

// ------------------------------------------------------------------ daemon

/// A `pipad serve` child process on a local socket. The destructor shuts
/// it down over the wire and reaps it (SIGKILL if it does not exit).
class Daemon {
 public:
  Daemon(const std::string& bin, std::string socket, int threads,
         const std::string& log)
      : socket_(std::move(socket)) {
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, 1, log.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&fa, 1, 2);
    const std::string th = std::to_string(threads);
    std::vector<std::string> args = {bin,         "serve",     "--socket",
                                     socket_,     "--threads", th,
                                     "--executors", "2"};
    std::vector<char*> argv;
    for (auto& s : args) argv.push_back(s.data());
    argv.push_back(nullptr);
    launched_ = now_s();
    const int rc =
        posix_spawn(&pid_, bin.c_str(), &fa, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0) {
      pid_ = -1;
      throw std::runtime_error("cannot start " + bin + ": " +
                               std::strerror(rc));
    }
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Seconds from launch until the first successful wire reply.
  double wait_ready(double timeout_s) {
    Json req = Json::object();
    req.set("op", "list");
    while (now_s() - launched_ < timeout_s) {
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("pipad serve exited during start-up");
      }
      try {
        pipad::serve::WireClient c(socket_);
        const Json r = c.request(req);
        const Json* ok = r.find("ok");
        if (ok != nullptr && ok->is_bool() && ok->as_bool()) {
          return now_s() - launched_;
        }
      } catch (const std::exception&) {
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    throw std::runtime_error("pipad serve did not answer in time");
  }

  double peak_rss_mb() const { return vm_hwm_mb(std::to_string(pid_)); }
  double cpu_s() const { return process_cpu_s(pid_); }
  const std::string& socket() const { return socket_; }

  void stop() {
    if (pid_ <= 0) return;
    try {
      pipad::serve::WireClient c(socket_);
      Json req = Json::object();
      req.set("op", "shutdown");
      c.request(req);
    } catch (const std::exception&) {
    }
    int status = 0;
    const double t0 = now_s();
    while (waitpid(pid_, &status, WNOHANG) == 0) {
      if (now_s() - t0 > 10.0) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
  }

 private:
  std::string socket_;
  pid_t pid_ = -1;
  double launched_ = 0.0;
};

// --------------------------------------------------------------- workloads

struct Outcome {
  Metrics metrics;
  Json detail = Json::object();
};

/// Sample count and tail-rule percentile behind the latency metrics.
Json latency_detail(const std::vector<double>& lat) {
  const auto tail = perfbench::tail_percentile(lat);
  Json j = Json::object();
  j.set("samples", static_cast<unsigned long>(tail.samples));
  j.set("p90_beyond", static_cast<unsigned long>(
                          lat.empty() ? 0
                                      : lat.size() - perfbench::nearest_rank(
                                                         90, lat.size())));
  j.set("tail_rule_pct", tail.pct);
  j.set("tail_rule_value_s", tail.value);
  return j;
}

Json spec_list_json(const std::vector<JobSpec>& specs) {
  Json a = Json::array();
  for (const auto& s : specs) a.push_back(s.to_json());
  return a;
}

// ---- train-device / train-host: in-process training on a generated graph

Outcome run_train(const Args& a, perfbench::Tracer* tr, Checks& checks,
                  const std::string& dataset,
                  const std::vector<std::string>& models) {
  const int width = pool_width();
  auto& pool = pipad::ComputePool::instance();
  pool.configure(static_cast<std::size_t>(width));
  std::vector<JobSpec> specs;
  for (const auto& model : models) {
    for (const char* rt : {"pipad", "pygt"}) {
      JobSpec s;
      s.model = model;
      s.runtime = rt;
      s.dataset = dataset;
      s.threads = width;
      s.seed = mix(a.seed, 1);
      const std::string err = s.validate();
      if (!err.empty()) throw std::runtime_error("bad workload spec: " + err);
      specs.push_back(s);
    }
  }
  Outcome o;
  o.detail.set("specs", spec_list_json(specs));

  // Set-up: generate the Table-1 graph at the specs' scale, seeded by the
  // workload seed (api::build_dataset pins a named dataset's own seed, so
  // the same generation is called with the seed overridden).
  auto cfg = pipad::graph::dataset_by_name(dataset, specs[0].scale_large,
                                           specs[0].scale_small);
  cfg.seed = mix(a.seed, 2);
  std::vector<double> setup;
  pipad::graph::DTDG g;
  for (int i = 0; i < 5; ++i) {
    perfbench::Scope span(tr, "graph.generate");
    const double t0 = now_s();
    g = pipad::graph::generate(cfg, &pool.pool());
    setup.push_back(now_s() - t0);
  }

  // Measure: rounds over every (model, runtime) until the time is up, at
  // least two so repeats can be compared. A traced run spends half its
  // time untraced (the overhead reference) and then traces one round.
  const double t_start = now_s();
  const double budget = a.trace ? a.seconds / 2.0 : a.seconds;
  std::map<std::string, std::vector<float>> first_losses;
  ModelClock clock;
  std::vector<double> latencies, round_walls;
  std::map<std::string, std::vector<double>> kind_latency;  ///< Per run_key.
  std::map<std::string, std::vector<double>> kind_cpu;      ///< Per run_key.
  std::map<std::string, std::vector<double>> train_s;  ///< PiPAD, per model.
  std::map<std::string, double> frames;                ///< PiPAD, per model.
  auto check_run = [&](const Run& r) {
    const std::string key = run_key(r.spec);
    bool ok = finite_losses(r.result.frame_loss);
    auto it = first_losses.find(key);
    if (it == first_losses.end()) {
      first_losses[key] = r.result.frame_loss;
    } else {
      ok = ok && same_bits(it->second, r.result.frame_loss);
    }
    checks.record(ok, key + ": frame losses not finite or not repeatable");
  };
  while (round_walls.size() < 2 || now_s() - t_start < budget) {
    const double r0 = now_s();
    for (const auto& s : specs) {
      const Run r = train_one(s, g, nullptr, false);
      check_run(r);
      latencies.push_back(r.construct_s + r.train_s);
      kind_latency[run_key(s)].push_back(latencies.back());
      kind_cpu[run_key(s)].push_back(r.cpu_s);
      clock.epoch_ms[run_key(s)].push_back(sim_epoch_ms(r));
      if (s.runtime == "pipad") {
        frames[s.model] = static_cast<double>(r.result.frame_loss.size());
        train_s[s.model].push_back(r.train_s);
      }
    }
    round_walls.push_back(now_s() - r0);
  }
  // Throughputs from per-model / per-round medians, so a burst of
  // interference from outside the process moves them less than a mean.
  double frames_total = 0, train_total = 0;
  for (const auto& [model, t] : train_s) {
    frames_total += frames[model];
    train_total += perfbench::median(t);
  }
  // A run holds only a handful of calls per kind, too few for a sample p90
  // (the detail line's tail rule shows it), so the latency percentiles are
  // taken over the per-kind median latencies, and jobs_per_s is the kinds
  // over the sum of those medians.
  std::vector<double> kind_median;
  double kind_total = 0, kind_cpu_total = 0;
  for (const auto& [key, v] : kind_latency) {
    kind_median.push_back(perfbench::median(v));
    kind_total += kind_median.back();
    kind_cpu_total += perfbench::median(kind_cpu[key]);
  }

  bool clock_repeats = true;
  for (const auto& [key, v] : clock.epoch_ms) {
    for (const double x : v) clock_repeats = clock_repeats && x == v.front();
  }
  o.detail.set("rounds", static_cast<int>(round_walls.size()));
  o.detail.set("model_clock_repeats_exactly", clock_repeats);
  Json per_model = Json::object();
  for (const auto& [key, v] : clock.epoch_ms) {
    per_model.set(key + ".sim_epoch_ms", perfbench::median(v));
  }
  o.detail.set("sim_epoch_ms_by_model", per_model);
  o.detail.set("job_latency", latency_detail(latencies));

  if (!a.trace) {
    auto& m = o.metrics;
    m.push_back({"setup_s", {perfbench::median(setup), "s"}});
    m.push_back(
        {"train_frames_per_s", {frames_total / train_total, "frames/s"}});
    m.push_back({"sim_epoch_ms", {clock.pipad_geomean(models), "ms"}});
    m.push_back({"speedup_vs_pygt", {clock.speedup_geomean(models), "ratio"}});
    m.push_back({"jobs_per_s", {kind_median.size() / kind_total, "jobs/s"}});
    m.push_back({"job_latency_p50_s",
                 {perfbench::percentile(kind_median, 50), "s"}});
    m.push_back({"job_latency_p90_s",
                 {perfbench::percentile(kind_median, 90), "s"}});
    m.push_back({"job_cpu_ms",
                 {kind_cpu_total * 1000.0 / kind_median.size(), "ms"}});
    m.push_back({"peak_rss_mb", {vm_hwm_mb("self"), "MB"}});
    return o;
  }

  // Traced round, then one probe per remaining layer.
  auto& m = o.metrics;
  std::vector<Run> runs;
  double traced_wall = 0;
  {
    perfbench::Scope root(tr, "round");
    const double r0 = now_s();
    for (const auto& s : specs) {
      runs.push_back(train_one(s, g, tr, s.runtime == "pipad"));
      check_run(runs.back());
    }
    traced_wall = now_s() - r0;
  }
  m.push_back({"trace.overhead_frac",
               {traced_wall / perfbench::median(round_walls) - 1.0, "ratio"}});
  m.push_back({"graph.generate_s", {perfbench::median(setup), "s"}});

  const std::string io_path = a.work_dir + "/io-" + a.workload + ".txt.gz";
  write_edge_list_gz(prefix_of(g, specs[0].frame_size), io_path);
  probe_io(tr, {{io_path, ""}}, g.feat_dim, specs[0].seed, m);
  probe_kernels(tr, g, specs[0], m);

  Run replica;
  {
    perfbench::Scope span(tr, "replica.train");
    replica.spec = specs[0];
    replica.spec.replicas = 2;
    replica.gpu = std::make_unique<pipad::gpusim::Gpu>();
    auto popts = pipad::api::pipad_options(replica.spec);
    const double t0 = now_s();
    const auto tcfg = pipad::api::train_config(replica.spec);
    replica.result =
        pipad::replica::ReplicaTrainer(*replica.gpu, g, tcfg, popts).train();
    replica.train_s = now_s() - t0;
    checks.record(finite_losses(replica.result.frame_loss),
                  "replica losses not finite");
  }
  layer_metrics_from_runs(tr, runs, replica, m, o.detail);
  probe_api(tr, specs, runs[0], checks, m);

  // An in-process daemon surface for the wire round trip.
  pipad::serve::SessionOptions so;
  so.threads = width;
  pipad::serve::Session session(so);
  pipad::serve::WireServer server(session, a.work_dir + "/rtt.sock");
  probe_serve(tr, specs, server.socket_path(), checks, m);
  session.shutdown();
  server.stop();
  return o;
}

// ---- serve-mixed: the real daemon under a closed loop of small file jobs

constexpr int kServeFiles = 4;
constexpr int kServeSpecs = 16;
const std::vector<std::string> kAllModels = {"gcn", "tgcn", "evolvegcn",
                                             "mpnn-lstm"};

struct ServeSetup {
  std::string dir;
  std::vector<std::string> files;
  std::vector<JobSpec> specs;           ///< The distinct job kinds.
  std::vector<std::vector<float>> ref;  ///< Reference losses per kind.
  std::vector<int> order;               ///< Seeded submit order (kinds).
  double generate_s = 0.0;
};

ServeSetup serve_setup(const Args& a, perfbench::Tracer* tr, Checks& checks) {
  ServeSetup s;
  const int width = pool_width();
  pipad::ComputePool::instance().configure(static_cast<std::size_t>(width));
  s.dir = a.work_dir + "/serve-" + std::to_string(a.seed);
  fs::remove_all(s.dir);
  fs::create_directories(s.dir + "/cache");
  fs::create_directories(s.dir + "/ref-cache");

  // Seeded, generated, gzip'd edge-list inputs.
  for (int i = 0; i < kServeFiles; ++i) {
    pipad::graph::DatasetConfig cfg;
    cfg.name = "serve" + std::to_string(i);
    cfg.num_nodes = 2000;
    cfg.raw_events = 16000;
    cfg.num_snapshots = 24;
    cfg.feat_dim = 2;
    cfg.edge_life = 4.0;
    cfg.seed = mix(a.seed, 100 + i);
    perfbench::Scope span(tr, "graph.generate");
    const double t0 = now_s();
    const auto g = pipad::graph::generate(
        cfg, &pipad::ComputePool::instance().pool());
    s.generate_s += now_s() - t0;
    s.files.push_back(s.dir + "/" + cfg.name + ".txt.gz");
    write_edge_list_gz(g, s.files.back());
  }

  // The job mix, 16 kinds: every model under PiPAD and PyGT, with and
  // without the shared cache dir. The no-cache PiPAD kinds run
  // --replicas 2 and four kinds run the analyzer (a quarter each); tenants
  // at priorities 8/4/2 rotate over the kinds. This structure is the same
  // for every seed, so each seed exercises the same proportions; the seed
  // draws the inputs, the input file of each kind and the submit order.
  const int rotation = static_cast<int>(mix(a.seed, 3) % kServeFiles);
  const std::pair<const char*, int> tenants[] = {
      {"tenant-hi", 8}, {"tenant-mid", 4}, {"tenant-lo", 2}};
  for (int k = 0; k < kServeSpecs; ++k) {
    const int group = k / 4;  // 0: PiPAD+cache, 1: PiPAD replicas,
                              // 2: PyGT+cache, 3: PyGT.
    JobSpec j;
    j.model = kAllModels[static_cast<std::size_t>(k % 4)];
    j.runtime = group < 2 ? "pipad" : "pygt";
    // PiPAD and PyGT kinds of a model read the same file, so the model
    // clocks compare like with like; the rotation is seeded.
    const int file = (k % 4 + rotation + 2 * (group % 2)) % kServeFiles;
    j.dataset = "file:" + s.files[static_cast<std::size_t>(file)];
    j.threads = width;
    j.seed = mix(a.seed, 4);
    j.cache_dir = group % 2 == 0 ? s.dir + "/cache" : "";
    j.replicas = group == 1 ? 2 : 0;
    j.run_analyzer = (group == 0 && k % 4 >= 2) || (group == 3 && k % 4 < 2);
    const auto& t = tenants[k % 3];
    j.tenant = t.first;
    j.priority = t.second;
    j.tag = "kind-" + std::to_string(k);
    s.specs.push_back(j);
  }
  for (const auto& j : s.specs) {
    const std::string err = j.validate();
    if (!err.empty()) throw std::runtime_error("bad serve spec: " + err);
  }

  // Reference losses: each kind once, in-process, before the daemon runs
  // (on a private cache dir, so the daemon's shared cache starts cold).
  for (const auto& j : s.specs) {
    JobSpec r = j;
    if (!r.cache_dir.empty()) r.cache_dir = s.dir + "/ref-cache";
    perfbench::Scope span(tr, "setup.reference_run_job", j.tag);
    const auto out = pipad::api::run_job(r);
    checks.record(finite_losses(out.train.frame_loss),
                  j.tag + ": reference losses not finite");
    s.ref.push_back(out.train.frame_loss);
  }

  // Submit order: seeded permutations of the kinds, back to back.
  for (int cycle = 0; cycle < 256; ++cycle) {
    std::vector<int> perm(kServeSpecs);
    for (int k = 0; k < kServeSpecs; ++k) perm[k] = k;
    pipad::Rng pr(mix(a.seed, 1000 + cycle));
    for (int k = kServeSpecs - 1; k > 0; --k) {
      std::swap(perm[k], perm[pr.next_below(k + 1)]);
    }
    s.order.insert(s.order.end(), perm.begin(), perm.end());
  }
  return s;
}

/// What one served job returned, as the client saw it.
struct Served {
  int kind = 0;
  double done_s = 0.0;  ///< now_s() at completion.
  double latency_s = 0.0;
  double epoch_us = 0.0;
  std::size_t frames = 0;
};

/// Closed loop: 4 client connections, each submitting the next kind of
/// `order` and waiting for its result, until the order is used up or the
/// deadline passes (in-flight jobs complete).
std::vector<Served> serve_load(const ServeSetup& s, const std::string& socket,
                               const std::vector<int>& order, double deadline,
                               perfbench::Tracer* tr, Checks& checks) {
  std::atomic<std::size_t> next{0};
  std::mutex mu;
  std::vector<Served> served;
  const int parent = tr != nullptr ? tr->current() : -1;
  auto client = [&] {
    std::unique_ptr<pipad::serve::WireClient> c;
    try {
      c = std::make_unique<pipad::serve::WireClient>(socket);
    } catch (const std::exception& e) {
      checks.record(false, std::string("connect: ") + e.what());
      return;
    }
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= order.size() || now_s() >= deadline) return;
      const int kind = order[i];
      const JobSpec& spec = s.specs[static_cast<std::size_t>(kind)];
      Json sub = Json::object();
      sub.set("op", "submit");
      sub.set("spec", spec.to_json());
      const double ts = tr != nullptr ? tr->now() : 0.0;
      const double t0 = now_s();
      try {
        const Json r = c->request(sub);
        const Json* ok = r.find("ok");
        if (ok == nullptr || !ok->as_bool()) {
          const Json* e = r.find("error");
          checks.record(false, "refused: " + (e ? e->dump() : r.dump()));
          continue;
        }
        const Json* id = r.find("id");
        if (id == nullptr || !id->is_number()) {
          checks.record(false, "submit reply without an id: " + r.dump());
          continue;
        }
        Json w = Json::object();
        w.set("op", "wait");
        w.set("id", id->as_number());
        const double tw = tr != nullptr ? tr->now() : 0.0;
        const Json res = c->request(w);
        const double t1 = now_s();
        pipad::api::JobResult jr;
        std::string err;
        const Json* body = res.find("result");
        const bool parsed = body != nullptr &&
                            pipad::api::JobResult::from_json(*body, jr, err);
        const bool ok_job =
            parsed && jr.state == "done" && finite_losses(jr.frame_loss) &&
            same_bits(jr.frame_loss, s.ref[static_cast<std::size_t>(kind)]);
        checks.record(ok_job, spec.tag + ": served result " +
                                  (parsed ? jr.state + " " + jr.error
                                          : "unparseable " + err) +
                                  " or losses differ from run_job");
        if (tr != nullptr) {
          const double te = tr->now();
          const std::string req = spec.tag + "#" + std::to_string(i);
          tr->add({"wire.submit", ts, tw, parent, req});
          tr->add({"wire.wait", tw, te, parent, req});
        }
        if (!ok_job) continue;
        Served sv;
        sv.kind = kind;
        sv.done_s = t1;
        sv.latency_s = t1 - t0;
        sv.frames = jr.frame_loss.size();
        if (const Json* e = jr.record.find("epoch_us")) {
          sv.epoch_us = e->as_number();
        }
        std::lock_guard<std::mutex> lk(mu);
        served.push_back(sv);
      } catch (const std::exception& e) {
        checks.record(false, spec.tag + ": wire error: " + e.what());
        return;
      }
    }
  };
  std::vector<std::thread> clients;
  for (int i = 0; i < 4; ++i) clients.emplace_back(client);
  for (auto& t : clients) t.join();
  return served;
}

Outcome run_serve(const Args& a, perfbench::Tracer* tr, Checks& checks) {
  Outcome o;
  ServeSetup s = serve_setup(a, tr, checks);
  // Declared before the daemon, so the daemon has stopped by the time the
  // run's inputs and caches are removed.
  struct RemoveDir {
    std::string path;
    ~RemoveDir() {
      std::error_code ec;
      fs::remove_all(path, ec);
    }
  } cleanup{s.dir};
  o.detail.set("specs", spec_list_json(s.specs));

  // setup_s: daemon launch until the first successful reply, nine times;
  // the last daemon serves the load.
  std::vector<double> setup;
  std::unique_ptr<Daemon> d;
  const std::string log = s.dir + "/daemon.log";
  for (int i = 0; i < 9; ++i) {
    d.reset();
    perfbench::Scope span(tr, "serve.daemon_start");
    d = std::make_unique<Daemon>(a.pipad_bin,
                                 s.dir + "/d" + std::to_string(i) + ".sock",
                                 pool_width(), log);
    setup.push_back(d->wait_ready(30.0));
  }
  // Fill the shared cache before timing: one PiPAD+cache kind per input
  // file (kinds 0-3 read four different files).
  {
    perfbench::Scope span(tr, "serve.cache_warmup");
    serve_load(s, d->socket(), {0, 1, 2, 3}, now_s() + 1e9, nullptr, checks);
  }

  if (!a.trace) {
    const double t0 = now_s();
    const double cpu0 = d->cpu_s();
    const auto served =
        serve_load(s, d->socket(), s.order, t0 + a.seconds, nullptr, checks);
    const double cpu = d->cpu_s() - cpu0;
    const double rss = d->peak_rss_mb();
    d.reset();
    // Throughputs are medians over four windows of equal job counts, so a
    // burst of interference from outside the process moves them less.
    ModelClock clock;
    std::vector<double> lat;
    std::vector<std::pair<double, double>> done;  // (time, PiPAD frames)
    for (const auto& sv : served) {
      const JobSpec& j = s.specs[static_cast<std::size_t>(sv.kind)];
      lat.push_back(sv.latency_s);
      if (sv.done_s <= t0 + a.seconds) {
        done.push_back({sv.done_s, j.runtime == "pipad"
                                       ? static_cast<double>(sv.frames)
                                       : 0.0});
      }
      // Like for like: both runtimes on the shared cache, single device.
      if (j.replicas == 0 && !j.cache_dir.empty()) {
        clock.epoch_ms[run_key(j)].push_back(sv.epoch_us / 1000.0);
      }
    }
    std::sort(done.begin(), done.end());
    constexpr std::size_t kWindows = 4;
    std::vector<double> jobs_in, frames_in;
    double prev = t0;
    for (std::size_t w = 0; w < kWindows; ++w) {
      const std::size_t lo = done.size() * w / kWindows;
      const std::size_t hi = done.size() * (w + 1) / kWindows;
      if (hi == lo) continue;
      const double dt = done[hi - 1].first - prev;
      if (dt <= 0) continue;
      double frames = 0;
      for (std::size_t i = lo; i < hi; ++i) frames += done[i].second;
      jobs_in.push_back(static_cast<double>(hi - lo) / dt);
      frames_in.push_back(frames / dt);
      prev = done[hi - 1].first;
    }
    o.detail.set("job_latency", latency_detail(lat));
    auto& m = o.metrics;
    m.push_back({"setup_s", {perfbench::median(setup), "s"}});
    m.push_back(
        {"train_frames_per_s", {perfbench::median(frames_in), "frames/s"}});
    m.push_back({"sim_epoch_ms", {clock.pipad_geomean(kAllModels), "ms"}});
    m.push_back(
        {"speedup_vs_pygt", {clock.speedup_geomean(kAllModels), "ratio"}});
    m.push_back({"jobs_per_s", {perfbench::median(jobs_in), "jobs/s"}});
    m.push_back({"job_latency_p50_s", {perfbench::percentile(lat, 50), "s"}});
    m.push_back({"job_latency_p90_s", {perfbench::percentile(lat, 90), "s"}});
    m.push_back({"job_cpu_ms",
                 {served.empty() ? 0.0 : cpu * 1000.0 / served.size(), "ms"}});
    m.push_back({"peak_rss_mb", {rss, "MB"}});
    return o;
  }

  // Traced: one batch of every kind, untraced twice (the overhead
  // reference) and traced once; then in-process runs and layer probes.
  auto& m = o.metrics;
  const std::vector<int> batch(s.order.begin(), s.order.begin() + kServeSpecs);
  std::vector<double> batch_walls;
  for (int i = 0; i < 2; ++i) {
    const double t0 = now_s();
    serve_load(s, d->socket(), batch, t0 + 1e9, nullptr, checks);
    batch_walls.push_back(now_s() - t0);
  }
  double traced_wall = 0;
  {
    perfbench::Scope root(tr, "batch");
    const double t0 = now_s();
    serve_load(s, d->socket(), batch, t0 + 1e9, tr, checks);
    traced_wall = now_s() - t0;
  }
  m.push_back({"trace.overhead_frac",
               {traced_wall / perfbench::median(batch_walls) - 1.0, "ratio"}});
  m.push_back({"graph.generate_s", {s.generate_s, "s"}});

  // graph.io over every kind's input, the shared-cache kinds on a fresh
  // cache dir of the probe's own.
  const std::string io_cache = s.dir + "/io-cache";
  fs::create_directories(io_cache);
  std::vector<IoLoad> loads;
  for (const auto& j : s.specs) {
    loads.push_back({pipad::graph::io::file_dataset_path(j.dataset),
                     j.cache_dir.empty() ? "" : io_cache});
  }
  probe_io(tr, loads, s.specs[0].feat_dim, s.specs[0].seed, m);

  // In-process PiPAD/PyGT runs of every model on the first input.
  JobSpec base = s.specs[0];
  base.dataset = "file:" + s.files[0];
  base.cache_dir.clear();
  base.replicas = 0;
  base.run_analyzer = false;
  const auto built = pipad::api::build_dataset(base);
  std::vector<Run> runs;
  std::vector<JobSpec> train_specs;
  {
    perfbench::Scope root(tr, "round");
    for (const auto& model : kAllModels) {
      for (const char* rt : {"pipad", "pygt"}) {
        JobSpec j = base;
        j.model = model;
        j.runtime = rt;
        train_specs.push_back(j);
        runs.push_back(train_one(j, built.data, tr, j.runtime == "pipad"));
        checks.record(finite_losses(runs.back().result.frame_loss),
                      run_key(j) + ": in-process losses not finite");
      }
    }
  }
  probe_kernels(tr, built.data, base, m);

  Run replica;
  {
    // The --replicas 2 kinds through api::run_job (the first one keeps its
    // simulated device for the analyzer).
    perfbench::Scope span(tr, "replica.run_job");
    for (const auto& j : s.specs) {
      if (j.replicas == 0) continue;
      JobSpec r = j;
      r.cache_dir.clear();
      r.run_analyzer = false;
      const double t0 = now_s();
      const auto data = pipad::api::build_dataset(r);
      auto gpu = std::make_unique<pipad::gpusim::Gpu>();
      const auto out = pipad::api::run_method(r, r.runtime, *gpu, data);
      replica.train_s += now_s() - t0;
      replica.result.allreduce_us += out.train.allreduce_us;
      replica.result.total_us += out.train.total_us;
      if (!replica.gpu) replica.gpu = std::move(gpu);
      checks.record(finite_losses(out.train.frame_loss),
                    j.tag + ": replica losses not finite");
    }
  }
  layer_metrics_from_runs(tr, runs, replica, m, o.detail);
  probe_api(tr, s.specs, runs[0], checks, m);
  probe_serve(tr, s.specs, d->socket(), checks, m);
  d.reset();
  return o;
}

/// Every per-layer metric, in BENCHMARK.json order.
const std::vector<std::string> kPerLayer = {
    "trace.overhead_frac",
    "graph.generate_s",
    "graph.io.load_s",
    "graph.io.inflate_s",
    "graph.io.parse_s",
    "graph.io.build_s",
    "graph.io.cache_hit_frac",
    "graph.io.mb_per_s",
    "sliced.build_partition_ms",
    "tensor.gemm_gflops",
    "kernels.agg_sliced_medges_per_s",
    "pipad.train_s",
    "pipad.sim_epoch_ms",
    "pipad.sper_mean",
    "pipad.first_steady_ms",
    "baselines.train_s",
    "baselines.sim_epoch_ms",
    "host.compute_charge_ms",
    "host.prep_ms",
    "host.wait_share",
    "gpusim.compute_busy_ms",
    "gpusim.h2d_busy_ms",
    "gpusim.d2h_share",
    "gpusim.kernel_launches",
    "gpusim.sm_util",
    "gpusim.device_active",
    "analyze.crit_share.cpu",
    "analyze.crit_share.cpu_worker",
    "analyze.crit_share.h2d",
    "analyze.crit_share.compute",
    "analyze.crit_share.d2h",
    "analyze.crit_share.link",
    "analyze.analyze_ms",
    "common.steals",
    "replica.train_s",
    "replica.allreduce_share",
    "api.spec_roundtrip_us",
    "api.result_json_us",
    "serve.queue_wait_s.p50",
    "serve.queue_wait_s.p90",
    "serve.run_s.p50",
    "serve.overhead_ms",
    "serve.wire_rtt_ms",
};

/// Sum of self time per span name, and the spans written to `path`.
Json write_trace(const perfbench::Tracer& tr, const std::string& path) {
  const auto spans = tr.spans();
  const auto self = perfbench::self_times(spans);
  std::map<std::string, std::pair<double, double>> by_name;  // total, self
  Json arr = Json::array();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    by_name[s.name].first += s.end - s.start;
    by_name[s.name].second += self[i];
    Json j = Json::object();
    j.set("name", s.name);
    j.set("start_s", s.start);
    j.set("end_s", s.end);
    j.set("parent", s.parent);
    j.set("req", s.req);
    j.set("self_s", self[i]);
    arr.push_back(j);
  }
  std::ofstream(path) << arr.dump() << "\n";
  Json summary = Json::object();
  for (const auto& [name, ts] : by_name) {
    Json e = Json::object();
    e.set("total_s", ts.first);
    e.set("self_s", ts.second);
    summary.set(name, e);
  }
  return summary;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  std::string err;
  if (!parse_args(argc, argv, a, err)) {
    std::fprintf(stderr, "perfbench: %s\n", err.c_str());
    return 2;
  }
  try {
    fs::create_directories(a.work_dir);
    perfbench::Tracer tracer;
    perfbench::Tracer* tr = a.trace ? &tracer : nullptr;
    Checks checks;
    Outcome o;
    if (a.workload == "train-device") {
      o = run_train(a, tr, checks, "flickr",
                    {"tgcn", "evolvegcn", "mpnn-lstm"});
    } else if (a.workload == "train-host") {
      o = run_train(a, tr, checks, "hepth", {"tgcn"});
    } else {
      o = run_serve(a, tr, checks);
    }

    const double success =
        checks.attempted > 0
            ? static_cast<double>(checks.attempted - checks.failed) /
                  checks.attempted
            : 0.0;
    Metrics out;
    if (!a.trace) {
      out = o.metrics;
      out.push_back({"success_frac", {success, "ratio"}});
    } else {
      for (const auto& name : kPerLayer) {
        const auto it =
            std::find_if(o.metrics.begin(), o.metrics.end(),
                         [&](const auto& e) { return e.first == name; });
        if (it == o.metrics.end()) {
          throw std::runtime_error("no metric " + name);
        }
        out.push_back(*it);
      }
      const std::string path = a.work_dir + "/trace-" + a.workload + "-" +
                               std::to_string(a.seed) + ".json";
      o.detail.set("span_summary", write_trace(tracer, path));
      o.detail.set("trace_file", path);
    }

    Json manifest = Json::object();
    manifest.set("workload", a.workload);
    manifest.set("seed", static_cast<unsigned long long>(a.seed));
    manifest.set("seconds", a.seconds);
    manifest.set("trace", a.trace);
    manifest.set("git_sha", a.git_sha);
    manifest.set("source_digest", a.source_digest);
    manifest.set("compiler", PERFBENCH_COMPILER);
    manifest.set("build_type", PERFBENCH_BUILD_TYPE);
    manifest.set("nproc",
                 static_cast<int>(std::thread::hardware_concurrency()));
    manifest.set("pool_width", pool_width());
    manifest.set("min_block_work",
                 static_cast<unsigned long>(
                     pipad::ComputePool::min_block_work()));
    Json errors = Json::array();
    for (const auto& e : checks.errors) errors.push_back(e);
    Json info = Json::object();
    info.set("manifest", manifest);
    info.set("detail", o.detail);
    info.set("errors", errors);
    std::printf("%s\n", info.dump().c_str());

    Json result = Json::object();
    result.set("correct", checks.failed == 0 && checks.attempted > 0);
    result.set("attempted", static_cast<long long>(checks.attempted));
    result.set("failed", static_cast<long long>(checks.failed));
    result.set("metrics", metrics_json(out));
    std::printf("%s\n", result.dump().c_str());
    std::fflush(stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
