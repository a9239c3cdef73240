// Ablation: streaming steady-state prep under the S_per tuner.
//
//   (a) batch vs streaming steady-state extraction on a long timeline
//       (>= 64 snapshots): the batch extractor makes the first steady
//       frame wait for every partition; the streaming extractor only for
//       its own, so time-to-first-steady-frame (first_steady_us) drops.
//       The binary FAILS (exit 1) if streaming does not improve it.
//   (b) a determinism wall: losses and S_per decisions must be
//       bit-identical at --threads 1 vs 8. The binary FAILS (exit 1) on
//       any mismatch.
//
// --frames is ignored: the whole timeline is trained — the long-timeline
// first-frame latency is the point of the ablation.
#include <cstdio>
#include <map>
#include <vector>

#include "bench_util.hpp"

namespace {

pipad::graph::DatasetConfig long_timeline(int snapshots) {
  // Sized so the *real* per-partition overlap extraction is comparable to
  // the simulated device time of a frame: on a small graph extraction is
  // microseconds and never reaches the critical path, and batch vs stream
  // would be indistinguishable. At this size the batch-vs-stream
  // first-steady margin is ~20% while the re-measured common terms (the
  // preparing epoch's charged prep/compute) drift only a few percent run
  // to run, so the hard gate below is not noise-limited.
  pipad::graph::DatasetConfig cfg;
  cfg.name = "synthetic-long";
  cfg.num_nodes = 16384;
  cfg.raw_events = 131072;
  cfg.num_snapshots = snapshots;
  cfg.feat_dim = 2;
  cfg.edge_life = 6.0;
  cfg.seed = 2023;
  return cfg;
}

std::string decisions_summary(const std::map<int, int>& dec) {
  std::map<int, int> hist;
  for (const auto& [start, s] : dec) hist[s]++;
  std::string out;
  for (const auto& [s, n] : hist) {
    if (!out.empty()) out += " ";
    out += "S=" + std::to_string(s) + "x" + std::to_string(n);
  }
  return out.empty() ? "-" : out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pipad;
  const auto flags = bench::Flags::parse(argc, argv);
  bench::JsonReport report("ablation_tuner", flags);

  const int snapshots = 64;
  bench::DatasetCache cache(flags);  // Configures the ComputePool.
  const auto g =
      graph::generate(long_timeline(snapshots), &ComputePool::instance().pool());

  auto tcfg = bench::train_config(flags, models::ModelType::TGcn);
  tcfg.max_frames_per_epoch = 0;  // Every frame of the long timeline.

  auto run_on = [&](gpusim::Gpu& gpu, const runtime::PipadOptions& o,
                    std::map<int, int>* dec) {
    runtime::PipadTrainer trainer(gpu, g, tcfg, o);
    const auto r = trainer.train();
    if (dec != nullptr) *dec = trainer.sper_decisions();
    return r;
  };
  auto run = [&](const runtime::PipadOptions& o, std::map<int, int>* dec) {
    gpusim::Gpu gpu;
    return run_on(gpu, o, dec);
  };

  std::printf(
      "Ablation: streaming steady prep "
      "(%d snapshots, frame size %d, epochs %d, T-GCN)\n\n",
      snapshots, flags.job.frame_size, flags.job.epochs);

  struct Variant {
    const char* method;
    runtime::PipadOptions opts;
  };
  std::vector<Variant> variants(2);
  variants[0].method = "PiPAD[batch]";
  variants[0].opts.stream_prep = false;
  variants[1].method = "PiPAD[stream]";
  for (auto& v : variants) v.opts.host_threads = flags.job.threads;

  std::printf("%-18s %12s %12s %14s  %s\n", "variant", "total us",
              "epoch us", "first-steady", "S_per decisions");
  std::vector<models::TrainResult> results;
  std::vector<std::map<int, int>> variant_decisions;
  for (const auto& v : variants) {
    std::map<int, int> dec;
    gpusim::Gpu gpu;
    const auto r = run_on(gpu, v.opts, &dec);
    report.add(g.name, "tgcn", v.method, r);
    bench::write_trace(flags, "ablation_tuner", gpu, g.name, "tgcn",
                       v.method);
    std::printf("%-18s %12.0f %12.0f %14.0f  %s\n", v.method, r.total_us,
                r.total_us / flags.job.epochs, r.first_steady_us,
                decisions_summary(dec).c_str());
    results.push_back(r);
    variant_decisions.push_back(std::move(dec));
  }

  int failures = 0;
  const double batch_fs = results[0].first_steady_us;
  const double stream_fs = results[1].first_steady_us;
  // The batch-vs-stream comparison is only structural with >= 2 worker
  // lanes: with a single lane there is no background lane for extraction
  // to overlap on — prep-epoch charges, extraction and steady compute all
  // serialize onto it, the margin collapses to the run-to-run noise of
  // that one measured lane, and the comparison is informational only.
  // Keyed on the *effective* pool width, not the flag: --threads=0 on a
  // single-core host also resolves to one lane.
  const bool single_lane = ComputePool::instance().pool().size() < 2;
  if (!single_lane && !(stream_fs < batch_fs)) {
    std::fprintf(stderr,
                 "FAIL: streaming prep did not improve time-to-first-steady-"
                 "frame (stream %.0f us vs batch %.0f us)\n",
                 stream_fs, batch_fs);
    ++failures;
  } else {
    std::printf(
        "\nstreaming prep: first steady frame %.2fx %s than the batch "
        "extractor%s\n",
        stream_fs < batch_fs ? batch_fs / stream_fs : stream_fs / batch_fs,
        stream_fs < batch_fs ? "sooner" : "later",
        single_lane ? " (informational with a single worker lane)" : "");
  }

  // (b) losses + decisions bit-identical across thread counts.
  {
    runtime::PipadOptions o1, o8;
    o1.host_threads = 1;
    o8.host_threads = 8;
    std::map<int, int> d1, d8;
    // When the binary ran at --threads=1 the variant table above already
    // trained this exact configuration; reuse it instead of training
    // twice. (CI pins --threads=2, where both sweeps run fresh.)
    models::TrainResult r1;
    if (flags.job.threads == 1) {
      r1 = results[1];
      d1 = variant_decisions[1];
    } else {
      r1 = run(o1, &d1);
    }
    const auto r8 = run(o8, &d8);
    bool ok = d1 == d8 && r1.frame_loss.size() == r8.frame_loss.size();
    if (ok) {
      for (std::size_t i = 0; i < r1.frame_loss.size(); ++i) {
        if (r1.frame_loss[i] != r8.frame_loss[i]) {  // Bitwise.
          ok = false;
          break;
        }
      }
    }
    if (!ok) {
      std::fprintf(stderr,
                   "FAIL: --threads 1 vs 8 diverged (losses and S_per "
                   "decisions must be bit-identical)\n");
      ++failures;
    } else {
      std::printf(
          "determinism: bit-identical at --threads 1 vs 8 (%zu frames, %s)\n",
          r1.frame_loss.size(), decisions_summary(d1).c_str());
    }
  }
  // Restore the flag-selected pool width after the 1/8 sweeps.
  ComputePool::instance().configure(
      flags.job.threads > 0 ? static_cast<std::size_t>(flags.job.threads) : 0);

  if (failures == 0) {
    std::printf(
        "\nShape check: streaming cuts first-steady-frame latency on long "
        "timelines without\nbreaking determinism.\n");
  }
  if (!report.write_if_requested()) return 1;
  return failures == 0 ? 0 : 1;
}
