// Dynamic S_per tuner (§4.4), extracted from the trainer so the decision
// logic is a pure function of its inputs and can be table-tested.
//
// The paper's tuner weighs three factors per frame:
//   1. a memory upper bound (never trigger OOM),
//   2. the offline parallel-speedup estimate (offline_analysis.hpp),
//   3. pipeline stalls: an option whose partition transfer takes longer
//      than the compute that could hide it stalls the pipeline. This is
//      folded into the bottleneck metric max(compute, transfer)/S_per,
//      priced by the analytic device model alone, so a transfer-dominated
//      option loses automatically.
#pragma once

#include <cstddef>

#include "gpusim/kernel_stats.hpp"
#include "pipad/offline_analysis.hpp"

namespace pipad::runtime {

/// Everything decide_sper needs, decoupled from the trainer's state.
struct TunerInputs {
  WorkloadShape shape;  ///< num_nodes/nnz already sim_scale-adjusted.
  int frame_size = 0;
  int forced_sper = 0;          ///< >0 bypasses the tuner.
  bool enable_pipeline = true;  ///< Off: transfers are synchronous and
                                ///< never enter the bottleneck metric.
  bool weight_reuse = true;
  bool needs_topology = true;   ///< Steady transfers ship topology too.
  double mean_pair_or = 1.0;    ///< Mean adjacent-snapshot overlap rate.
  std::size_t per_snapshot_mem = 0;
  std::size_t device_available = 0;  ///< Free device memory (bytes).
};

/// Estimated one-partition transfer time for an S_per option: the overlap
/// topology ships once per partition, exclusive remainders and features per
/// member (§4.1).
double partition_transfer_us(const gpusim::CostModel& cm,
                             const TunerInputs& in, int s_per,
                             double group_or);

/// Pick S_per for one frame from the finite option set {2, 4, 8} (§4.3),
/// falling back to 1. Deterministic given its inputs.
int decide_sper(const gpusim::CostModel& cm, const TunerInputs& in);

}  // namespace pipad::runtime
