// Gradient all-reduce across K simulated devices: canonical numerics, a
// selectable timing model.
//
// The numeric reduction is ALWAYS the fixed-order serial sum (index order
// over the contributions, one float accumulator per element) — never the
// algorithm's own chunked arithmetic. A real ring all-reduce sums each
// chunk in a rotated order, which is deterministic for a fixed K but
// changes bits when K changes; since this repo's wall is "bit-identical
// results for any replica count", the algorithm choice only selects how
// the interconnect TIME is modeled:
//   ring  bandwidth-optimal: 2(K-1) steps, each moving bytes/K at
//         latency + (bytes/K)/BW  (reduce-scatter + all-gather).
//   tree  latency-optimal: 2*ceil(log2 K) steps, each moving the full
//         payload at latency + bytes/BW  (reduce-to-root + broadcast).
// Steps are charged back-to-back to each replica's Resource::Link lane as
// "comm:allreduce:<algo>" ops (replica_trainer.cpp).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace pipad::replica {

enum class AllReduceAlgo { Ring, Tree };

const char* allreduce_name(AllReduceAlgo a);

/// Parse "ring"/"tree". Returns false on anything else.
bool parse_allreduce(const std::string& s, AllReduceAlgo& out);

/// Interconnect model (NVLink-class defaults).
struct LinkModel {
  double latency_us = 5.0;
  double gb_per_s = 50.0;
};

/// Number of modeled interconnect steps for K replicas (0 when K <= 1: a
/// single replica never touches the link).
int allreduce_steps(AllReduceAlgo a, int replicas);

/// Payload bytes moved per step.
std::size_t allreduce_step_bytes(AllReduceAlgo a, int replicas,
                                 std::size_t bytes);

/// Duration of one step under the link model.
double allreduce_step_us(AllReduceAlgo a, int replicas, std::size_t bytes,
                         const LinkModel& link);

/// Total modeled all-reduce time for one payload (steps * step time).
double allreduce_total_us(AllReduceAlgo a, int replicas, std::size_t bytes,
                          const LinkModel& link);

/// Canonical numeric reduction: out[i] = (sum over parts in index order of
/// parts[j][i]) / parts.size(). The `algo` parameter is accepted — and
/// walled in by replica_test — precisely so the reduction can never grow
/// algorithm-dependent arithmetic: every algo must produce identical bits.
std::vector<float> reduce_mean(const std::vector<std::vector<float>>& parts,
                               AllReduceAlgo algo);

}  // namespace pipad::replica
