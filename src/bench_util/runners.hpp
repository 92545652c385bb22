#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "comm/communicator.hpp"
#include "comm/registry.hpp"
#include "comm/topology.hpp"
#include "engine/aggregate.hpp"
#include "engine/cluster.hpp"
#include "engine/rdd.hpp"
#include "ml/workload.hpp"
#include "net/cluster.hpp"
#include "obs/export.hpp"
#include "sim/simulator.hpp"

/// \file runners.hpp
/// Shared experiment runners for the bench binaries: point-to-point
/// latency/throughput measurements, reduce-scatter timing, the Figure 16
/// aggregation micro-benchmark (summing an RDD of long arrays), and
/// end-to-end workload runs.

namespace sparker::bench {

using Vec = std::vector<std::int64_t>;

enum class CommBackend { kScalable, kBlockManager, kMpi };

inline const net::LinkParams& link_of(const net::ClusterSpec& spec,
                                      CommBackend b) {
  switch (b) {
    case CommBackend::kScalable:
      return spec.sc_link;
    case CommBackend::kBlockManager:
      return spec.bm_link;
    case CommBackend::kMpi:
      return spec.mpi_link;
  }
  return spec.sc_link;
}

inline const char* name_of(CommBackend b) {
  switch (b) {
    case CommBackend::kScalable:
      return "SC";
    case CommBackend::kBlockManager:
      return "BM";
    case CommBackend::kMpi:
      return "MPI";
  }
  return "?";
}

/// One-way small-message latency between two executors on different hosts,
/// in microseconds (Figure 12's measurement).
double p2p_latency_us(const net::ClusterSpec& spec, CommBackend backend);

/// Sustained one-directional throughput between a pair of executors with
/// `parallelism` channels, in MB/s (Figure 13's measurement). `bytes` is
/// the per-message modeled size; `messages` are sent back-to-back per
/// channel.
double p2p_throughput_mbps(const net::ClusterSpec& spec, CommBackend backend,
                           int parallelism, std::uint64_t bytes,
                           int messages = 32, bool gc = true);

/// Ring (or MPI recursive-halving) reduce-scatter wall time in seconds for
/// `executors` executors spread over the spec's nodes (Figures 14/15).
struct RsOptions {
  int executors = 48;
  int parallelism = 4;
  bool topology_aware = true;
  std::uint64_t message_bytes = 256ull << 20;
  CommBackend backend = CommBackend::kScalable;
  /// Collective algorithm, dispatched through comm::reduce_scatter.
  /// kRing is the scalable communicator's algorithm; kHalving and kPairwise
  /// model MPICH's reduce_scatter choices for short and long messages;
  /// kAuto asks the cost-model tuner.
  comm::AlgoId algo = comm::AlgoId::kRing;
};
double reduce_scatter_seconds(const net::ClusterSpec& spec, RsOptions opt);

/// The algorithm the tuner would pick for a reduce-scatter under `opt`
/// (what `algo = kAuto` resolves to) — benches report it next to timings.
comm::AlgoId rs_tuner_pick(const net::ClusterSpec& spec,
                           const RsOptions& opt);

/// The Figure 16 micro-benchmark: sum an RDD of fixed-length int64 arrays
/// (one partition per core, storage MEMORY_ONLY, preloaded). Returns
/// aggregation wall time in seconds for the given mode.
struct AggBenchResult {
  double total_s = 0;
  double compute_s = 0;
  double reduce_s = 0;
};
AggBenchResult aggregation_bench(const net::ClusterSpec& spec,
                                 engine::AggMode mode,
                                 std::uint64_t message_bytes,
                                 comm::AlgoId algo = comm::AlgoId::kRing);

/// End-to-end workload run (Figures 1/2/3/4/17/18). Returns the paper's
/// four-component decomposition plus total seconds.
struct E2eResult {
  double total_s = 0;
  obs::PhaseBreakdown breakdown;  ///< the drivers' own accounting.
  /// obs::phase_breakdown over the run's trace; set only when traced.
  std::optional<obs::PhaseBreakdown> traced;
};
struct E2eOptions {
  bool trace = false;       ///< record a trace (implied by trace_out).
  std::string trace_out;    ///< write Chrome trace JSON here when non-empty.
};
E2eResult run_e2e(const net::ClusterSpec& spec, engine::AggMode mode,
                  const ml::Workload& workload, int iterations,
                  const E2eOptions& opt = {});

/// AWS cluster resized to approximately `cores` total cores, mirroring the
/// paper's strong-scaling methodology (executors shrink to 4 cores for the
/// intra-node points; whole 96-core nodes are added beyond one node).
net::ClusterSpec aws_with_cores(int cores);

/// BIC cluster with the given node count (24 usable cores per node in the
/// paper's executor layout).
net::ClusterSpec bic_with_nodes(int nodes);

}  // namespace sparker::bench
