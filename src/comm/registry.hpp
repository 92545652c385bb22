#pragma once

#include <cstdint>
#include <iterator>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/cluster.hpp"

/// \file registry.hpp
/// Pluggable collective-algorithm registry plus a cost-model auto-tuner.
///
/// The paper's parallel directed ring (Section 4.2) is one point in a family
/// of reduce-scatter/allreduce algorithms whose crossover depends on
/// aggregator bytes, executor count and link parameters. One constexpr table
/// (kAlgoTable) gives each algorithm name its ops, dataflow and encoding;
/// dispatch (comm::reduce_scatter and comm::allreduce, collectives.hpp),
/// names, aliasing and tuner pricing are derived from it. The
/// engine's split-aggregation stage loops pick the collective by AlgoId
/// instead of hardcoding the ring, and every algorithm inherits the
/// stage-level fault-retry/refold/backoff machinery and health-aware
/// membership for free.
///
/// The tuner (`pick_algo`) predicts per-algorithm cost from the same
/// latency/bandwidth/parallelism quantities the fabric simulation prices
/// (alpha-beta-gamma modeling in the SparCML tradition) and is validated
/// against the measured crossover curves of the fig14/fig15/fig16 benches
/// by tests/tuner_test.cpp.

namespace sparker::comm {

/// Collective operations the engine dispatches through the registry.
enum class CollectiveOp {
  kReduceScatter = 0,  ///< rank i ends up owning reduced segment(s).
  kAllreduce = 1,      ///< every rank ends up with the whole reduced value.
};

/// Named collective algorithms. Values are stable: they are recorded as the
/// integer `algo` attribute on trace spans, so renumbering would break
/// stored traces.
enum class AlgoId {
  kAuto = 0,          ///< resolved per call by the cost-model tuner.
  kRing = 1,          ///< paper's P-channel parallel directed ring.
  kHalving = 2,       ///< MPICH recursive halving (non-power-of-two fold).
  kPairwise = 3,      ///< MPICH pairwise exchange (all-to-all traffic).
  kRabenseifner = 4,  ///< ring reduce-scatter + ring allgather composition.
  kDriverFunnel = 5,  ///< flat funnel into rank 0 — the Spark-esque baseline.
  kSparseRing = 6,    ///< ring with SparCML-style index+value compression.
};

/// How a row moves data. Its reduce-scatter is the dataflow itself; its
/// allreduce adds the allgather that fits the dataflow's segment layout.
enum class Dataflow {
  kNone,      ///< kAuto's row: resolved by the tuner, never dispatched.
  kRing,      ///< P-channel ring; rank i owns P of the P*N segments.
  kHalving,   ///< recursive halving; rank i owns segment i of N.
  kPairwise,  ///< pairwise exchange; rank i owns segment i of N.
  kFunnel,    ///< whole values into rank 0; allreduce broadcasts back.
};

/// How a row's segments travel. The sparse encoding (SparCML index+value)
/// lives in the SegOps the engine builds, so it never changes the dataflow.
enum class Encoding { kDense, kSparse };

constexpr unsigned op_bit(CollectiveOp op) {
  return 1u << static_cast<unsigned>(op);
}

/// One row of the collective table.
struct AlgoRow {
  AlgoId id;
  const char* name;
  unsigned ops;  ///< op_bit() of every op the row is registered for.
  Dataflow flow;
  Encoding encoding;
  constexpr bool serves(CollectiveOp op) const {
    return (ops & op_bit(op)) != 0;
  }
};

inline constexpr unsigned kRsOp = op_bit(CollectiveOp::kReduceScatter);
inline constexpr unsigned kArOp = op_bit(CollectiveOp::kAllreduce);

/// The collective table, one row per AlgoId in enum order. Dispatch, names,
/// aliasing (canonical_algo) and tuner pricing all read it. `ring` and
/// `rabenseifner` are one (ring, dense) dataflow registered under a name
/// per op.
inline constexpr AlgoRow kAlgoTable[] = {
    {AlgoId::kAuto, "auto", 0, Dataflow::kNone, Encoding::kDense},
    {AlgoId::kRing, "ring", kRsOp, Dataflow::kRing, Encoding::kDense},
    {AlgoId::kHalving, "halving", kRsOp | kArOp, Dataflow::kHalving,
     Encoding::kDense},
    {AlgoId::kPairwise, "pairwise", kRsOp | kArOp, Dataflow::kPairwise,
     Encoding::kDense},
    {AlgoId::kRabenseifner, "rabenseifner", kArOp, Dataflow::kRing,
     Encoding::kDense},
    {AlgoId::kDriverFunnel, "driver_funnel", kRsOp | kArOp, Dataflow::kFunnel,
     Encoding::kDense},
    {AlgoId::kSparseRing, "sparse_ring", kRsOp | kArOp, Dataflow::kRing,
     Encoding::kSparse},
};
static_assert(
    [] {
      for (std::size_t i = 0; i < std::size(kAlgoTable); ++i) {
        if (static_cast<std::size_t>(kAlgoTable[i].id) != i) return false;
      }
      return true;
    }(),
    "kAlgoTable rows must follow AlgoId order");

constexpr const AlgoRow& algo_row(AlgoId id) {
  return kAlgoTable[static_cast<std::size_t>(id)];
}

const char* to_string(AlgoId id);
const char* to_string(CollectiveOp op);

/// Parses an algorithm name (any kAlgoTable name: "auto", "ring",
/// "halving", "pairwise", "rabenseifner", "driver_funnel", "sparse_ring");
/// nullopt on unknown names.
std::optional<AlgoId> parse_algo(std::string_view name);

/// All algorithm names, for --help text.
std::string algo_names();

/// The cost-model inputs: everything the tuner may consult, extracted from
/// the same LinkParams / FabricParams / CostRates the simulation prices.
struct CollectiveCostInputs {
  std::uint64_t bytes = 0;   ///< whole-aggregator modeled bytes per rank.
  int n = 1;                 ///< ranks participating.
  int parallelism = 1;       ///< P parallel channels (ring family only).
  int io_cores = 4;          ///< IO threads per rank (channels share them).
  int ranks_per_host = 1;    ///< co-located ranks (NIC sharing).
  double stream_bw = 340e6;  ///< per-connection stream cap, bytes/s.
  double nic_bw = 1185e6;    ///< host NIC line rate, bytes/s.
  double merge_bw = 3000e6;  ///< segment-merge memory bandwidth, bytes/s.
  /// Sparse codec scan bandwidth (encode gather / decode scatter), bytes/s.
  double codec_bw = 12000e6;
  bool jvm = true;           ///< JVM link: IO-thread copy on send and recv.
  double msg_overhead_s = 72e-6;  ///< per-message send+recv overhead+latency.
  /// Estimated nonzero fraction of the aggregator (1.0 = dense). Only the
  /// sparse-ring pricing consults it; without a real estimate the default
  /// keeps kSparseRing strictly dominated by kRing, so the tuner never
  /// picks compression blind.
  double density = 1.0;
};

/// Builds tuner inputs from a cluster spec and the link the collective will
/// run over (the engine wraps this with its own live-topology view).
CollectiveCostInputs cost_inputs(const net::ClusterSpec& spec,
                                 const net::LinkParams& link,
                                 std::uint64_t bytes, int n, int parallelism);

/// Predicted wall-clock seconds of one collective call. Not a simulator:
/// an analytic alpha-beta-gamma estimate whose only job is to rank the
/// registered algorithms correctly across the fig14/15/16 grids.
double predict_seconds(CollectiveOp op, AlgoId algo,
                       const CollectiveCostInputs& in);

/// The kAlgoTable rows registered for `op`, in enum order.
const std::vector<AlgoId>& registered_algos(CollectiveOp op);

/// The auto-tuner: argmin of predict_seconds over registered_algos(op).
/// Deterministic (ties break toward the lower enum value).
AlgoId pick_algo(CollectiveOp op, const CollectiveCostInputs& in);

/// Maps an AlgoId onto the row registered for `op` with the same dataflow
/// and encoding (so kRing and kRabenseifner alias each other across ops);
/// `id` itself if it is registered for `op` or has no such twin.
AlgoId canonical_algo(CollectiveOp op, AlgoId id);

/// canonical_algo, but throws std::invalid_argument unless the result is
/// registered for `op` (kAuto never is).
AlgoId registered_algo(CollectiveOp op, AlgoId id);

/// Resolves the user-facing setting to a dispatchable id: kAuto goes
/// through the tuner, everything else through registered_algo.
AlgoId resolve_algo(CollectiveOp op, AlgoId requested,
                    const CollectiveCostInputs& in);

/// resolve_algo with ring-re-formation hysteresis: when the configured
/// setting is kAuto and `previous` is the (concrete) algorithm the last
/// stage attempt ran, the incumbent is kept unless the tuner's fresh pick
/// for the new ring size is predicted >10% faster. A concrete configured
/// algorithm always wins, and `previous == kAuto` (no prior attempt) falls
/// back to a plain resolve.
AlgoId retune_algo(CollectiveOp op, AlgoId configured, AlgoId previous,
                   const CollectiveCostInputs& in);

}  // namespace sparker::comm
