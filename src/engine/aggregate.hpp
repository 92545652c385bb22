#pragma once

#include <any>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "engine/cluster.hpp"
#include "engine/rdd.hpp"
#include "sim/task.hpp"

/// \file aggregate.hpp
/// The aggregation paths the paper compares (Figure 16):
///
///  * `tree_aggregate`  — Spark's RDD.treeAggregate: a compute stage (one
///    task per partition, each result serialized), zero or more shuffle
///    combine rounds following Spark's exact partition-count schedule, and
///    a final serial reduce at the driver.
///  * the same with In-Memory Merge — the compute stage becomes a
///    *reduced-result stage*: task results merge into a shared per-executor
///    value before any serialization (paper Section 3.2), and the tree then
///    reduces one value per executor.
///  * `split_aggregate` — the paper's contribution (Section 3.1): a
///    reduced-result stage, then a SpawnRDD stage running ring
///    reduce-scatter over the scalable communicator, then a driver-side
///    collect + concatOp.
///
/// All paths execute the *real* user callbacks over real data; only time is
/// modeled. `bytes` callbacks return the modeled (paper-scale) wire size.
///
/// This header holds only the spec types and thin typed entry points. The
/// engine itself is ordinary code compiled once in aggregate.cpp: it runs
/// over an erased aggregator (U behind `std::shared_ptr<void>`) and segment
/// (V in `std::any`), and sees rows (T) only through the fold and cost
/// closures of `detail::ErasedSpec`. Engine logic does not go back here.

namespace sparker::engine {

/// User spec for tree aggregation (mirrors treeAggregate's callbacks, in
/// mutating form for C++ efficiency).
template <typename T, typename U>
struct TreeAggSpec {
  U zero{};
  /// seqOp: folds one row into an aggregator. A plain stage folds each
  /// partition into its own copy of `zero`. Under IMM (kTreeImm and the
  /// split stages) there is no task aggregator: rows fold straight into the
  /// executor's merged value, and no comb_op runs per task. A spec must
  /// therefore satisfy `fold(a, rows) == comb_op(a, fold(zero, rows))` for
  /// every aggregator `a` (Chen et al.'s law for Spark aggregation). Integer
  /// sums satisfy it exactly; double sums only up to rounding, because
  /// under IMM they add in row merge order within an executor — each
  /// absorbed partition's rows in order, partitions in the order their
  /// winning attempts take the merge lock — not one task sum at a time.
  /// The engine folds a partition only for the attempt that delivers its
  /// result, at the point that result is merged or shipped (under IMM,
  /// inside the executor's merge lock); losing speculative duplicates and
  /// failed attempts never fold. It must therefore be pure — a function of
  /// the aggregator and the row only — as CachedRdd generators must be.
  std::function<void(U&, const T&)> seq_op;
  std::function<void(U&, const U&)> comb_op;
  /// Modeled serialized size of an aggregator. The IMM merge of a task is
  /// priced from the executor's merged value, so this must depend on the
  /// aggregator's shape (its length), not on the rows it has absorbed.
  std::function<std::uint64_t(const U&)> bytes;
  /// Modeled compute time of folding one partition (the workload model).
  std::function<Duration(int pid, const std::vector<T>&)> partition_cost;
};

/// Additional callbacks for split aggregation (the SAI of Figure 6).
template <typename T, typename U, typename V>
struct SplitAggSpec {
  TreeAggSpec<T, U> base;
  /// splitOp: segment `i` of `n` from an aggregator. Collectives split on
  /// demand (see comm::SegOps::split), so it must be pure.
  std::function<V(const U&, int i, int n)> split_op;
  /// reduceOp on segments.
  std::function<void(V&, const V&)> reduce_op;
  /// concatOp: segments sorted by index -> whole result.
  std::function<V(std::vector<std::pair<int, V>>&)> concat_op;
  /// Modeled serialized size of a segment.
  std::function<std::uint64_t(const V&)> v_bytes;

  // Optional compression hooks (src/comp): all three absent = the dense
  // path, byte-for-byte as before. With them, the tuner prices the
  // compressed ring (the `sparse_ring` row of comm::kAlgoTable) against
  // the dense algorithms, and when a sparse row is dispatched the stage
  // re-encodes each freshly split segment density-optimally. The sparse path
  // runs inside the same stage loops, so it inherits fault retry,
  // membership boundaries and residual refold unchanged.
  /// Estimated nonzero fraction of an aggregator (the tuner's density
  /// input). Absent: density 1.0, which keeps the sparse ring dominated.
  std::function<double(const U&)> density_op;
  /// Re-encodes a split segment into its cheapest representation. Absent:
  /// segments ship exactly as split_op produced them, even on sparse_ring.
  std::function<V(V)> encode_op;
  /// Representation probe, for comp.switch trace attribution.
  std::function<bool(const V&)> is_sparse_op;
};

/// Timing/fault bookkeeping for one aggregation job.
struct AggMetrics {
  Time start = 0;
  Time compute_done = 0;  ///< end of the first (compute) stage.
  Time end = 0;
  int task_retries = 0;    ///< task-level retries (non-IMM path).
  int stage_restarts = 0;  ///< whole-stage restarts (IMM + ring stages).
  /// Attempts the SpawnRDD ring stage took (1 = fault-free).
  int ring_stage_attempts = 0;
  /// Simulated time lost to failed ring-stage attempts: wasted collective
  /// work, lost-partial recomputation, detection wait, backoff, and
  /// rescheduling.
  Duration recovery_time = 0;
  /// Speculative execution: duplicate attempts launched for straggling
  /// tasks, and how many of those duplicates finished before the original.
  int speculative_launches = 0;
  int speculative_wins = 0;

  Duration compute_time() const { return compute_done - start; }
  Duration reduce_time() const { return end - compute_done; }
  Duration total() const { return end - start; }
};

namespace detail {

/// One job's spec as the compiled engine sees it. Aggregators (`const
/// void*` / `std::shared_ptr<void>`) point at a U, segments (`std::any`)
/// hold a V. Each member wraps the user callback of the same role; an
/// absent optional hook stays an empty function.
struct ErasedSpec {
  int partitions = 0;
  std::function<int(int pid)> preferred_executor;
  std::function<Duration(int pid)> partition_cost;  ///< optional.
  /// seqOp over partition `pid`'s rows, in place into the aggregator
  /// `acc`: the one loop over a partition. An IMM stage folds straight into
  /// the executor's merged value; a plain stage folds into a copy of `zero`.
  std::function<void(void* acc, int pid)> fold_into;
  const void* zero = nullptr;
  std::function<std::shared_ptr<void>(const void*)> copy;
  std::function<void(void*, const void*)> comb;
  std::function<std::uint64_t(const void*)> bytes;
  // Split stages only.
  std::function<std::any(const void*, int i, int n)> split;
  std::function<void(std::any&, const std::any&)> reduce;
  std::function<std::any(std::vector<std::pair<int, std::any>>&)> concat;
  std::function<std::uint64_t(const std::any&)> v_bytes;
  std::function<double(const void*)> density;      ///< optional.
  std::function<std::any(std::any)> encode;        ///< optional.
  std::function<bool(const std::any&)> is_sparse;  ///< optional.
  /// Moves a V out of its std::any into a shared_ptr<V>: a split job's
  /// result, and split_allreduce's `result_key` replicas.
  std::function<std::shared_ptr<void>(std::any&&)> share;
};

template <typename U>
const U& as(const void* p) {
  return *static_cast<const U*>(p);
}

template <typename V>
V take(std::any& a) {
  return std::move(*std::any_cast<V>(&a));
}

/// Awaits a compiled job and moves its result out as an R.
template <typename R>
sim::Task<R> typed(sim::Task<std::shared_ptr<void>> job) {
  std::shared_ptr<void> out = co_await std::move(job);
  co_return std::move(*static_cast<R*>(out.get()));
}

template <typename T, typename U>
ErasedSpec erase(CachedRdd<T>& rdd, const TreeAggSpec<T, U>& spec) {
  ErasedSpec e;
  e.partitions = rdd.num_partitions();
  e.preferred_executor = [&rdd](int pid) {
    return rdd.preferred_executor(pid);
  };
  if (spec.partition_cost) {
    e.partition_cost = [&rdd, &spec](int pid) {
      return spec.partition_cost(pid, rdd.partition(pid));
    };
  }
  e.fold_into = [&rdd, &spec](void* acc, int pid) {
    U& agg = *static_cast<U*>(acc);
    for (const T& row : rdd.partition(pid)) spec.seq_op(agg, row);
  };
  e.zero = &spec.zero;
  e.copy = [](const void* u) -> std::shared_ptr<void> {
    return std::make_shared<U>(as<U>(u));
  };
  e.comb = [&spec](void* a, const void* b) {
    spec.comb_op(*static_cast<U*>(a), as<U>(b));
  };
  e.bytes = [&spec](const void* u) { return spec.bytes(as<U>(u)); };
  return e;
}

template <typename T, typename U, typename V>
ErasedSpec erase(CachedRdd<T>& rdd, const SplitAggSpec<T, U, V>& spec) {
  ErasedSpec e = erase(rdd, spec.base);
  e.split = [&spec](const void* u, int i, int n) -> std::any {
    return spec.split_op(as<U>(u), i, n);
  };
  e.reduce = [&spec](std::any& a, const std::any& b) {
    spec.reduce_op(*std::any_cast<V>(&a), *std::any_cast<V>(&b));
  };
  e.concat = [&spec](std::vector<std::pair<int, std::any>>& segs) -> std::any {
    std::vector<std::pair<int, V>> vs;
    vs.reserve(segs.size());
    for (auto& [i, v] : segs) vs.emplace_back(i, take<V>(v));
    return spec.concat_op(vs);
  };
  e.v_bytes = [&spec](const std::any& v) {
    return spec.v_bytes(*std::any_cast<V>(&v));
  };
  if (spec.density_op) {
    e.density = [&spec](const void* u) { return spec.density_op(as<U>(u)); };
  }
  if (spec.encode_op) {
    e.encode = [&spec](std::any v) -> std::any {
      return spec.encode_op(take<V>(v));
    };
  }
  if (spec.is_sparse_op) {
    e.is_sparse = [&spec](const std::any& v) {
      return spec.is_sparse_op(*std::any_cast<V>(&v));
    };
  }
  e.share = [](std::any&& v) -> std::shared_ptr<void> {
    return std::make_shared<V>(take<V>(v));
  };
  return e;
}

// The compiled jobs. Each owns its spec; each result points at a U (tree)
// or a V (split).
using Result = sim::Task<std::shared_ptr<void>>;
Result tree_aggregate(Cluster& cl, ErasedSpec spec, AggMetrics* metrics,
                      const JobOptions& opt);
Result split_aggregate(Cluster& cl, ErasedSpec spec, AggMetrics* metrics,
                       const JobOptions& opt);
Result split_allreduce(Cluster& cl, ErasedSpec spec, AggMetrics* metrics,
                       std::int64_t result_key, const JobOptions& opt);

}  // namespace detail

/// Spark's treeAggregate (optionally with IMM in the compute stage,
/// per `cluster.config().agg_mode`). Returns the fully reduced aggregator.
template <typename T, typename U>
sim::Task<U> tree_aggregate(Cluster& cl, CachedRdd<T>& rdd,
                            const TreeAggSpec<T, U>& spec,
                            AggMetrics* metrics = nullptr,
                            const JobOptions& opt = {}) {
  return detail::typed<U>(
      detail::tree_aggregate(cl, detail::erase(rdd, spec), metrics, opt));
}

/// Sparker's splitAggregate (paper Figure 6): reduced-result stage, then a
/// statically scheduled SpawnRDD stage running ring reduce-scatter over the
/// scalable communicator, then collect + concatOp at the driver.
///
/// The SpawnRDD stage is fault-tolerant at *stage* granularity: if a
/// collective fails (an executor dies mid-ring, or a severed channel times
/// a recv out), the surviving per-executor merged values from stage 1 are
/// kept, any partials lost with dead executors are recomputed onto
/// survivors, the communicator is rebuilt over the surviving topology, and
/// the whole ring stage re-runs after an exponential backoff — up to
/// `max_stage_attempts` times. Attempt counts and the simulated time lost
/// to recovery land in AggMetrics (and, cluster-lifetime, in the metrics
/// registry).
template <typename T, typename U, typename V>
sim::Task<V> split_aggregate(Cluster& cl, CachedRdd<T>& rdd,
                             const SplitAggSpec<T, U, V>& spec,
                             AggMetrics* metrics = nullptr,
                             const JobOptions& opt = {}) {
  return detail::typed<V>(
      detail::split_aggregate(cl, detail::erase(rdd, spec), metrics, opt));
}

/// Allreduce-flavoured split aggregation (extension; paper Section 6 notes
/// the driver becomes the new bottleneck once reduction scales — this
/// removes the driver from the data path entirely): a reduced-result
/// stage, then a Rabenseifner allreduce (ring reduce-scatter + ring
/// allgather) over the scalable communicator, leaving the fully reduced
/// value *resident on every executor*. The driver receives only a tiny
/// digest. If `result_key >= 0`, each executor's replica is stored in its
/// mutable object manager under that key, as a `std::shared_ptr<V>`, so
/// subsequent stages can use it without a broadcast. Fault tolerance is
/// split_aggregate's.
template <typename T, typename U, typename V>
sim::Task<V> split_allreduce(Cluster& cl, CachedRdd<T>& rdd,
                             const SplitAggSpec<T, U, V>& spec,
                             AggMetrics* metrics = nullptr,
                             std::int64_t result_key = -1,
                             const JobOptions& opt = {}) {
  return detail::typed<V>(detail::split_allreduce(
      cl, detail::erase(rdd, spec), metrics, result_key, opt));
}

}  // namespace sparker::engine
