#pragma once

#include <any>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "comm/communicator.hpp"
#include "comm/registry.hpp"
#include "sim/task.hpp"

/// \file collectives.hpp
/// Reduction collectives over a Communicator, compiled once in
/// collectives.cpp.
///
/// * `ring_reduce_scatter` — the paper's algorithm (Section 4.2, Figure 11):
///   P channel-threads per rank, each running a ring reduce-scatter over its
///   own N-segment slice of the P*N segment space.
/// * `allreduce` — over the ring, the Rabenseifner composition (ring
///   reduce-scatter + ring allgather) the split-aggregation interface
///   unlocks (paper Section 7).
/// * `binomial_reduce` — the tree reduction Spark effectively performs.
/// * `halving_reduce_scatter` — recursive halving with a non-power-of-two
///   fold, modeled after MPICH; used as the "MPI" reference in Figure 15.
///
/// Every collective runs over one erased segment type: a segment is a
/// `std::any`, and `SegOps` carries the paper's split-aggregation callbacks
/// (splitOp / reduceOp / concatOp) over it, so whatever the aggregator, the
/// same compiled ring runs.

namespace sparker::comm {

/// An (index, value) segment pair.
using Seg = std::pair<int, std::any>;

/// User-supplied segment operations (the SAI callbacks of Figure 6).
struct SegOps {
  /// splitOp: produce segment `seg` of `nseg` from the rank's local value;
  /// the result must hold a value. Collectives call it on demand, when a
  /// segment is first sent or reduced into, at any point while they run,
  /// and only on attempts that reach that point. It must be pure, and the
  /// local value must not change until the collective returns.
  std::function<std::any(int seg, int nseg)> split;
  /// reduceOp: fold `src` into `dst`.
  std::function<void(std::any& dst, const std::any& src)> reduce_into;
  /// Modeled wire size of a segment.
  std::function<std::uint64_t(const std::any&)> bytes;
  /// concatOp: assemble segments (sorted by index) into a whole value.
  /// Required only by allreduce.
  std::function<std::any(std::vector<Seg>&)> concat;
  /// Simulated CPU time to merge `bytes` of segment data (optional).
  std::function<sim::Duration(std::uint64_t)> merge_time;
};

/// Dispatches a reduce-scatter over kAlgoTable: runs the row's dataflow
/// inside a "collective" trace span carrying the integer `algo` attribute
/// (plus failed=0/1 on close), which trace_lint and the obs tests key on.
/// `algo` must be a concrete registered id (resolve kAuto via resolve_algo
/// first — all ranks of one collective must agree on the algorithm, so
/// resolution happens once at the stage).
sim::Task<std::vector<Seg>> reduce_scatter(AlgoId algo, Communicator& c,
                                           int rank, const SegOps& ops);

/// Dispatches an allreduce; same contract as reduce_scatter. It runs the
/// row's reduce-scatter, the allgather that fits its segment layout, then
/// one sort + concat — except the funnel, whose whole value on rank 0 is
/// broadcast back instead.
sim::Task<std::any> allreduce(AlgoId algo, Communicator& c, int rank,
                              const SegOps& ops);

/// Ring reduce-scatter with P parallel channels. The local value is split
/// into P*N segments; on return, this rank owns the P fully-reduced segments
/// {t*N + (rank+1) mod N : t in [0,P)}. Must be invoked concurrently on all
/// ranks of the communicator.
sim::Task<std::vector<Seg>> ring_reduce_scatter(Communicator& c, int rank,
                                                const SegOps& ops);

/// Binomial-tree reduction of whole (unsplit) values to rank 0 — the
/// non-scalable baseline. Returns the result on rank 0, nullopt elsewhere.
sim::Task<std::optional<std::any>> binomial_reduce(Communicator& c, int rank,
                                                   std::any local,
                                                   const SegOps& ops);

/// Recursive-halving reduce-scatter (the "MPI" reference of Figure 15),
/// with the MPICH-style fold for non-power-of-two rank counts. Segment
/// space is N (one per rank); on return, rank i owns reduced segment i.
/// Always uses channel 0 (MPI uses one connection per peer).
sim::Task<std::optional<Seg>> halving_reduce_scatter(Communicator& c,
                                                     int rank,
                                                     const SegOps& ops);

/// Pairwise-exchange reduce-scatter (MPICH's choice for long messages with
/// commutative ops): N-1 steps; at step k, rank r sends its original
/// contribution to segment owned by (r+k) mod N directly to that rank and
/// folds the segment received from (r-k) mod N. Bandwidth-optimal like the
/// ring, but with all-to-all traffic instead of neighbour-only traffic.
/// Uses channel 0 only. On return, rank i owns reduced segment i.
sim::Task<Seg> pairwise_reduce_scatter(Communicator& c, int rank,
                                       const SegOps& ops);

/// Binomial-tree broadcast from `root`: rank r receives the value and then
/// relays it down its subtree. log2(N) rounds; each round doubles the set
/// of ranks holding the value. `value` is read on the root only. Returns
/// the one shared value on every rank, uncopied: the payload travels by
/// shared_ptr (in-process), and `bytes` is the modeled wire size per hop.
sim::Task<std::shared_ptr<const void>> binomial_broadcast(
    Communicator& c, int rank, int root, std::shared_ptr<const void> value,
    std::uint64_t bytes);

/// Runs `fn(rank)` concurrently on every rank (sim::run_each); completes
/// when all do. If any rank throws (e.g. CollectiveFailed from a timed-out
/// recv), the first exception is rethrown here after every rank has
/// finished or failed.
sim::Task<void> run_all_ranks(Communicator& c,
                              std::function<sim::Task<void>(int)> fn);

}  // namespace sparker::comm
