#pragma once

#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "comm/communicator.hpp"
#include "obs/trace.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

/// \file collectives.hpp
/// Reduction collectives over a Communicator.
///
/// * `ring_reduce_scatter` — the paper's algorithm (Section 4.2, Figure 11):
///   P channel-threads per rank, each running a ring reduce-scatter over its
///   own N-segment slice of the P*N segment space.
/// * `ring_allgather` — with the ring reduce-scatter, the Rabenseifner
///   allreduce the split-aggregation interface unlocks (paper Section 7);
///   comm::CollectiveRegistry composes it.
/// * `binomial_reduce` — the tree reduction Spark effectively performs.
/// * `halving_reduce_scatter` — recursive halving with a non-power-of-two
///   fold, modeled after MPICH; used as the "MPI" reference in Figure 15.
///
/// All collectives are generic over the segment type V through `SegOps`,
/// mirroring the paper's split-aggregation callbacks (splitOp / reduceOp /
/// concatOp).

namespace sparker::comm {

/// User-supplied segment operations (the SAI callbacks of Figure 6).
template <typename V>
struct SegOps {
  /// splitOp: produce segment `seg` of `nseg` from the rank's local value.
  /// Collectives call it on demand, when a segment is first sent or reduced
  /// into, at any point while they run, and only on attempts that reach
  /// that point. It must be pure, and the local value must not change until
  /// the collective returns.
  std::function<V(int seg, int nseg)> split;
  /// reduceOp: fold `src` into `dst`.
  std::function<void(V& dst, const V& src)> reduce_into;
  /// Modeled wire size of a segment.
  std::function<std::uint64_t(const V&)> bytes;
  /// concatOp: assemble segments (sorted by index) into a whole value.
  /// Required only by allreduce.
  std::function<V(std::vector<std::pair<int, V>>&)> concat;
  /// Simulated CPU time to merge `bytes` of segment data (optional).
  std::function<sim::Duration(std::uint64_t)> merge_time;
};

/// An (index, value) segment pair.
template <typename V>
using Seg = std::pair<int, V>;

namespace detail {

template <typename V>
sim::Duration merge_cost(const SegOps<V>& ops, std::uint64_t bytes) {
  return ops.merge_time ? ops.merge_time(bytes) : 0;
}

/// One channel-thread of the parallel ring reduce-scatter: thread `t` of
/// rank `rank` reduces segments [t*N, (t+1)*N) using channel `t` only.
/// Each local segment is split on first use — when it is sent, or when the
/// incoming partial is reduced into it — and leaves the thread when it is
/// sent, so a thread holds about one segment at a time rather than N. Every
/// segment is still split exactly once, from the same local value.
template <typename V>
sim::Task<void> ring_rs_worker(Communicator& c, int rank, int t,
                               const SegOps<V>& ops, int nseg_total,
                               Seg<V>& out, sim::WaitGroup& wg,
                               std::exception_ptr& error) {
  // Ring-segment traffic is traced as instants (send at post time, recv
  // with its wait) rather than spans: a timed-out recv throws past any
  // open span, and the worker span below already bounds the whole thread.
  obs::TraceSink* tr = c.fabric().trace();
  const int pid = obs::exec_pid(c.node_of(rank));
  const obs::SpanId span =
      tr ? tr->begin("reduce", "ring.rs", pid, t, {{"rank", rank}})
         : obs::kNoSpan;
  bool failed = false;
  // Workers run detached, so an escaped exception would abort the process
  // (sim::Task policy). Capture it instead and let the spawner rethrow
  // after the WaitGroup resolves.
  try {
    const int n = c.size();
    std::vector<std::optional<V>> cur(static_cast<std::size_t>(n));
    auto seg = [&](int j) -> V& {
      std::optional<V>& s = cur[static_cast<std::size_t>(j)];
      if (!s) s.emplace(ops.split(t * n + j, nseg_total));
      return *s;
    };
    for (int k = 0; k + 1 < n; ++k) {
      const int send_idx = ((rank - k) % n + n) % n;
      const int recv_idx = ((rank - k - 1) % n + n) % n;
      Message m;
      m.tag = k;
      V& outgoing = seg(send_idx);
      m.bytes = ops.bytes(outgoing);
      m.payload = std::make_shared<V>(std::move(outgoing));
      cur[static_cast<std::size_t>(send_idx)].reset();
      if (tr) {
        tr->instant("reduce", "ring.send", pid, t,
                    {{"rank", rank},
                     {"round", k},
                     {"bytes", static_cast<std::int64_t>(m.bytes)}});
      }
      c.post(rank, c.next(rank), t, std::move(m));
      const sim::Time wait_from = c.simulator().now();
      Message in = co_await c.recv(rank, c.prev(rank), t);
      if (tr) {
        tr->instant("reduce", "ring.recv", pid, t,
                    {{"rank", rank},
                     {"round", k},
                     {"bytes", static_cast<std::int64_t>(in.bytes)},
                     {"wait_ns", static_cast<std::int64_t>(
                                     c.simulator().now() - wait_from)}});
      }
      const V& incoming = *std::static_pointer_cast<V>(in.payload);
      co_await c.simulator().sleep(merge_cost(ops, in.bytes));
      ops.reduce_into(seg(recv_idx), incoming);
    }
    const int own = (rank + 1) % n;
    out = {t * n + own, std::move(seg(own))};
  } catch (...) {
    failed = true;
    if (!error) error = std::current_exception();
  }
  if (tr) tr->end(span, {{"failed", failed ? 1 : 0}});
  wg.done();
}

}  // namespace detail

/// Ring reduce-scatter with P parallel channels. The local value is split
/// into P*N segments; on return, this rank owns the P fully-reduced segments
/// {t*N + (rank+1) mod N : t in [0,P)}. Must be invoked concurrently on all
/// ranks of the communicator.
template <typename V>
sim::Task<std::vector<Seg<V>>> ring_reduce_scatter(Communicator& c, int rank,
                                                   const SegOps<V>& ops) {
  const int n = c.size();
  const int p = c.parallelism();
  std::vector<Seg<V>> results(static_cast<std::size_t>(p));
  if (n == 1) {
    // Trivial: all segments stay local (still split/merged for parity).
    for (int t = 0; t < p; ++t) {
      results[static_cast<std::size_t>(t)] = {t, ops.split(t, p)};
    }
    co_return results;
  }
  sim::WaitGroup wg(c.simulator());
  wg.add(p);
  std::exception_ptr error;
  for (int t = 0; t < p; ++t) {
    c.simulator().spawn(detail::ring_rs_worker<V>(
        c, rank, t, ops, p * n, results[static_cast<std::size_t>(t)], wg,
        error));
  }
  co_await wg.wait();
  if (error) std::rethrow_exception(error);
  co_return results;
}

namespace detail {

template <typename V>
sim::Task<void> ring_ag_worker(Communicator& c, int rank, int t,
                               const SegOps<V>& ops, Seg<V> own,
                               std::vector<Seg<V>>& out, sim::WaitGroup& wg,
                               std::exception_ptr& error) {
  obs::TraceSink* tr = c.fabric().trace();
  const int pid = obs::exec_pid(c.node_of(rank));
  const obs::SpanId span =
      tr ? tr->begin("reduce", "ring.ag", pid, t, {{"rank", rank}})
         : obs::kNoSpan;
  bool failed = false;
  try {
    const int n = c.size();
    // local index within this thread's slice
    std::vector<std::optional<V>> have(static_cast<std::size_t>(n));
    const int own_local = own.first - t * n;
    have[static_cast<std::size_t>(own_local)] = std::move(own.second);
    for (int k = 0; k + 1 < n; ++k) {
      const int send_local = ((rank + 1 - k) % n + n) % n;
      const int recv_local = ((rank - k) % n + n) % n;
      const V& v = *have[static_cast<std::size_t>(send_local)];
      Message m;
      m.tag = k;
      m.bytes = ops.bytes(v);
      m.payload = std::make_shared<V>(v);  // copy: we keep our own
      c.post(rank, c.next(rank), t, std::move(m));
      Message in = co_await c.recv(rank, c.prev(rank), t);
      have[static_cast<std::size_t>(recv_local)] =
          std::move(*std::static_pointer_cast<V>(in.payload));
    }
    for (int j = 0; j < n; ++j) {
      out.push_back({t * n + j, std::move(*have[static_cast<std::size_t>(j)])});
    }
  } catch (...) {
    failed = true;
    if (!error) error = std::current_exception();
  }
  if (tr) tr->end(span, {{"failed", failed ? 1 : 0}});
  wg.done();
}

}  // namespace detail

/// Ring allgather of the segments produced by ring_reduce_scatter: on
/// return every rank holds all P*N segments.
template <typename V>
sim::Task<std::vector<Seg<V>>> ring_allgather(Communicator& c, int rank,
                                              const SegOps<V>& ops,
                                              std::vector<Seg<V>> owned) {
  const int n = c.size();
  const int p = c.parallelism();
  std::vector<Seg<V>> all;
  if (n == 1) co_return owned;
  std::vector<std::vector<Seg<V>>> per_thread(static_cast<std::size_t>(p));
  sim::WaitGroup wg(c.simulator());
  wg.add(p);
  std::exception_ptr error;
  for (int t = 0; t < p; ++t) {
    c.simulator().spawn(detail::ring_ag_worker<V>(
        c, rank, t, ops, std::move(owned[static_cast<std::size_t>(t)]),
        per_thread[static_cast<std::size_t>(t)], wg, error));
  }
  co_await wg.wait();
  if (error) std::rethrow_exception(error);
  for (auto& v : per_thread) {
    for (auto& s : v) all.push_back(std::move(s));
  }
  co_return all;
}

/// Binomial-tree reduction of whole (unsplit) values to rank 0 — the
/// non-scalable baseline. Returns the result on rank 0, nullopt elsewhere.
template <typename V>
sim::Task<std::optional<V>> binomial_reduce(Communicator& c, int rank, V local,
                                            const SegOps<V>& ops) {
  const int n = c.size();
  for (int mask = 1; mask < n; mask <<= 1) {
    if (rank & mask) {
      Message m;
      m.bytes = ops.bytes(local);
      m.payload = std::make_shared<V>(std::move(local));
      c.post(rank, rank - mask, 0, std::move(m));
      co_return std::nullopt;
    }
    if (rank + mask < n) {
      Message in = co_await c.recv(rank, rank + mask, 0);
      co_await c.simulator().sleep(detail::merge_cost(ops, in.bytes));
      ops.reduce_into(local, *std::static_pointer_cast<V>(in.payload));
    }
  }
  co_return std::optional<V>(std::move(local));
}

/// Recursive-halving reduce-scatter (the "MPI" reference of Figure 15),
/// with the MPICH-style fold for non-power-of-two rank counts. Segment
/// space is N (one per rank); on return, rank i owns reduced segment i.
/// Always uses channel 0 (MPI uses one connection per peer).
template <typename V>
sim::Task<std::optional<Seg<V>>> halving_reduce_scatter(Communicator& c,
                                                        int rank,
                                                        const SegOps<V>& ops) {
  using SegVec = std::vector<Seg<V>>;
  const int n = c.size();
  if (n == 1) co_return Seg<V>{0, ops.split(0, 1)};
  int g_size = 1;
  while (g_size * 2 <= n) g_size *= 2;
  const int excess = n - g_size;  // ranks [g_size, n) fold into [0, excess)

  // Local segments.
  std::vector<std::optional<V>> have(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) have[static_cast<std::size_t>(j)] = ops.split(j, n);

  // One message carrying the segments `each` visits (it calls its argument
  // per segment index), moved out of `have`.
  auto pack = [&](auto&& each) {
    auto payload = std::make_shared<SegVec>();
    Message m;
    each([&](int j) {
      auto& slot = have[static_cast<std::size_t>(j)];
      m.bytes += ops.bytes(*slot);
      payload->push_back({j, std::move(*slot)});
      slot.reset();
    });
    m.payload = payload;
    return m;
  };
  auto merge_in = [&](Message& in) -> sim::Task<void> {
    co_await c.simulator().sleep(detail::merge_cost(ops, in.bytes));
    auto segs = std::static_pointer_cast<SegVec>(in.payload);
    for (auto& [idx, v] : *segs) {
      auto& slot = have[static_cast<std::size_t>(idx)];
      if (slot) {
        ops.reduce_into(*slot, v);
      } else {
        slot = std::move(v);
      }
    }
  };

  // ---- fold phase (non-power-of-two) ----
  if (rank >= g_size) {
    // Send everything to the representative, wait for our segment back.
    c.post(rank, rank - g_size, 0, pack([&](auto&& take) {
             for (int j = 0; j < n; ++j) take(j);
           }));
    Message back = co_await c.recv(rank, rank - g_size, 0);
    auto segs = std::static_pointer_cast<SegVec>(back.payload);
    co_return Seg<V>{segs->front().first, std::move(segs->front().second)};
  }
  if (rank < excess) {
    Message in = co_await c.recv(rank, rank + g_size, 0);
    co_await merge_in(in);
  }

  // ---- recursive halving among ranks [0, g_size) ----
  // Group rank g finally owns the segment set segs(g) = {g} U {g+g_size if
  // g < excess}. Maintain the group-rank interval [lo, hi) we are
  // responsible for; each step exchanges the halves with the partner.
  auto seg_range = [&](int glo, int ghi, auto&& emit) {
    for (int g = glo; g < ghi; ++g) {
      emit(g);
      if (g < excess) emit(g + g_size);
    }
  };
  int lo = 0, hi = g_size;
  for (int dist = g_size / 2; dist >= 1; dist /= 2) {
    const int partner = rank ^ dist;
    const int mid = lo + (hi - lo) / 2;
    const bool keep_low = rank < partner;
    const int send_lo = keep_low ? mid : lo;
    const int send_hi = keep_low ? hi : mid;
    // Send the segments of group ranks [send_lo, send_hi).
    c.post(rank, partner, 0, pack([&](auto&& take) {
             seg_range(send_lo, send_hi, take);
           }));
    Message in = co_await c.recv(rank, partner, 0);
    co_await merge_in(in);
    if (keep_low) {
      hi = mid;
    } else {
      lo = mid;
    }
  }

  // Now we hold segs(rank) = {rank} (+ {rank+g_size} if rank < excess).
  if (rank < excess) {
    // Return the folded rank its segment.
    c.post(rank, rank + g_size, 0,
           pack([&](auto&& take) { take(rank + g_size); }));
  }
  co_return Seg<V>{rank, std::move(*have[static_cast<std::size_t>(rank)])};
}

/// Binomial-tree broadcast from `root`: rank r receives the value and then
/// relays it down its subtree. log2(N) rounds; each round doubles the set
/// of ranks holding the value. Returns the value on every rank. The
/// payload travels by shared_ptr (in-process); `bytes` is the modeled wire
/// size per hop.
template <typename V>
sim::Task<V> binomial_broadcast(Communicator& c, int rank, int root,
                                std::shared_ptr<V> value,
                                std::uint64_t bytes) {
  const int n = c.size();
  if (n == 1) co_return V(*value);
  // Work in root-relative rank space so any root works.
  const int vrank = (rank - root + n) % n;
  // Find the highest power of two <= n.
  int span = 1;
  while (span < n) span <<= 1;
  if (vrank != 0) {
    // Receive from the parent: the rank that differs in the lowest set bit.
    const int lowbit = vrank & (-vrank);
    const int vparent = vrank - lowbit;
    const int parent = (vparent + root) % n;
    Message in = co_await c.recv(rank, parent, 0);
    value = std::static_pointer_cast<V>(in.payload);
  }
  // Relay to children: vrank + b for each bit b below my lowest set bit
  // (or below span for the root).
  const int limit = vrank == 0 ? span : (vrank & (-vrank));
  for (int b = limit >> 1; b >= 1; b >>= 1) {
    const int vchild = vrank + b;
    if (vchild < n) {
      Message m;
      m.bytes = bytes;
      m.payload = value;
      c.post(rank, (vchild + root) % n, 0, std::move(m));
    }
  }
  co_return V(*value);
}

/// Pairwise-exchange reduce-scatter (MPICH's choice for long messages with
/// commutative ops): N-1 steps; at step k, rank r sends its original
/// contribution to segment owned by (r+k) mod N directly to that rank and
/// folds the segment received from (r-k) mod N. Bandwidth-optimal like the
/// ring, but with all-to-all traffic instead of neighbour-only traffic.
/// Uses channel 0 only. On return, rank i owns reduced segment i.
template <typename V>
sim::Task<Seg<V>> pairwise_reduce_scatter(Communicator& c, int rank,
                                          const SegOps<V>& ops) {
  const int n = c.size();
  if (n == 1) co_return Seg<V>{0, ops.split(0, 1)};
  V mine = ops.split(rank, n);
  for (int k = 1; k < n; ++k) {
    const int to = (rank + k) % n;
    const int from = (rank - k + n) % n;
    V contribution = ops.split(to, n);
    Message m;
    m.tag = k;
    m.bytes = ops.bytes(contribution);
    m.payload = std::make_shared<V>(std::move(contribution));
    c.post(rank, to, 0, std::move(m));
    Message in = co_await c.recv(rank, from, 0);
    co_await c.simulator().sleep(detail::merge_cost(ops, in.bytes));
    ops.reduce_into(mine, *std::static_pointer_cast<V>(in.payload));
  }
  co_return Seg<V>{rank, std::move(mine)};
}

/// Runs `fn(rank)` concurrently on every rank; completes when all do. If
/// any rank throws (e.g. CollectiveFailed from a timed-out recv), the first
/// exception is rethrown here after every rank has finished or failed.
inline sim::Task<void> run_all_ranks(
    Communicator& c, std::function<sim::Task<void>(int)> fn) {
  sim::WaitGroup wg(c.simulator());
  wg.add(c.size());
  struct Runner {
    static sim::Task<void> go(std::function<sim::Task<void>(int)> f, int r,
                              sim::WaitGroup& w, std::exception_ptr& error) {
      try {
        co_await f(r);
      } catch (...) {
        if (!error) error = std::current_exception();
      }
      w.done();
    }
  };
  std::exception_ptr error;
  for (int r = 0; r < c.size(); ++r) {
    c.simulator().spawn(Runner::go(fn, r, wg, error));
  }
  co_await wg.wait();
  if (error) std::rethrow_exception(error);
}

}  // namespace sparker::comm
