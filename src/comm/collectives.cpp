#include "comm/collectives.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "obs/trace.hpp"
#include "sim/sync.hpp"

/// \file collectives.cpp
/// Every collective body and the kAlgoTable dispatch, compiled once over
/// the erased segment type.

namespace sparker::comm {
namespace {

sim::Duration merge_cost(const SegOps& ops, std::uint64_t bytes) {
  return ops.merge_time ? ops.merge_time(bytes) : 0;
}

/// The segment value a received message carries.
const std::any& incoming_seg(const Message& m) {
  return *std::static_pointer_cast<std::any>(m.payload);
}

/// One channel-thread of the parallel ring reduce-scatter: thread `t` of
/// rank `rank` reduces segments [t*N, (t+1)*N) using channel `t` only.
/// Each local segment is split on first use — when it is sent, or when the
/// incoming partial is reduced into it — and leaves the thread when it is
/// sent, so a thread holds about one segment at a time rather than N. Every
/// segment is still split exactly once, from the same local value.
sim::Task<void> ring_rs_worker(Communicator& c, int rank, int t,
                               const SegOps& ops, int nseg_total, Seg& out) {
  // Ring-segment traffic is traced as instants (send at post time, recv
  // with its wait) rather than spans: a timed-out recv throws past any
  // open span, and the worker span below already bounds the whole thread.
  obs::TraceSink* tr = c.fabric().trace();
  const int pid = obs::exec_pid(c.node_of(rank));
  const obs::SpanId span =
      tr ? tr->begin("reduce", "ring.rs", pid, t, {{"rank", rank}})
         : obs::kNoSpan;
  try {
    const int n = c.size();
    std::vector<std::any> cur(static_cast<std::size_t>(n));
    auto seg = [&](int j) -> std::any& {
      std::any& s = cur[static_cast<std::size_t>(j)];
      if (!s.has_value()) s = ops.split(t * n + j, nseg_total);
      return s;
    };
    for (int k = 0; k + 1 < n; ++k) {
      const int send_idx = ((rank - k) % n + n) % n;
      const int recv_idx = ((rank - k - 1) % n + n) % n;
      Message m;
      m.tag = k;
      std::any& outgoing = seg(send_idx);
      m.bytes = ops.bytes(outgoing);
      m.payload = std::make_shared<std::any>(std::move(outgoing));
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
      co_await c.simulator().sleep(merge_cost(ops, in.bytes));
      ops.reduce_into(seg(recv_idx), incoming_seg(in));
    }
    const int own = (rank + 1) % n;
    out = {t * n + own, std::move(seg(own))};
  } catch (...) {
    if (tr) tr->end(span, {{"failed", 1}});
    throw;
  }
  if (tr) tr->end(span, {{"failed", 0}});
}

sim::Task<void> ring_ag_worker(Communicator& c, int rank, int t,
                               const SegOps& ops, Seg own,
                               std::vector<Seg>& out) {
  obs::TraceSink* tr = c.fabric().trace();
  const int pid = obs::exec_pid(c.node_of(rank));
  const obs::SpanId span =
      tr ? tr->begin("reduce", "ring.ag", pid, t, {{"rank", rank}})
         : obs::kNoSpan;
  try {
    const int n = c.size();
    // local index within this thread's slice
    std::vector<std::any> have(static_cast<std::size_t>(n));
    const int own_local = own.first - t * n;
    have[static_cast<std::size_t>(own_local)] = std::move(own.second);
    for (int k = 0; k + 1 < n; ++k) {
      const int send_local = ((rank + 1 - k) % n + n) % n;
      const int recv_local = ((rank - k) % n + n) % n;
      const std::any& v = have[static_cast<std::size_t>(send_local)];
      Message m;
      m.tag = k;
      m.bytes = ops.bytes(v);
      m.payload = std::make_shared<std::any>(v);  // copy: we keep our own
      c.post(rank, c.next(rank), t, std::move(m));
      Message in = co_await c.recv(rank, c.prev(rank), t);
      have[static_cast<std::size_t>(recv_local)] =
          std::move(*std::static_pointer_cast<std::any>(in.payload));
    }
    for (int j = 0; j < n; ++j) {
      out.push_back({t * n + j, std::move(have[static_cast<std::size_t>(j)])});
    }
  } catch (...) {
    if (tr) tr->end(span, {{"failed", 1}});
    throw;
  }
  if (tr) tr->end(span, {{"failed", 0}});
}

/// Ring allgather of the segments produced by ring_reduce_scatter: on
/// return every rank holds all P*N segments.
sim::Task<std::vector<Seg>> ring_allgather(Communicator& c, int rank,
                                           const SegOps& ops,
                                           std::vector<Seg> owned) {
  const int n = c.size();
  const int p = c.parallelism();
  std::vector<Seg> all;
  if (n == 1) co_return owned;
  std::vector<std::vector<Seg>> per_thread(static_cast<std::size_t>(p));
  co_await sim::run_each(c.simulator(), p, [&](int t) {
    const auto i = static_cast<std::size_t>(t);
    return ring_ag_worker(c, rank, t, ops, std::move(owned[i]),
                          per_thread[i]);
  });
  for (auto& v : per_thread) {
    for (auto& s : v) all.push_back(std::move(s));
  }
  co_return all;
}

/// Allgather for the one-segment-per-rank layouts (halving / pairwise
/// reduce-scatter leave rank i holding reduced segment i): N-1 ring hops on
/// channel 0, forwarding the previously received segment each step.
sim::Task<std::vector<Seg>> flat_ring_allgather(Communicator& c, int rank,
                                                const SegOps& ops, Seg own) {
  const int n = c.size();
  std::vector<Seg> all;
  all.reserve(static_cast<std::size_t>(n));
  all.push_back(std::move(own));
  for (int k = 0; k + 1 < n; ++k) {
    const Seg& fwd = all[static_cast<std::size_t>(k)];
    Message m;
    m.tag = k;
    m.bytes = ops.bytes(fwd.second);
    m.payload = std::make_shared<Seg>(fwd);  // copy: we keep ours
    c.post(rank, c.next(rank), 0, std::move(m));
    Message in = co_await c.recv(rank, c.prev(rank), 0);
    all.push_back(std::move(*std::static_pointer_cast<Seg>(in.payload)));
  }
  co_return all;
}

/// Flat funnel reduction: every rank posts its whole value to rank 0, which
/// folds them in rank order. The non-scalable baseline whose incast is what
/// the paper's ring exists to avoid; the tuner still picks it for tiny
/// aggregators where per-message overhead dominates.
sim::Task<std::optional<std::any>> funnel_reduce(Communicator& c, int rank,
                                                 std::any local,
                                                 const SegOps& ops) {
  const int n = c.size();
  if (rank != 0) {
    Message m;
    m.bytes = ops.bytes(local);
    m.payload = std::make_shared<std::any>(std::move(local));
    c.post(rank, 0, 0, std::move(m));
    co_return std::nullopt;
  }
  for (int src = 1; src < n; ++src) {
    Message in = co_await c.recv(0, src, 0);
    co_await c.simulator().sleep(merge_cost(ops, in.bytes));
    ops.reduce_into(local, incoming_seg(in));
  }
  co_return std::optional<std::any>(std::move(local));
}

/// Runs `body` inside the dispatch's "collective" span and rethrows its
/// failure after closing the span.
sim::Task<void> traced(Communicator& c, int rank, const char* name, AlgoId id,
                       sim::Task<void> body) {
  obs::TraceSink* tr = c.fabric().trace();
  const obs::SpanId span =
      tr ? tr->begin("collective", name, obs::exec_pid(c.node_of(rank)), rank,
                     {{"algo", static_cast<std::int64_t>(id)}, {"rank", rank}})
         : obs::kNoSpan;
  try {
    co_await std::move(body);
  } catch (...) {
    if (tr) tr->end(span, {{"failed", 1}});
    throw;
  }
  if (tr) tr->end(span, {{"failed", 0}});
}

/// Runs `flow`'s reduce-scatter, leaving this rank's segments in `out`.
sim::Task<void> scatter(Dataflow flow, Communicator& c, int rank,
                        const SegOps& ops, std::vector<Seg>& out) {
  switch (flow) {
    case Dataflow::kRing:
      out = co_await ring_reduce_scatter(c, rank, ops);
      break;
    case Dataflow::kHalving: {
      std::optional<Seg> seg = co_await halving_reduce_scatter(c, rank, ops);
      if (seg) out.push_back(std::move(*seg));
      break;
    }
    case Dataflow::kPairwise:
      out.push_back(co_await pairwise_reduce_scatter(c, rank, ops));
      break;
    case Dataflow::kFunnel: {
      std::optional<std::any> whole =
          co_await funnel_reduce(c, rank, ops.split(0, 1), ops);
      if (whole) out.push_back({0, std::move(*whole)});
      break;
    }
    case Dataflow::kNone:
      break;
  }
}

/// Runs `flow`'s allreduce, leaving the whole reduced value in `out`.
sim::Task<void> reduce_all(Dataflow flow, Communicator& c, int rank,
                           const SegOps& ops, std::any& out) {
  const bool funnel = flow == Dataflow::kFunnel;
  if (!funnel && !ops.concat) {
    throw std::invalid_argument("allreduce requires concatOp");
  }
  std::vector<Seg> owned;
  co_await scatter(flow, c, rank, ops, owned);
  if (funnel) {
    // Rank 0 alone holds the whole value: broadcast it, no concat. Relay
    // hops are priced with the local whole-value size (identical across
    // ranks for the engine's fixed-shape aggregators).
    std::shared_ptr<const void> value;
    std::uint64_t bytes = 0;
    if (owned.empty()) {
      bytes = ops.bytes(ops.split(0, 1));
    } else {
      bytes = ops.bytes(owned.front().second);
      value = std::make_shared<std::any>(std::move(owned.front().second));
    }
    const std::shared_ptr<const void> got =
        co_await binomial_broadcast(c, rank, 0, std::move(value), bytes);
    out = *static_cast<const std::any*>(got.get());  // each rank's own copy
    co_return;
  }
  std::vector<Seg> all;
  if (flow == Dataflow::kRing) {
    all = co_await ring_allgather(c, rank, ops, std::move(owned));
  } else {
    all = co_await flat_ring_allgather(c, rank, ops, std::move(owned.front()));
  }
  std::sort(all.begin(), all.end(),
            [](const Seg& a, const Seg& b) { return a.first < b.first; });
  out = ops.concat(all);
}

}  // namespace

sim::Task<std::vector<Seg>> reduce_scatter(AlgoId algo, Communicator& c,
                                           int rank, const SegOps& ops) {
  const AlgoId id = registered_algo(CollectiveOp::kReduceScatter, algo);
  std::vector<Seg> out;
  co_await traced(c, rank, "collective.reduce_scatter", id,
                  scatter(algo_row(id).flow, c, rank, ops, out));
  co_return out;
}

sim::Task<std::any> allreduce(AlgoId algo, Communicator& c, int rank,
                              const SegOps& ops) {
  const AlgoId id = registered_algo(CollectiveOp::kAllreduce, algo);
  std::any out;
  co_await traced(c, rank, "collective.allreduce", id,
                  reduce_all(algo_row(id).flow, c, rank, ops, out));
  co_return out;
}

sim::Task<std::vector<Seg>> ring_reduce_scatter(Communicator& c, int rank,
                                                const SegOps& ops) {
  const int n = c.size();
  const int p = c.parallelism();
  std::vector<Seg> results(static_cast<std::size_t>(p));
  if (n == 1) {
    // Trivial: all segments stay local (still split/merged for parity).
    for (int t = 0; t < p; ++t) {
      results[static_cast<std::size_t>(t)] = {t, ops.split(t, p)};
    }
    co_return results;
  }
  co_await sim::run_each(c.simulator(), p, [&](int t) {
    return ring_rs_worker(c, rank, t, ops, p * n,
                          results[static_cast<std::size_t>(t)]);
  });
  co_return results;
}

sim::Task<std::optional<std::any>> binomial_reduce(Communicator& c, int rank,
                                                   std::any local,
                                                   const SegOps& ops) {
  const int n = c.size();
  for (int mask = 1; mask < n; mask <<= 1) {
    if (rank & mask) {
      Message m;
      m.bytes = ops.bytes(local);
      m.payload = std::make_shared<std::any>(std::move(local));
      c.post(rank, rank - mask, 0, std::move(m));
      co_return std::nullopt;
    }
    if (rank + mask < n) {
      Message in = co_await c.recv(rank, rank + mask, 0);
      co_await c.simulator().sleep(merge_cost(ops, in.bytes));
      ops.reduce_into(local, incoming_seg(in));
    }
  }
  co_return std::optional<std::any>(std::move(local));
}

sim::Task<std::optional<Seg>> halving_reduce_scatter(Communicator& c,
                                                     int rank,
                                                     const SegOps& ops) {
  const int n = c.size();
  if (n == 1) co_return Seg{0, ops.split(0, 1)};
  int g_size = 1;
  while (g_size * 2 <= n) g_size *= 2;
  const int excess = n - g_size;  // ranks [g_size, n) fold into [0, excess)

  // Local segments.
  std::vector<std::any> have(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) have[static_cast<std::size_t>(j)] = ops.split(j, n);

  // One message carrying segments `idx`, in order, moved out of `have`.
  auto pack = [&](const std::vector<int>& idx) {
    auto payload = std::make_shared<std::vector<Seg>>();
    Message m;
    for (int j : idx) {
      std::any& slot = have[static_cast<std::size_t>(j)];
      m.bytes += ops.bytes(slot);
      payload->push_back({j, std::move(slot)});
      slot.reset();
    }
    m.payload = payload;
    return m;
  };
  auto merge_in = [&](Message& in) -> sim::Task<void> {
    co_await c.simulator().sleep(merge_cost(ops, in.bytes));
    auto segs = std::static_pointer_cast<std::vector<Seg>>(in.payload);
    for (auto& [idx, v] : *segs) {
      std::any& slot = have[static_cast<std::size_t>(idx)];
      if (slot.has_value()) {
        ops.reduce_into(slot, v);
      } else {
        slot = std::move(v);
      }
    }
  };

  // ---- fold phase (non-power-of-two) ----
  if (rank >= g_size) {
    // Send everything to the representative, wait for our segment back.
    std::vector<int> every(static_cast<std::size_t>(n));
    std::iota(every.begin(), every.end(), 0);
    c.post(rank, rank - g_size, 0, pack(every));
    Message back = co_await c.recv(rank, rank - g_size, 0);
    auto segs = std::static_pointer_cast<std::vector<Seg>>(back.payload);
    co_return Seg{segs->front().first, std::move(segs->front().second)};
  }
  if (rank < excess) {
    Message in = co_await c.recv(rank, rank + g_size, 0);
    co_await merge_in(in);
  }

  // ---- recursive halving among ranks [0, g_size) ----
  // Group rank g finally owns the segment set segs(g) = {g} U {g+g_size if
  // g < excess}. Maintain the group-rank interval [lo, hi) we are
  // responsible for; each step exchanges the halves with the partner.
  auto seg_range = [&](int glo, int ghi) {
    std::vector<int> idx;
    for (int g = glo; g < ghi; ++g) {
      idx.push_back(g);
      if (g < excess) idx.push_back(g + g_size);
    }
    return idx;
  };
  int lo = 0, hi = g_size;
  for (int dist = g_size / 2; dist >= 1; dist /= 2) {
    const int partner = rank ^ dist;
    const int mid = lo + (hi - lo) / 2;
    const bool keep_low = rank < partner;
    const int send_lo = keep_low ? mid : lo;
    const int send_hi = keep_low ? hi : mid;
    // Send the segments of group ranks [send_lo, send_hi).
    c.post(rank, partner, 0, pack(seg_range(send_lo, send_hi)));
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
    c.post(rank, rank + g_size, 0, pack({rank + g_size}));
  }
  co_return Seg{rank, std::move(have[static_cast<std::size_t>(rank)])};
}

sim::Task<std::shared_ptr<const void>> binomial_broadcast(
    Communicator& c, int rank, int root, std::shared_ptr<const void> value,
    std::uint64_t bytes) {
  const int n = c.size();
  if (n == 1) co_return value;
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
    value = std::move(in.payload);
  }
  // Relay to children: vrank + b for each bit b below my lowest set bit
  // (or below span for the root).
  const int limit = vrank == 0 ? span : (vrank & (-vrank));
  for (int b = limit >> 1; b >= 1; b >>= 1) {
    const int vchild = vrank + b;
    if (vchild < n) {
      Message m;
      m.bytes = bytes;
      m.payload = std::const_pointer_cast<void>(value);
      c.post(rank, (vchild + root) % n, 0, std::move(m));
    }
  }
  co_return value;
}

sim::Task<Seg> pairwise_reduce_scatter(Communicator& c, int rank,
                                       const SegOps& ops) {
  const int n = c.size();
  if (n == 1) co_return Seg{0, ops.split(0, 1)};
  std::any mine = ops.split(rank, n);
  for (int k = 1; k < n; ++k) {
    const int to = (rank + k) % n;
    const int from = (rank - k + n) % n;
    std::any contribution = ops.split(to, n);
    Message m;
    m.tag = k;
    m.bytes = ops.bytes(contribution);
    m.payload = std::make_shared<std::any>(std::move(contribution));
    c.post(rank, to, 0, std::move(m));
    Message in = co_await c.recv(rank, from, 0);
    co_await c.simulator().sleep(merge_cost(ops, in.bytes));
    ops.reduce_into(mine, incoming_seg(in));
  }
  co_return Seg{rank, std::move(mine)};
}

sim::Task<void> run_all_ranks(Communicator& c,
                              std::function<sim::Task<void>(int)> fn) {
  return sim::run_each(c.simulator(), c.size(), std::move(fn));
}

}  // namespace sparker::comm
