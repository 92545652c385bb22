#include "comm/registry.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <iterator>
#include <stdexcept>

/// \file registry.cpp
/// Algorithm names and the cost-model auto-tuner.
///
/// The tuner is an analytic alpha-beta-gamma model: per-message overhead
/// (alpha), per-byte transport cost (beta, including the JVM IO-thread
/// copies and NIC sharing the fabric prices), and per-byte merge cost
/// (gamma). It is deliberately cruder than the simulator — its only job is
/// to rank the registered algorithms the same way the simulated curves do,
/// which tests/tuner_test.cpp checks against the fig14/15/16 grids.

namespace sparker::comm {

const char* to_string(AlgoId id) {
  const auto i = static_cast<std::size_t>(id);
  return i < std::size(kAlgoTable) ? kAlgoTable[i].name : "?";
}

const char* to_string(CollectiveOp op) {
  switch (op) {
    case CollectiveOp::kReduceScatter:
      return "reduce_scatter";
    case CollectiveOp::kAllreduce:
      return "allreduce";
  }
  return "?";
}

std::optional<AlgoId> parse_algo(std::string_view name) {
  for (const AlgoRow& row : kAlgoTable) {
    if (name == row.name) return row.id;
  }
  return std::nullopt;
}

std::string algo_names() {
  std::string out;
  for (const AlgoRow& row : kAlgoTable) {
    if (!out.empty()) out += "|";
    out += row.name;
  }
  return out;
}

const std::vector<AlgoId>& registered_algos(CollectiveOp op) {
  const auto rows_for = [](CollectiveOp o) {
    std::vector<AlgoId> ids;
    for (const AlgoRow& row : kAlgoTable) {
      if (row.serves(o)) ids.push_back(row.id);
    }
    return ids;
  };
  static const std::vector<AlgoId> rs = rows_for(CollectiveOp::kReduceScatter);
  static const std::vector<AlgoId> ar = rows_for(CollectiveOp::kAllreduce);
  return op == CollectiveOp::kReduceScatter ? rs : ar;
}

AlgoId canonical_algo(CollectiveOp op, AlgoId id) {
  const AlgoRow& want = algo_row(id);
  if (want.serves(op)) return id;
  for (const AlgoRow& row : kAlgoTable) {
    if (row.serves(op) && row.flow == want.flow &&
        row.encoding == want.encoding) {
      return row.id;
    }
  }
  return id;
}

AlgoId registered_algo(CollectiveOp op, AlgoId id) {
  const AlgoId a = canonical_algo(op, id);
  if (!algo_row(a).serves(op)) {
    throw std::invalid_argument(std::string(to_string(id)) +
                                " is not registered for " + to_string(op));
  }
  return a;
}

CollectiveCostInputs cost_inputs(const net::ClusterSpec& spec,
                                 const net::LinkParams& link,
                                 std::uint64_t bytes, int n, int parallelism) {
  CollectiveCostInputs in;
  in.bytes = bytes;
  in.n = std::max(1, n);
  in.parallelism = std::max(1, parallelism);
  in.io_cores = std::max(1, spec.cores_per_executor);
  in.ranks_per_host = std::max(1, std::min(in.n, spec.executors_per_node));
  in.stream_bw = link.stream_bw;
  in.nic_bw = spec.fabric.host.nic_bw;
  in.merge_bw = spec.rates.merge_bw;
  in.codec_bw = spec.rates.codec_bw;
  in.jvm = link.jvm;
  in.msg_overhead_s = sim::to_seconds(link.send_overhead +
                                      link.recv_overhead +
                                      spec.fabric.inter_latency);
  return in;
}

double predict_seconds(CollectiveOp op, AlgoId algo,
                       const CollectiveCostInputs& in) {
  const AlgoRow& row = algo_row(canonical_algo(op, algo));
  const bool sparse = row.encoding == Encoding::kSparse;
  const double S = static_cast<double>(in.bytes);
  const double n = static_cast<double>(std::max(1, in.n));
  const double P = static_cast<double>(std::max(1, in.parallelism));
  const double io = static_cast<double>(
      std::max(1, std::min(in.parallelism, in.io_cores)));
  const double o = in.msg_overhead_s;
  const double bw = in.stream_bw;
  const double gamma = 1.0 / in.merge_bw;    // per-byte merge cost
  const double gamma_c = 1.0 / in.codec_bw;  // per-byte codec scan cost
  const double jvm = in.jvm ? 1.0 : 0.0;
  const double rph = static_cast<double>(std::max(1, in.ranks_per_host));
  if (in.n <= 1) return 0.0;
  const double rounds_log =  // ceil(log2(n))
      static_cast<double>(std::bit_width(static_cast<unsigned>(in.n - 1)));

  // Whether any hop can cross hosts at all (single-host runs never touch
  // the NIC — the fabric routes them over the loopback).
  const bool multi_host = in.n > in.ranks_per_host;
  // Channels per IO core: a rank's send and recv copies of the same
  // channel serialize on one IO thread (the JeroMQ model in
  // comm::Communicator), and channels beyond io_cores share threads.
  const double cpc = std::ceil(P / io);

  // Per-round critical path of the P-channel topology-aware ring: the two
  // JVM copies of each channel serialize on its IO thread; hops are
  // intra-host (loopback, free wire) except at each host boundary, whose
  // rank pushes its P segments through the shared NIC. Non-JVM links skip
  // the copies but pay the stream-paced wire.
  auto ring_round = [&](double s) {
    const double copies = jvm * 2.0 * s * cpc / bw;
    const double nic = multi_host ? P * s / in.nic_bw : 0.0;
    const double wire = jvm ? 0.0 : s / bw;
    return copies + nic + wire;
  };
  // One flat (channel-0) hop moving s bytes: send copy, then the wire —
  // stream-paced at the link rate, or the shared NIC when `cross`
  // host-crossing streams per host exceed it — then the recv copy.
  // `cross` == 0 means an intra-host hop (loopback, free wire).
  auto flat_hop = [&](double s, double cross) {
    const double copies = jvm * 2.0 * s / bw;
    const double wire =
        cross > 0.0 ? std::max(s / bw, cross * s / in.nic_bw) : 0.0;
    return copies + wire;
  };
  // Fraction of pairwise/allgather partners that live on another host.
  const double cross_frac =
      !multi_host ? 0.0 : (n - rph) / std::max(1.0, n - 1);

  // Per-hop bytes of a segment that is `dense_s` bytes dense. A sparse
  // row's encoded entry costs 1.5x its dense bytes (4-byte index + 8-byte
  // value), capped at the dense size by the adaptive switch. Fill-in from
  // folding more ranks' contributions is priced at the stationary
  // estimate, not the worst-case disjoint union: ML aggregators concentrate
  // updates on hot coordinates, so the union tracks the per-rank density —
  // and when a workload does fill in past the 2/3 crossover, the adaptive
  // representation switches the segment dense mid-ring, so the cost of an
  // optimistic pick is bounded by the dense ring plus two codec scans.
  auto hop_bytes = [&](double dense_s) {
    return sparse ? std::min(dense_s, 1.5 * in.density * dense_s) : dense_s;
  };

  auto rs_cost = [&]() -> double {
    switch (row.flow) {
      case Dataflow::kRing: {
        // A sparse row adds one streaming codec pass each to encode at the
        // start and decode at the end (gather/scatter scans, priced at the
        // codec bandwidth the engine charges them at). At density 1.0 that
        // is the dense ring plus the codec passes — strictly dominated, so
        // the tuner only ever picks it on a real (sub-crossover) density
        // estimate.
        const double s = hop_bytes(S / (n * P));  // per-channel segment
        const double codec = sparse ? 2.0 * S * gamma_c : 0.0;
        return codec + (n - 1) * (o + ring_round(s) + s * gamma);
      }
      case Dataflow::kPairwise: {
        // Hostname-ordered ranks: at exchange distance k most partners are
        // on other hosts, so each host's NIC carries ~rph * cross_frac
        // concurrent streams per round.
        const double s = S / n;
        return (n - 1) * (o + flat_hop(s, rph * cross_frac) + s * gamma);
      }
      case Dataflow::kHalving: {
        // log2(n) exchange rounds moving S/2, S/4, ...: partners sit at
        // distance n/2^r, which crosses hosts (every rank on the host at
        // once) until the distance drops below the host width.
        double t = 0.0;
        double s = S / 2.0, dist = n / 2.0;
        for (int r = 0; r < static_cast<int>(rounds_log); ++r) {
          const double cross = multi_host && dist >= rph ? rph : 0.0;
          t += o + flat_hop(s, cross) + s * gamma;
          s /= 2.0;
          dist /= 2.0;
        }
        // Non-power-of-two: the surplus ranks pre-fold whole values into
        // their (adjacent, mostly intra-host) partners.
        const bool pow2 = (in.n & (in.n - 1)) == 0;
        if (!pow2) t += o + flat_hop(S, multi_host ? 1.0 : 0.0) + S * gamma;
        return t;
      }
      case Dataflow::kFunnel: {
        // n-1 whole values converge on rank 0: its recv IO thread (JVM) and
        // its NIC ingress serialize them; merges are also serial there.
        const double nic_in = multi_host ? (n - rph) * S / in.nic_bw : 0.0;
        const double drain = (n - 1) * S * (jvm / bw + gamma) + nic_in;
        return o + drain;
      }
      case Dataflow::kNone:
        break;
    }
    return 1e30;  // kAuto: not dispatchable
  };

  // The allgather each dataflow's allreduce adds to its reduce-scatter.
  auto ag_cost = [&]() -> double {
    switch (row.flow) {
      case Dataflow::kRing:
        return (n - 1) * (o + ring_round(hop_bytes(S / (n * P))));
      case Dataflow::kPairwise:
      case Dataflow::kHalving:
        // The flat ring allgather: n-1 neighbour hops of one segment,
        // crossing hosts only at each host boundary.
        return (n - 1) * (o + flat_hop(S / n, multi_host ? 1.0 : 0.0));
      case Dataflow::kFunnel:
        // Binomial broadcast of the whole value from rank 0.
        return rounds_log * (o + flat_hop(S, multi_host ? 1.0 : 0.0));
      case Dataflow::kNone:
        break;
    }
    return 0.0;
  };

  if (op == CollectiveOp::kReduceScatter) return rs_cost();
  return rs_cost() + ag_cost();
}

AlgoId pick_algo(CollectiveOp op, const CollectiveCostInputs& in) {
  AlgoId best = registered_algos(op).front();
  double best_t = predict_seconds(op, best, in);
  for (AlgoId a : registered_algos(op)) {
    const double t = predict_seconds(op, a, in);
    if (t < best_t) {
      best = a;
      best_t = t;
    }
  }
  return best;
}

AlgoId resolve_algo(CollectiveOp op, AlgoId requested,
                    const CollectiveCostInputs& in) {
  return requested == AlgoId::kAuto ? pick_algo(op, in)
                                    : registered_algo(op, requested);
}

AlgoId retune_algo(CollectiveOp op, AlgoId configured, AlgoId previous,
                   const CollectiveCostInputs& in) {
  if (configured != AlgoId::kAuto || previous == AlgoId::kAuto) {
    return resolve_algo(op, configured, in);
  }
  const AlgoId prev = canonical_algo(op, previous);
  const AlgoId best = pick_algo(op, in);
  if (prev == best || !algo_row(prev).serves(op)) return best;
  // Hysteresis: keep the incumbent unless the re-tuned pick is predicted
  // >10% faster on the new ring, so small membership changes don't flap
  // the algorithm (and its warm state) back and forth.
  const double prev_t = predict_seconds(op, prev, in);
  const double best_t = predict_seconds(op, best, in);
  return prev_t <= best_t * 1.10 ? prev : best;
}

}  // namespace sparker::comm
