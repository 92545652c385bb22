// Figure 19 (beyond the paper's 18): the sparse/compressed aggregation
// ring. Sweeps aggregator density x modeled aggregator size x cluster
// size and compares the dense ring (kRing) against the index+value
// compressed ring (kSparseRing) on the split-aggregation path, with the
// cost-model auto-tuner (kAuto) run alongside to check that it switches
// to compression exactly where the measured crossover says it wins.
//
// The micro-benchmark mirrors Figure 16's setup — sum an RDD of
// fixed-length int64 arrays, one partition per core, MEMORY_ONLY — except
// each row is sparse: only every stride-th slot is nonzero, so the merged
// aggregator's density is ~1/stride and the adaptive segments stay sparse
// end to end. Every configuration's result is asserted bit-identical to a
// plain sequential fold (the compressed path may never change a value),
// and the SparCML-style expectation is checked: compression wins below
// the ~2/3 index+value crossover with ~1/(1.5 * density) headroom, so at
// 1% density the sparse ring must be at least 10x faster.

#include <cstdio>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_util/cli.hpp"
#include "bench_util/json.hpp"
#include "bench_util/runners.hpp"
#include "bench_util/sim_speed.hpp"
#include "bench_util/table.hpp"
#include "comm/registry.hpp"
#include "obs/export.hpp"
#include "comp/sparse.hpp"
#include "engine/aggregate.hpp"
#include "engine/cluster.hpp"
#include "engine/rdd.hpp"
#include "net/cluster.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace sparker;
using Vec = std::vector<std::int64_t>;
using AVec = comp::AdaptiveVector<std::int64_t>;

// Real int64s per aggregator (modeled bytes come from byte-scaling). Large
// enough that every ring segment (kLen / (ranks * channels) elements) holds
// several nonzeros even at 0.1% density — with a short proxy vector the
// per-segment density is 0-or-lumpy and a single overweight segment's trip
// around the ring dominates the modeled time.
constexpr int kLen = 1 << 19;

struct RunResult {
  double reduce_s = 0;
  double total_s = 0;
  comm::AlgoId ran = comm::AlgoId::kAuto;  ///< what the engine dispatched
  Vec value;
};

// The expected value of the benchmark job: a sequential fold of every
// partition's rows, the executable spec the simulated runs must match.
Vec sequential_reference(int partitions, int stride) {
  Vec out(kLen, 0);
  for (int pid = 0; pid < partitions; ++pid) {
    for (int i = 0; i < kLen; i += stride) {
      out[static_cast<std::size_t>(i)] += pid * kLen + i;
    }
  }
  return out;
}

RunResult run_point(const net::ClusterSpec& spec, std::uint64_t message_bytes,
                    int stride, comm::AlgoId algo,
                    const std::string& trace_out = "") {
  sim::Simulator sim;
  bench::SimSpeedScope speed(sim);
  engine::EngineConfig cfg;
  cfg.agg_mode = engine::AggMode::kSplit;
  cfg.collective_algo = algo;
  cfg.trace.enabled = !trace_out.empty();
  engine::Cluster cl(sim, spec, cfg);
  const int partitions = spec.total_cores();
  const double bytes_scale = static_cast<double>(message_bytes) /
                             (kLen * sizeof(std::int64_t));
  auto gen = [stride](int pid) {
    std::vector<Vec> rows(1);
    rows[0].assign(kLen, 0);
    for (int i = 0; i < kLen; i += stride) {
      rows[0][static_cast<std::size_t>(i)] = pid * kLen + i;
    }
    return rows;
  };
  engine::CachedRdd<Vec> rdd(partitions, cl.num_executors(), gen);
  rdd.materialize();

  const double merge_bw = spec.rates.merge_bw;
  engine::SplitAggSpec<Vec, Vec, AVec> job;
  job.base.zero = Vec(kLen, 0);
  job.base.seq_op = [](Vec& agg, const Vec& row) {
    for (std::size_t i = 0; i < agg.size(); ++i) agg[i] += row[i];
  };
  job.base.comb_op = job.base.seq_op;
  job.base.bytes = [bytes_scale](const Vec& v) {
    return static_cast<std::uint64_t>(
        static_cast<double>(v.size() * sizeof(std::int64_t)) * bytes_scale);
  };
  job.base.partition_cost = [message_bytes, merge_bw](
                                int, const std::vector<Vec>& rows) {
    return sim::transfer_time(
        static_cast<double>(message_bytes) * static_cast<double>(rows.size()),
        merge_bw);
  };
  job.split_op = [](const Vec& u, int seg, int nseg) {
    const int l = static_cast<int>(u.size());
    const int base = l / nseg, rem = l % nseg;
    const int lo = seg * base + std::min(seg, rem);
    const int hi = lo + base + (seg < rem ? 1 : 0);
    return AVec::dense(Vec(u.begin() + lo, u.begin() + hi));
  };
  job.reduce_op = [](AVec& a, const AVec& b) { a.add(b); };
  job.concat_op = [](std::vector<std::pair<int, AVec>>& segs) {
    Vec out;
    for (auto& [idx, v] : segs) {
      Vec d = std::move(v).to_dense();
      out.insert(out.end(), d.begin(), d.end());
    }
    return AVec::dense(std::move(out));
  };
  job.v_bytes = [bytes_scale](const AVec& v) {
    return static_cast<std::uint64_t>(
        static_cast<double>(v.serialized_bytes()) * bytes_scale);
  };
  job.density_op = [](const Vec& u) {
    std::size_t nnz = 0;
    for (auto x : u) nnz += x != 0;
    return u.empty() ? 1.0
                     : static_cast<double>(nnz) / static_cast<double>(u.size());
  };
  job.encode_op = [](AVec v) { return AVec::encode(std::move(v).to_dense()); };
  job.is_sparse_op = [](const AVec& v) { return v.is_sparse(); };

  engine::AggMetrics m;
  auto task = [&]() -> sim::Task<Vec> {
    AVec v = co_await engine::split_aggregate(cl, rdd, job, &m);
    co_return std::move(v).to_dense();
  };
  RunResult r;
  r.value = sim.run_task(task());
  r.reduce_s = sim::to_seconds(m.reduce_time());
  r.total_s = sim::to_seconds(m.total());
  r.ran = algo;
  if (!trace_out.empty()) obs::write_chrome_trace(cl.trace(), trace_out);
  if (algo == comm::AlgoId::kAuto) {
    // What the tuner actually dispatched, from the engine's own counter.
    for (comm::AlgoId a :
         comm::registered_algos(comm::CollectiveOp::kReduceScatter)) {
      if (cl.metrics().counter_value(std::string("agg.collective.") +
                                     comm::to_string(a)) > 0) {
        r.ran = a;
        break;
      }
    }
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sparker;
  std::string trace_out;
  bench::Cli({{"--trace-out", bench::text(&trace_out), "path"}})
      .parse(argc, argv);
  bench::print_banner("Figure 19",
                      "Sparse ring: dense vs compressed reduce time across "
                      "density x aggregator size x nodes; seconds");

  struct DensityCase {
    const char* label;
    int stride;
  };
  // Merged-aggregator density ~ ceil(kLen/stride)/kLen.
  const DensityCase densities[] = {{"0.1%", 1024}, {"1%", 100}, {"3%", 32},
                                   {"12.5%", 8},   {"50%", 2},  {"100%", 1}};
  struct SizeCase {
    const char* label;
    std::uint64_t bytes;
  };
  const SizeCase sizes[] = {{"256MB", 256ull << 20}, {"2GB", 2ull << 30}};

  bench::JsonReport report("fig19_sparse_ring");
  double speedup_1pct_8node_2gb = 0;
  int tuner_checked = 0, tuner_agreed = 0, tuner_disputed = 0;
  bool identical = true;

  for (int nodes : {2, 8}) {
    const net::ClusterSpec spec = bench::bic_with_nodes(nodes);
    const int partitions = spec.total_cores();
    for (const auto& sz : sizes) {
      std::printf("\n--- %d nodes, aggregator %s ---\n", nodes, sz.label);
      bench::Table t({"density", "dense ring (s)", "sparse ring (s)",
                      "speedup", "auto (s)", "auto picked"});
      for (const auto& d : densities) {
        const Vec want = sequential_reference(partitions, d.stride);
        // Trace the paper-scale compressed point (the interesting one:
        // comp.encode / comp.decode / comp.switch events in context).
        const bool trace_this = !trace_out.empty() && nodes == 8 &&
                                sz.bytes == (2ull << 30) && d.stride == 100;
        const RunResult dense =
            run_point(spec, sz.bytes, d.stride, comm::AlgoId::kRing);
        const RunResult sparse =
            run_point(spec, sz.bytes, d.stride, comm::AlgoId::kSparseRing,
                      trace_this ? trace_out : "");
        const RunResult autop =
            run_point(spec, sz.bytes, d.stride, comm::AlgoId::kAuto);
        if (dense.value != want || sparse.value != want ||
            autop.value != want) {
          identical = false;
          std::fprintf(stderr,
                       "BIT-IDENTITY VIOLATION at %d nodes %s density %s\n",
                       nodes, sz.label, d.label);
        }
        const double speedup = dense.reduce_s / sparse.reduce_s;
        if (nodes == 8 && sz.bytes == (2ull << 30) && d.stride == 100) {
          speedup_1pct_8node_2gb = speedup;
        }
        // Tuner agreement: when the engine's auto mode considered this
        // point, did it take the compressed path exactly when the measured
        // times say compression wins? Near the crossover the margin is
        // inside the cost model's noise floor, so only decisively-separated
        // points (>10%) are scored.
        const bool measured_sparse_wins = sparse.reduce_s < dense.reduce_s;
        const bool picked_sparse = autop.ran == comm::AlgoId::kSparseRing;
        const double margin = measured_sparse_wins
                                  ? dense.reduce_s / sparse.reduce_s
                                  : sparse.reduce_s / dense.reduce_s;
        if (margin > 1.1) {
          ++tuner_checked;
          if (picked_sparse == measured_sparse_wins) {
            ++tuner_agreed;
          } else {
            ++tuner_disputed;
            std::printf("  [tuner disagreement at density %s: picked %s, "
                        "measured winner %s]\n",
                        d.label, comm::to_string(autop.ran),
                        measured_sparse_wins ? "sparse_ring" : "ring");
          }
        }
        t.add_row({d.label, bench::fmt(dense.reduce_s, 4),
                   bench::fmt(sparse.reduce_s, 4), bench::fmt_times(speedup, 2),
                   bench::fmt(autop.reduce_s, 4), comm::to_string(autop.ran)});
      }
      t.print();
      report.add_table(std::to_string(nodes) + "n_" + sz.label, t);
    }
  }

  if (!trace_out.empty()) {
    std::printf("\ntrace written to %s\n", trace_out.c_str());
  }

  std::printf(
      "\nbit-identical at every point: %s\n"
      "1%% density, 8 nodes, 2GB: sparse ring %.2fx faster (target >= 10x)\n"
      "tuner vs measured winner: %d/%d decisively-separated points agree\n",
      identical ? "yes" : "NO", speedup_1pct_8node_2gb, tuner_agreed,
      tuner_checked);
  report.set("bit_identical", identical ? 1.0 : 0.0)
      .set("speedup_1pct_8node_2gb", speedup_1pct_8node_2gb)
      .set("tuner_points_checked", tuner_checked)
      .set("tuner_points_agreed", tuner_agreed)
      .with_sim_speed()
      .write();

  if (!identical) {
    std::fprintf(stderr, "FAIL: compressed path changed a value\n");
    return 1;
  }
  if (speedup_1pct_8node_2gb < 10.0) {
    std::fprintf(stderr, "FAIL: sparse ring speedup %.2fx < 10x at 1%%\n",
                 speedup_1pct_8node_2gb);
    return 1;
  }
  if (tuner_disputed > 0) {
    std::fprintf(stderr, "FAIL: tuner disagreed with measured winner at %d "
                         "decisively-separated points\n",
                 tuner_disputed);
    return 1;
  }
  return 0;
}
