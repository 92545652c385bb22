// Quickstart: the smallest end-to-end use of the Sparker library.
//
// Builds a simulated 4-node BIC-like cluster, creates a cached RDD of
// integer vectors, and aggregates it twice — once with Spark's
// treeAggregate and once with Sparker's splitAggregate — verifying both
// produce the same sums and printing the simulated wall time of each.
//
// Build & run:   ./build/examples/quickstart [--trace-out trace.json]
//
// With --trace-out, the run records a structured trace and writes it as
// Chrome trace_event JSON — open it in Perfetto or chrome://tracing to see
// both aggregations span by span.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util/cli.hpp"
#include "engine/aggregate.hpp"
#include "engine/cluster.hpp"
#include "engine/rdd.hpp"
#include "net/cluster.hpp"
#include "obs/export.hpp"
#include "sim/simulator.hpp"

using namespace sparker;
using Vec = std::vector<std::int64_t>;

int main(int argc, char** argv) {
  std::string trace_out;
  bench::Cli({{"--trace-out", bench::text(&trace_out), "path"}})
      .parse(argc, argv);

  // A 4-node cluster modeled after the paper's BIC testbed (Table 1).
  sim::Simulator simulator;
  engine::EngineConfig config;
  config.trace.enabled = !trace_out.empty();
  engine::Cluster cluster(simulator, net::ClusterSpec::bic(4), config);

  // A cached RDD: 96 partitions (one per core) of integer vectors.
  const int dim = 1024;
  engine::CachedRdd<Vec> rdd(
      cluster.spec().total_cores(), cluster.num_executors(), [dim](int pid) {
        std::vector<Vec> rows(1, Vec(dim));
        for (int i = 0; i < dim; ++i) rows[0][i] = pid + i;
        return rows;
      });
  rdd.materialize();  // the equivalent of rdd.cache(); rdd.count()

  // The aggregation: element-wise vector sum. The `bytes` callback gives
  // the modeled wire size — here we pretend each aggregator is 64 MB so
  // the reduction paths behave as they would at the paper's scale.
  const double scale = static_cast<double>(64ull << 20) / (dim * 8);
  engine::TreeAggSpec<Vec, Vec> tree;
  tree.zero = Vec(dim, 0);
  tree.seq_op = [](Vec& acc, const Vec& row) {
    for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += row[i];
  };
  tree.comb_op = tree.seq_op;
  tree.bytes = [scale](const Vec& v) {
    return static_cast<std::uint64_t>(v.size() * 8 * scale);
  };

  engine::AggMetrics tree_metrics;
  cluster.config().agg_mode = engine::AggMode::kTree;
  auto tree_job = [&]() -> sim::Task<Vec> {
    co_return co_await engine::tree_aggregate(cluster, rdd, tree,
                                              &tree_metrics);
  };
  const Vec tree_result = simulator.run_task(tree_job());

  // Split aggregation adds the three SAI callbacks: splitOp / reduceOp /
  // concatOp (paper Figure 6).
  engine::SplitAggSpec<Vec, Vec, Vec> split;
  split.base = tree;
  split.split_op = [](const Vec& u, int seg, int nseg) {
    const int len = static_cast<int>(u.size());
    const int base = len / nseg, rem = len % nseg;
    const int lo = seg * base + std::min(seg, rem);
    return Vec(u.begin() + lo, u.begin() + lo + base + (seg < rem ? 1 : 0));
  };
  split.reduce_op = [](Vec& a, const Vec& b) {
    for (std::size_t i = 0; i < a.size(); ++i) a[i] += b[i];
  };
  split.concat_op = [](std::vector<std::pair<int, Vec>>& segs) {
    Vec out;
    for (auto& [idx, v] : segs) out.insert(out.end(), v.begin(), v.end());
    return out;
  };
  split.v_bytes = tree.bytes;

  engine::AggMetrics split_metrics;
  cluster.config().agg_mode = engine::AggMode::kSplit;
  auto split_job = [&]() -> sim::Task<Vec> {
    co_return co_await engine::split_aggregate(cluster, rdd, split,
                                               &split_metrics);
  };
  const Vec split_result = simulator.run_task(split_job());

  if (tree_result != split_result) {
    std::printf("ERROR: aggregation paths disagree!\n");
    return 1;
  }
  std::printf("both paths computed the same %d-element sum (first = %lld)\n",
              dim, static_cast<long long>(tree_result[0]));
  std::printf("treeAggregate : %8.3f s  (compute %.3f, reduce %.3f)\n",
              sim::to_seconds(tree_metrics.total()),
              sim::to_seconds(tree_metrics.compute_time()),
              sim::to_seconds(tree_metrics.reduce_time()));
  std::printf("splitAggregate: %8.3f s  (compute %.3f, reduce %.3f)\n",
              sim::to_seconds(split_metrics.total()),
              sim::to_seconds(split_metrics.compute_time()),
              sim::to_seconds(split_metrics.reduce_time()));
  std::printf("split aggregation speedup: %.2fx\n",
              static_cast<double>(tree_metrics.total()) /
                  static_cast<double>(split_metrics.total()));
  if (!trace_out.empty()) {
    obs::write_chrome_trace(cluster.trace(), trace_out);
    std::printf("trace written to %s (load it in Perfetto)\n",
                trace_out.c_str());
  }
  return 0;
}
