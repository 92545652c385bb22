// Ablation: In-Memory Merge in isolation. IMM's benefit comes from
// merging task results inside each executor before serialization, so it
// should grow with the number of tasks per executor and with aggregator
// size, and vanish at one task per executor. (Complements Figure 16,
// which fixes tasks-per-executor at the core count.)

#include <cstdio>
#include <string>

#include "bench_util/cli.hpp"
#include "bench_util/json.hpp"
#include "bench_util/sim_speed.hpp"
#include "bench_util/table.hpp"
#include "engine/aggregate.hpp"
#include "engine/cluster.hpp"
#include "engine/rdd.hpp"
#include "net/cluster.hpp"
#include "sim/simulator.hpp"

using namespace sparker;
using Vec = std::vector<std::int64_t>;

namespace {

double run(int tasks_per_executor, engine::AggMode mode,
           std::uint64_t modeled_bytes) {
  sim::Simulator simulator;
  bench::SimSpeedScope speed(simulator);
  net::ClusterSpec spec = net::ClusterSpec::bic(4);
  engine::Cluster cluster(simulator, spec);
  cluster.config().agg_mode = mode;
  const int partitions = cluster.num_executors() * tasks_per_executor;
  const int len = 1024;
  engine::CachedRdd<Vec> rdd(partitions, cluster.num_executors(),
                             [len](int pid) {
                               std::vector<Vec> rows(1, Vec(len));
                               for (int i = 0; i < len; ++i) {
                                 rows[0][i] = pid + i;
                               }
                               return rows;
                             });
  rdd.materialize();
  const double scale =
      static_cast<double>(modeled_bytes) / (len * sizeof(std::int64_t));
  engine::TreeAggSpec<Vec, Vec> tree;
  tree.zero = Vec(len, 0);
  tree.seq_op = [](Vec& a, const Vec& b) {
    for (std::size_t i = 0; i < a.size(); ++i) a[i] += b[i];
  };
  tree.comb_op = tree.seq_op;
  tree.bytes = [scale](const Vec& v) {
    return static_cast<std::uint64_t>(v.size() * 8 * scale);
  };
  engine::AggMetrics m;
  auto job = [&]() -> sim::Task<Vec> {
    co_return co_await engine::tree_aggregate(cluster, rdd, tree, &m);
  };
  (void)simulator.run_task(job());
  return sim::to_seconds(m.total());
}

}  // namespace

int main(int argc, char** argv) {
  bench::Cli({}).parse(argc, argv);
  bench::print_banner("Ablation: In-Memory Merge",
                      "Tree vs Tree+IMM vs tasks-per-executor (BIC 4 "
                      "nodes, 64 MB aggregators); seconds");

  bench::Table t({"tasks/executor", "Tree (s)", "Tree+IMM (s)", "IMM gain"});
  for (int tpe : {1, 2, 4, 8, 16}) {
    const double tree = run(tpe, engine::AggMode::kTree, 64ull << 20);
    const double imm = run(tpe, engine::AggMode::kTreeImm, 64ull << 20);
    t.add_row({std::to_string(tpe), bench::fmt(tree, 2), bench::fmt(imm, 2),
               bench::fmt_times(tree / imm, 2)});
  }
  t.print();

  std::printf("\nand vs aggregator size at 4 tasks/executor:\n\n");
  bench::Table t2({"aggregator", "Tree (s)", "Tree+IMM (s)", "IMM gain"});
  struct Size {
    const char* label;
    std::uint64_t bytes;
  };
  for (const auto& sz : {Size{"64KB", 64ull << 10}, Size{"1MB", 1ull << 20},
                         Size{"16MB", 16ull << 20}, Size{"64MB", 64ull << 20},
                         Size{"256MB", 256ull << 20}}) {
    const double tree = run(4, engine::AggMode::kTree, sz.bytes);
    const double imm = run(4, engine::AggMode::kTreeImm, sz.bytes);
    t2.add_row({sz.label, bench::fmt(tree, 3), bench::fmt(imm, 3),
                bench::fmt_times(tree / imm, 2)});
  }
  t2.print();
  bench::JsonReport("ablation_imm")
      .add_table("tasks_per_executor", t)
      .add_table("aggregator_size", t2)
      .with_sim_speed().write();
  std::printf(
      "\nIMM's gain appears only with >1 task per executor and grows with "
      "aggregator size — it removes per-task serialization and shrinks the "
      "shuffle fan-in (paper Section 3.2).\n");
  return 0;
}
