// Reproduces Figure 16: RDD aggregation scalability of tree aggregation
// (Tree), tree aggregation with in-memory merge (Tree+IMM) and split
// aggregation (Split) for 1 KB / 8 MB / 256 MB aggregators, scaling 1 -> 8
// BIC nodes. The micro-benchmark sums an RDD of fixed-length int64 arrays
// (MEMORY_ONLY, preloaded), one partition per core.
//
// Paper reference points at 8 nodes: 8 MB Split is 1.91x faster than Tree;
// 256 MB Split is 6.48x faster than Tree and Tree+IMM is 1.46x faster than
// Tree; Split's 8-node time is only 1.12x its 1-node time at 256 MB.

#include <cstdio>
#include <string>

#include "bench_util/cli.hpp"
#include "bench_util/runners.hpp"
#include "bench_util/json.hpp"
#include "bench_util/sim_speed.hpp"
#include "bench_util/table.hpp"

int main(int argc, char** argv) {
  using namespace sparker;
  // --algo selects the Split mode's collective (tree modes don't use one).
  comm::AlgoId algo = comm::AlgoId::kRing;
  bench::Cli({{"--algo", bench::algo(&algo), "name"}}).parse(argc, argv);
  bench::print_banner("Figure 16",
                      "Aggregation scalability: Tree vs Tree+IMM vs Split "
                      "(BIC, 1..8 nodes); seconds");
  std::printf("split collective algorithm: %s\n", comm::to_string(algo));

  struct SizeCase {
    const char* label;
    std::uint64_t bytes;
  };
  const SizeCase sizes[] = {
      {"1KB", 1ull << 10}, {"8MB", 8ull << 20}, {"256MB", 256ull << 20}};

  bench::JsonReport report("fig16_aggregation");
  double split_1node_256 = 0, split_8node_256 = 0;
  double tree_8node_256 = 0, imm_8node_256 = 0;
  double tree_8node_8m = 0, split_8node_8m = 0;
  for (const auto& sz : sizes) {
    std::printf("\n--- aggregator size %s ---\n", sz.label);
    bench::Table t({"nodes", "Tree (s)", "Tree+IMM (s)", "Split (s)",
                    "Split speedup"});
    for (int nodes : {1, 2, 4, 8}) {
      const net::ClusterSpec spec = bench::bic_with_nodes(nodes);
      const double tree =
          bench::aggregation_bench(spec, engine::AggMode::kTree, sz.bytes)
              .total_s;
      const double imm =
          bench::aggregation_bench(spec, engine::AggMode::kTreeImm, sz.bytes)
              .total_s;
      const double split =
          bench::aggregation_bench(spec, engine::AggMode::kSplit, sz.bytes,
                                   algo)
              .total_s;
      if (sz.bytes == (256ull << 20)) {
        if (nodes == 1) split_1node_256 = split;
        if (nodes == 8) {
          split_8node_256 = split;
          tree_8node_256 = tree;
          imm_8node_256 = imm;
        }
      }
      if (sz.bytes == (8ull << 20) && nodes == 8) {
        tree_8node_8m = tree;
        split_8node_8m = split;
      }
      t.add_row({std::to_string(nodes), bench::fmt(tree, 3),
                 bench::fmt(imm, 3), bench::fmt(split, 3),
                 bench::fmt_times(tree / split, 2)});
    }
    t.print();
    report.add_table(sz.label, t);
  }

  std::printf(
      "\nmeasured at 8 nodes: 8MB Split speedup %.2fx (paper 1.91x); "
      "256MB Split speedup %.2fx (paper 6.48x); 256MB Tree+IMM speedup "
      "%.2fx (paper 1.46x); Split 8-node/1-node at 256MB %.2fx (paper "
      "1.12x)\n",
      tree_8node_8m / split_8node_8m, tree_8node_256 / split_8node_256,
      tree_8node_256 / imm_8node_256, split_8node_256 / split_1node_256);
  report.set("split_speedup_8mb_8node", tree_8node_8m / split_8node_8m)
      .set("split_speedup_256mb_8node", tree_8node_256 / split_8node_256)
      .set("imm_speedup_256mb_8node", tree_8node_256 / imm_8node_256)
      .set("split_scaling_256mb", split_8node_256 / split_1node_256)
      .with_sim_speed().write();
  return 0;
}
