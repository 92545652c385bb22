// Reproduces Figure 3: strong-scaling decomposition of LDA-N on BIC under
// vanilla Spark, 1 node (24 cores) to 8 nodes (192 cores), 40 iterations.
// Paper reference points: computation shrinks 1152.38 s -> 342.43 s
// (4.47x) while reduction GROWS 111.05 s -> 187.48 s (1.69x) — reduction
// is the scalability bottleneck.

#include <cstdio>

#include "bench_util/cli.hpp"
#include "bench_util/runners.hpp"
#include "bench_util/json.hpp"
#include "bench_util/sim_speed.hpp"
#include "bench_util/table.hpp"
#include "ml/workload.hpp"

int main(int argc, char** argv) {
  using namespace sparker;
  bench::Cli({}).parse(argc, argv);
  bench::print_banner("Figure 3",
                      "LDA-N strong scaling decomposition (BIC, vanilla "
                      "Spark, 40 iterations); seconds");

  const auto& w = ml::workload_by_name("LDA-N");
  const int iters = 40;
  bench::Table t({"nodes", "cores", "agg-compute", "agg-reduce", "non-agg",
                  "driver", "total"});
  double c1 = 0, c8 = 0, r1 = 0, r8 = 0;
  for (int nodes : {1, 2, 4, 8}) {
    const auto spec = bench::bic_with_nodes(nodes);
    const auto r =
        bench::run_e2e(spec, engine::AggMode::kTree, w, iters);
    const double compute = sim::to_seconds(r.breakdown.agg_compute);
    const double reduce = sim::to_seconds(r.breakdown.agg_reduce);
    if (nodes == 1) {
      c1 = compute;
      r1 = reduce;
    }
    if (nodes == 8) {
      c8 = compute;
      r8 = reduce;
    }
    t.add_row({std::to_string(nodes), std::to_string(spec.total_cores()),
               bench::fmt(compute, 1), bench::fmt(reduce, 1),
               bench::fmt(sim::to_seconds(r.breakdown.non_agg), 1),
               bench::fmt(sim::to_seconds(r.breakdown.driver), 1),
               bench::fmt(r.total_s, 1)});
  }
  t.print();
  bench::JsonReport("fig03_lda_scaling_bic").add_table("results", t).with_sim_speed().write();
  std::printf(
      "\nmeasured: compute shrinks %.2fx (paper 4.47x: 1152.38->342.43 s); "
      "reduction grows %.2fx (paper 1.69x: 111.05->187.48 s)\n",
      c1 / c8, r8 / r1);
  return 0;
}
