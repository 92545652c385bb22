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
    if (nodes == 1) {
      c1 = r.agg_compute_s;
      r1 = r.agg_reduce_s;
    }
    if (nodes == 8) {
      c8 = r.agg_compute_s;
      r8 = r.agg_reduce_s;
    }
    t.add_row({std::to_string(nodes), std::to_string(spec.total_cores()),
               bench::fmt(r.agg_compute_s, 1), bench::fmt(r.agg_reduce_s, 1),
               bench::fmt(r.non_agg_s, 1), bench::fmt(r.driver_s, 1),
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
