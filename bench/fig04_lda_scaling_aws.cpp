// Reproduces Figure 4: strong-scaling decomposition of LDA-N on AWS under
// vanilla Spark, 4 to 960 cores, 15 iterations. Paper reference points:
// computation shrinks 272.36 s -> 58.39 s (4.66x, from 8 cores) while
// reduction grows 26.38 s -> 111.23 s (4.22x); the reduction share grows
// from 6.95% to 44.55% — at scale, reduction dominates.

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
  bench::print_banner("Figure 4",
                      "LDA-N strong scaling decomposition (AWS, vanilla "
                      "Spark, 15 iterations); seconds");

  const auto& w = ml::workload_by_name("LDA-N");
  const int iters = 15;
  bench::Table t({"cores", "agg-compute", "agg-reduce", "non-agg", "driver",
                  "total", "reduce %"});
  double c8 = 0, c960 = 0, r8 = 0, r960 = 0, pct8 = 0, pct960 = 0;
  for (int cores : {8, 24, 48, 96, 192, 480, 960}) {
    const auto spec = bench::aws_with_cores(cores);
    const auto r = bench::run_e2e(spec, engine::AggMode::kTree, w, iters);
    const double compute = sim::to_seconds(r.breakdown.agg_compute);
    const double reduce = sim::to_seconds(r.breakdown.agg_reduce);
    const double pct = 100.0 * reduce / r.total_s;
    if (cores == 8) {
      c8 = compute;
      r8 = reduce;
      pct8 = pct;
    }
    if (cores == 960) {
      c960 = compute;
      r960 = reduce;
      pct960 = pct;
    }
    t.add_row({std::to_string(cores), bench::fmt(compute, 1),
               bench::fmt(reduce, 1),
               bench::fmt(sim::to_seconds(r.breakdown.non_agg), 1),
               bench::fmt(sim::to_seconds(r.breakdown.driver), 1),
               bench::fmt(r.total_s, 1), bench::fmt(pct, 1)});
  }
  t.print();
  bench::JsonReport("fig04_lda_scaling_aws").add_table("results", t).with_sim_speed().write();
  std::printf(
      "\nmeasured 8->960 cores: compute shrinks %.2fx (paper 4.66x); "
      "reduction grows %.2fx (paper 4.22x); reduction share %.1f%% -> "
      "%.1f%% (paper 6.95%% -> 44.55%%)\n",
      c8 / c960, r960 / r8, pct8, pct960);
  return 0;
}
