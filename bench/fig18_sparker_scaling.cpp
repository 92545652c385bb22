// Reproduces Figure 18: strong-scaling decomposition of LDA-N on AWS under
// vanilla Spark vs Sparker, 8 to 960 cores, 15 iterations. Paper reference
// points: at 8 cores, reduction 26.36 s (Spark) vs 6.29 s (Sparker), a
// 4.19x reduction speedup; at 960 cores, 111.26 s vs 15.41 s, 7.22x — the
// scalable reduction's advantage grows with scale, and the driver becomes
// the new bottleneck (Section 6).

#include <cstdio>
#include <string>

#include "bench_util/cli.hpp"
#include "bench_util/runners.hpp"
#include "bench_util/json.hpp"
#include "bench_util/sim_speed.hpp"
#include "bench_util/table.hpp"
#include "ml/workload.hpp"

int main(int argc, char** argv) {
  using namespace sparker;
  bench::Cli({}).parse(argc, argv);
  bench::print_banner("Figure 18",
                      "LDA-N Spark vs Sparker decomposition (AWS, 15 "
                      "iterations); seconds");

  const auto& w = ml::workload_by_name("LDA-N");
  const int iters = 15;
  bench::Table t({"cores", "mode", "agg-compute", "agg-reduce", "non-agg",
                  "driver", "total", "reduce speedup"});
  double s8 = 0, s960 = 0;
  for (int cores : {8, 96, 480, 960}) {
    const auto spec = bench::aws_with_cores(cores);
    const auto spark = bench::run_e2e(spec, engine::AggMode::kTree, w, iters);
    const auto sparker =
        bench::run_e2e(spec, engine::AggMode::kSplit, w, iters);
    const double reduce_speedup =
        sim::to_seconds(spark.breakdown.agg_reduce) /
        sim::to_seconds(sparker.breakdown.agg_reduce);
    if (cores == 8) s8 = reduce_speedup;
    if (cores == 960) s960 = reduce_speedup;
    const auto add_row = [&t](std::string label, const char* mode,
                              const bench::E2eResult& r, std::string last) {
      const obs::PhaseBreakdown& b = r.breakdown;
      t.add_row({std::move(label), mode,
                 bench::fmt(sim::to_seconds(b.agg_compute), 1),
                 bench::fmt(sim::to_seconds(b.agg_reduce), 1),
                 bench::fmt(sim::to_seconds(b.non_agg), 1),
                 bench::fmt(sim::to_seconds(b.driver), 1),
                 bench::fmt(r.total_s, 1), std::move(last)});
    };
    add_row(std::to_string(cores), "Spark", spark, "");
    add_row("", "Sparker", sparker, bench::fmt_times(reduce_speedup, 2));
  }
  t.print();
  bench::JsonReport report("fig18_sparker_scaling");
  report.add_table("results", t);

  report.with_sim_speed().write();
  std::printf(
      "\nmeasured: reduction speedup %.2fx at 8 cores (paper 4.19x) growing "
      "to %.2fx at 960 cores (paper 7.22x)\n",
      s8, s960);
  return 0;
}
