// Reproduces Figure 17: end-to-end speedup of Sparker (split aggregation)
// over vanilla Spark (tree aggregation) for the nine workloads on both
// clusters. Paper reference points: geometric-mean speedup 1.60x on BIC
// and 1.81x on AWS; the largest speedup is SVM-K at 2.62x (BIC) and 3.69x
// (AWS); LDA-N, LR-K, SVM-K and SVM-K12 exceed 2x on AWS because their
// aggregators are the largest.

#include <cmath>
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
  bench::print_banner("Figure 17",
                      "End-to-end Sparker speedup over Spark, 9 workloads, "
                      "BIC and AWS (10 iterations each)");

  struct ClusterCase {
    const char* name;
    net::ClusterSpec spec;
    int iters;
    double paper_geomean;
  };
  const ClusterCase cases[] = {
      {"BIC", bench::bic_with_nodes(8), 10, 1.60},
      {"AWS", net::ClusterSpec::aws(10), 10, 1.81},
  };

  bench::JsonReport report("fig17_end_to_end");
  for (const auto& c : cases) {
    std::printf("\n--- %s ---\n", c.name);
    bench::Table t({"workload", "Spark (s)", "Sparker (s)", "speedup"});
    double log_sum = 0;
    double best = 0;
    std::string best_name;
    int n = 0;
    for (const auto& w : ml::paper_workloads()) {
      const auto spark =
          bench::run_e2e(c.spec, engine::AggMode::kTree, w, c.iters);
      const auto sparker =
          bench::run_e2e(c.spec, engine::AggMode::kSplit, w, c.iters);
      const double speedup = spark.total_s / sparker.total_s;
      log_sum += std::log(speedup);
      ++n;
      if (speedup > best) {
        best = speedup;
        best_name = w.name;
      }
      t.add_row({w.name, bench::fmt(spark.total_s, 1),
                 bench::fmt(sparker.total_s, 1),
                 bench::fmt_times(speedup, 2)});
    }
    t.print();
    std::printf(
        "measured %s: geomean %.2fx (paper %.2fx); best %s at %.2fx "
        "(paper: SVM-K, %.2fx)\n",
        c.name, std::exp(log_sum / n), c.paper_geomean, best_name.c_str(),
        best, c.paper_geomean == 1.60 ? 2.62 : 3.69);
    report.add_table(c.name, t);
    report.set(std::string(c.name) + "_geomean", std::exp(log_sum / n));
  }
  bench::add_sim_speed_fields(report).write();
  return 0;
}
