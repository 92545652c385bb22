// Reproduces Figure 1: the 8-node vs 1-node speedup of the nine MLlib
// workloads on BIC with vanilla Spark (tree aggregation). The paper's
// headline: all workloads fall far below the perfect speedup of 8 — the
// best is LDA-N at 2.49x, the worst LR-K at 0.73x (adding machines makes
// it slower), average 1.25x.

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
  bench::print_banner("Figure 1",
                      "MLlib 8-node speedup over 1-node (BIC, vanilla "
                      "Spark tree aggregation)");

  const int iters = 5;  // speedups are per-iteration ratios; 5 suffice
  bench::Table t({"workload", "1-node (s)", "8-node (s)", "speedup",
                  "paper trend"});
  double sum = 0, lda_n = 0, lr_k = 0;
  const auto workloads = ml::paper_workloads();
  for (const auto& w : workloads) {
    const auto one =
        bench::run_e2e(bench::bic_with_nodes(1), engine::AggMode::kTree, w,
                       iters);
    const auto eight =
        bench::run_e2e(bench::bic_with_nodes(8), engine::AggMode::kTree, w,
                       iters);
    const double speedup = one.total_s / eight.total_s;
    sum += speedup;
    if (w.name == "LDA-N") lda_n = speedup;
    if (w.name == "LR-K") lr_k = speedup;
    const char* trend = "";
    if (w.name == "LDA-N") trend = "best (2.49x)";
    if (w.name == "LR-K") trend = "worst (0.73x)";
    t.add_row({w.name, bench::fmt(one.total_s, 1),
               bench::fmt(eight.total_s, 1), bench::fmt_times(speedup, 2),
               trend});
  }
  t.print();
  bench::JsonReport("fig01_mllib_speedup").add_table("results", t).with_sim_speed().write();
  std::printf(
      "\nmeasured: average speedup %.2fx (paper 1.25x); LDA-N %.2fx (paper "
      "2.49x); LR-K %.2fx (paper 0.73x); perfect would be 8x\n",
      sum / static_cast<double>(workloads.size()), lda_n, lr_k);
  return 0;
}
