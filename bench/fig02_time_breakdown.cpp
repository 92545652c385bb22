// Reproduces Figure 2: decomposition of end-to-end MLlib time into
// aggregation (compute+reduce), non-aggregation scalable work, and
// non-scalable driver computation, per workload, on 8-node BIC with
// vanilla Spark. Paper: tree aggregation occupies 67.69% (geometric mean)
// of end-to-end time, which is why it is the hot-spot worth attacking.
//
// The per-phase numbers are derived from the run's structured trace
// (obs::phase_breakdown over the "phase" spans) and cross-checked against
// the engine's ad-hoc TimeBreakdown accounting: the two must agree within
// 1% or the bench aborts. Pass --trace-out <path> to also dump the first
// workload's Chrome trace.

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "bench_util/cli.hpp"
#include "bench_util/json.hpp"
#include "bench_util/sim_speed.hpp"
#include "bench_util/runners.hpp"
#include "bench_util/table.hpp"
#include "ml/workload.hpp"

namespace {

// Relative disagreement between the trace-derived and ad-hoc value of one
// phase, tolerant of both being ~0.
double rel_err(double trace, double adhoc) {
  const double denom = std::max(std::abs(adhoc), 1e-9);
  return std::abs(trace - adhoc) / denom;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sparker;
  std::string trace_out;
  bench::Cli({{"--trace-out", bench::text(&trace_out), "path"}})
      .parse(argc, argv);
  bench::print_banner("Figure 2",
                      "End-to-end time decomposition per workload (BIC 8 "
                      "nodes, vanilla Spark)");

  const int iters = 5;
  bench::Table t({"workload", "agg-compute %", "agg-reduce %", "non-agg %",
                  "bcast %", "driver %", "agg total %"});
  double log_sum = 0;
  int n = 0;
  double max_err = 0;
  for (const auto& w : ml::paper_workloads()) {
    bench::E2eOptions opt;
    opt.trace = true;
    if (n == 0) opt.trace_out = trace_out;
    const auto r =
        bench::run_e2e(bench::bic_with_nodes(8), engine::AggMode::kTree, w,
                       iters, opt);
    // Phases from the trace; the ad-hoc accounting is the cross-check.
    for (double e : {rel_err(r.trace_driver_s, r.driver_s),
                     rel_err(r.trace_non_agg_s, r.non_agg_s),
                     rel_err(r.trace_agg_compute_s, r.agg_compute_s),
                     rel_err(r.trace_agg_reduce_s, r.agg_reduce_s),
                     rel_err(r.trace_broadcast_s, r.broadcast_s)}) {
      max_err = std::max(max_err, e);
    }
    if (max_err > 0.01) {
      std::fprintf(stderr,
                   "FAIL: trace-derived phases diverge from ad-hoc "
                   "accounting by %.3f%% on %s\n",
                   100.0 * max_err, w.name.c_str());
      return 1;
    }
    const double total = r.trace_agg_compute_s + r.trace_agg_reduce_s +
                         r.trace_non_agg_s + r.trace_driver_s;
    const double agg_pct =
        100.0 * (r.trace_agg_compute_s + r.trace_agg_reduce_s) / total;
    log_sum += std::log(agg_pct);
    ++n;
    // bcast % is the broadcast share *inside* non-agg: columns other than
    // it sum to 100.
    t.add_row({w.name, bench::fmt(100.0 * r.trace_agg_compute_s / total, 1),
               bench::fmt(100.0 * r.trace_agg_reduce_s / total, 1),
               bench::fmt(100.0 * r.trace_non_agg_s / total, 1),
               bench::fmt(100.0 * r.trace_broadcast_s / total, 1),
               bench::fmt(100.0 * r.trace_driver_s / total, 1),
               bench::fmt(agg_pct, 1)});
  }
  t.print();
  bench::JsonReport("fig02_time_breakdown")
      .add_table("results", t)
      .set("phase_source", "trace")
      .set("max_phase_rel_err", max_err)
      .with_sim_speed().write();
  std::printf(
      "\nmeasured: geometric-mean aggregation share %.1f%% (paper 67.69%%)\n",
      std::exp(log_sum / n));
  std::printf("verified: trace-derived phases match ad-hoc accounting "
              "(max rel err %.2e)\n",
              max_err);
  if (!trace_out.empty()) {
    std::printf("trace written to %s\n", trace_out.c_str());
  }
  return 0;
}
