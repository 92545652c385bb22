// Reproduces Figure 2: decomposition of end-to-end MLlib time into
// aggregation (compute+reduce), non-aggregation scalable work, and
// non-scalable driver computation, per workload, on 8-node BIC with
// vanilla Spark. Paper: tree aggregation occupies 67.69% (geometric mean)
// of end-to-end time, which is why it is the hot-spot worth attacking.
//
// The per-phase numbers are derived from the run's structured trace
// (obs::phase_breakdown over the "phase" spans) and checked against the
// drivers' own PhaseBreakdown: the two must be equal in every bucket, to
// the nanosecond, or the bench aborts. Pass --trace-out <path> to also dump
// the first workload's Chrome trace.

#include <cmath>
#include <cstdio>

#include "bench_util/cli.hpp"
#include "bench_util/json.hpp"
#include "bench_util/sim_speed.hpp"
#include "bench_util/runners.hpp"
#include "bench_util/table.hpp"
#include "ml/workload.hpp"

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
  for (const auto& w : ml::paper_workloads()) {
    bench::E2eOptions opt;
    opt.trace = true;
    if (n == 0) opt.trace_out = trace_out;
    const auto r =
        bench::run_e2e(bench::bic_with_nodes(8), engine::AggMode::kTree, w,
                       iters, opt);
    // Phases from the trace; the drivers' own accounting is the check.
    if (!r.traced || *r.traced != r.breakdown) {
      std::fprintf(stderr,
                   "FAIL: trace-derived phases differ from the drivers' "
                   "accounting on %s\n",
                   w.name.c_str());
      return 1;
    }
    const double compute = sim::to_seconds(r.traced->agg_compute);
    const double reduce = sim::to_seconds(r.traced->agg_reduce);
    const double non_agg = sim::to_seconds(r.traced->non_agg);
    const double driver = sim::to_seconds(r.traced->driver);
    const double total = compute + reduce + non_agg + driver;
    const double agg_pct = 100.0 * (compute + reduce) / total;
    log_sum += std::log(agg_pct);
    ++n;
    // bcast % is the broadcast share *inside* non-agg: columns other than
    // it sum to 100.
    t.add_row({w.name, bench::fmt(100.0 * compute / total, 1),
               bench::fmt(100.0 * reduce / total, 1),
               bench::fmt(100.0 * non_agg / total, 1),
               bench::fmt(100.0 * sim::to_seconds(r.traced->broadcast) / total,
                          1),
               bench::fmt(100.0 * driver / total, 1),
               bench::fmt(agg_pct, 1)});
  }
  t.print();
  bench::JsonReport("fig02_time_breakdown")
      .add_table("results", t)
      .set("phase_source", "trace")
      // Exact equality is checked above; the key stays for the report's
      // readers.
      .set("max_phase_rel_err", 0.0)
      .with_sim_speed().write();
  std::printf(
      "\nmeasured: geometric-mean aggregation share %.1f%% (paper 67.69%%)\n",
      std::exp(log_sum / n));
  std::printf("verified: trace-derived phases match ad-hoc accounting "
              "(max rel err 0.00e+00)\n");
  if (!trace_out.empty()) {
    std::printf("trace written to %s\n", trace_out.c_str());
  }
  return 0;
}
