// Ablation: multi-tenant scheduling. A batch tenant submits its whole
// queue of cluster-filling "elephant" campaigns at t=0; three interactive
// "mice" tenants then stream small splitAggregate campaigns open-loop at
// increasing offered load. Every registered scheduling policy serves the
// same deterministic stream. Reported per (policy, load): aggregate
// throughput, p50/p99 job latency over all jobs, and p99 over the
// latency-sensitive mice tenants — the tail that policy choice actually
// moves. FIFO dispatches in arrival order, so the t=0 elephant burst seizes
// every concurrency slot and mice queue behind the whole batch; weighted
// fair-share (DRF over attributed core/NIC resource-seconds) amortizes the
// batch tenant against its history and holds it near its weighted share,
// so at the top load mice p99 must come out measurably better than FIFO's
// — checked, along with bit-identity of every job's result against a solo
// run of the same campaign on an idle cluster.
//
// Pass --floor X to fail (exit 1) if any policy's top-load throughput drops
// below X jobs/s — the CI regression gate. --trace-out <path> dumps the
// top-load fair-share run's Chrome trace.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util/cli.hpp"
#include "bench_util/json.hpp"
#include "bench_util/sim_speed.hpp"
#include "bench_util/table.hpp"
#include "bench_util/vec_sai.hpp"
#include "engine/aggregate.hpp"
#include "engine/cluster.hpp"
#include "engine/config.hpp"
#include "engine/rdd.hpp"
#include "net/cluster.hpp"
#include "obs/export.hpp"
#include "sched/policy.hpp"
#include "sched/scheduler.hpp"
#include "sim/simulator.hpp"

using namespace sparker;
using Vec = std::vector<std::int64_t>;

namespace {

constexpr int kNodes = 1;  // BIC: 6 executors x 4 cores = 24 cores.
constexpr int kSlots = 4;  // concurrent jobs.

// Mice: small interactive campaigns (one partition per executor).
constexpr int kMouseDim = 32;
constexpr int kMouseParts = 6;
constexpr int kMouseRows = 4;
constexpr std::uint64_t kMouseScale = 2048;
constexpr sim::Duration kMouseRowCost = sim::milliseconds(1);

// Elephants: cluster-filling batch campaigns — many short tasks (4 waves
// over the 24 cores) so they hold a scheduler slot ~10x longer than a
// mouse without any single task monopolizing a core.
constexpr int kElephantDim = 64;
constexpr int kElephantParts = 96;
constexpr int kElephantRows = 8;
constexpr std::uint64_t kElephantScale = 8192;
constexpr sim::Duration kElephantRowCost = sim::milliseconds(3);

// The stream: tenant 0 bursts its whole elephant queue at t=0 (a nightly
// batch), then mice tenants 1..3 stream 200 small jobs open-loop.
constexpr int kStream = 210;
constexpr int kElephants = 10;
constexpr int kMiceTenants = 3;

bool is_elephant(int i) { return i < kElephants; }
int tenant_of(int i) {
  return is_elephant(i) ? 0 : 1 + ((i - kElephants) % kMiceTenants);
}

Vec partition_rows(int pid) {
  Vec rows;
  for (int i = 0; i < 16; ++i) {
    rows.push_back(pid * 100 + i);
  }
  return rows;
}

engine::SplitAggSpec<std::int64_t, Vec, Vec> make_spec(int dim,
                                                       std::uint64_t scale,
                                                       sim::Duration row_cost,
                                                       int rows_used) {
  engine::SplitAggSpec<std::int64_t, Vec, Vec> spec;
  spec.base.zero = Vec(static_cast<std::size_t>(dim), 0);
  spec.base.seq_op = [dim](Vec& u, const std::int64_t& row) {
    for (int i = 0; i < dim; ++i) u[static_cast<std::size_t>(i)] += row + i;
  };
  spec.base.comb_op = bench::vec_sai::add;
  spec.base.bytes = bench::vec_sai::bytes(scale);
  spec.base.partition_cost = [row_cost, rows_used](
                                 int, const std::vector<std::int64_t>&) {
    return row_cost * rows_used;
  };
  bench::vec_sai::set_callbacks(spec);
  return spec;
}

struct JobClass {
  engine::SplitAggSpec<std::int64_t, Vec, Vec> spec;
  int parts = 0;
  int rows = 0;
  std::uint64_t agg_bytes = 0;
  Vec reference;        ///< solo-run result every scheduled job must match.
  double solo_s = 0.0;  ///< solo-run duration on an idle cluster.
};

engine::EngineConfig base_cfg(bool trace = false) {
  engine::EngineConfig cfg;
  cfg.agg_mode = engine::AggMode::kSplit;
  cfg.sai_parallelism = 2;
  cfg.trace.enabled = trace;
  return cfg;
}

net::ClusterSpec cluster_spec() {
  net::ClusterSpec s = net::ClusterSpec::bic(kNodes);
  s.fabric.gc.enabled = false;
  s.rates.scheduler_delay = sim::milliseconds(1);
  // A Sparker-style lightweight driver: with the stock 4 ms per-task
  // dispatch cost the serial driver loop caps the whole cluster near 20
  // jobs/s and every policy degenerates to driver-queue order. The premise
  // of splitAggregate is that the driver is off the data path, so model a
  // cheap dispatch and let cores, NICs, and scheduler slots be the
  // contended resources the policies arbitrate.
  s.rates.task_dispatch = sim::microseconds(100);
  return s;
}

/// The job body shared by scheduled and solo runs: one splitAggregate
/// campaign, truncated to the class's row count and routed via `opt`.
sim::Task<void> run_job(engine::Cluster& cl, engine::CachedRdd<std::int64_t>& rdd,
                        const engine::SplitAggSpec<std::int64_t, Vec, Vec>& spec,
                        engine::JobOptions opt, Vec* out) {
  engine::AggMetrics m;
  Vec v = co_await engine::split_aggregate(cl, rdd, spec, &m, opt);
  *out = std::move(v);
}

/// Runs one job of `jc` alone on a fresh idle cluster: the bit-identity
/// reference and the service-time probe.
void solo_probe(JobClass& jc) {
  sim::Simulator simulator;
  engine::Cluster cl(simulator, cluster_spec(), base_cfg());
  engine::CachedRdd<std::int64_t> rdd(jc.parts, cl.num_executors(),
                                      partition_rows);
  const sim::Time start = simulator.now();
  simulator.run_task(run_job(cl, rdd, jc.spec, {}, &jc.reference));
  jc.solo_s = sim::to_seconds(simulator.now() - start);
}

JobClass mouse_class() {
  JobClass jc;
  jc.spec = make_spec(kMouseDim, kMouseScale, kMouseRowCost, kMouseRows);
  jc.parts = kMouseParts;
  jc.rows = kMouseRows;
  jc.agg_bytes = static_cast<std::uint64_t>(kMouseDim) *
                 sizeof(std::int64_t) * kMouseScale;
  solo_probe(jc);
  return jc;
}

JobClass elephant_class() {
  JobClass jc;
  jc.spec = make_spec(kElephantDim, kElephantScale, kElephantRowCost,
                      kElephantRows);
  jc.parts = kElephantParts;
  jc.rows = kElephantRows;
  jc.agg_bytes = static_cast<std::uint64_t>(kElephantDim) *
                 sizeof(std::int64_t) * kElephantScale;
  solo_probe(jc);
  return jc;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

struct LoadRun {
  bool failed = false;
  int mismatched = 0;  ///< jobs whose value diverged from the solo reference
  std::int64_t completed = 0;
  std::int64_t rejected_queue = 0;
  std::int64_t rejected_load = 0;
  double makespan_s = 0.0;
  double throughput = 0.0;  ///< completed jobs per second of makespan
  double p50_ms = 0.0, p99_ms = 0.0;     ///< over all completed jobs
  double mice_p99_ms = 0.0;              ///< over mice tenants only
  double elephant_p99_ms = 0.0;
  bool lint_ok = true;
};

struct RunOptions {
  sched::PolicyId policy = sched::PolicyId::kFifo;
  double rho = 1.0;       ///< offered load relative to mice service capacity
  int max_queue = 1024;   ///< effectively unbounded for the latency sweep
  double overload_threshold = 0.0;
  std::string trace_out;
};

LoadRun run_load(const JobClass& mouse, const JobClass& elephant,
                 const RunOptions& opt) {
  const bool trace = !opt.trace_out.empty();
  sim::Simulator simulator;
  bench::SimSpeedScope speed(simulator);
  engine::Cluster cl(simulator, cluster_spec(), base_cfg(trace));
  engine::CachedRdd<std::int64_t> mice_rdd(mouse.parts, cl.num_executors(),
                                           partition_rows);
  engine::CachedRdd<std::int64_t> elephant_rdd(
      elephant.parts, cl.num_executors(), partition_rows);

  sched::SchedConfig sc;
  sc.policy = opt.policy;
  sc.max_concurrent = kSlots;
  sc.max_queue = opt.max_queue;
  sc.overload_threshold = opt.overload_threshold;
  // The elephant tenant is batch: weight it below the interactive mice so
  // fair-share holds it to a minority of the slots under contention.
  sc.tenant_weights = {{0, 0.5}};
  sched::JobScheduler sched(cl, sc);

  // Open-loop deterministic mice arrivals: mean inter-arrival such that
  // the mice alone offer `rho` times the cluster's slot capacity for mice
  // (kSlots concurrent jobs of one solo service time each). The elephant
  // burst at t=0 is load on top of that.
  const double gap_s = mouse.solo_s / (static_cast<double>(kSlots) * opt.rho);
  const sim::Duration gap = sim::nanoseconds(
      static_cast<std::int64_t>(gap_s * 1e9));

  std::vector<Vec> values(kStream);
  auto driver = [&]() -> sim::Task<void> {
    for (int i = 0; i < kStream; ++i) {
      if (i > kElephants) co_await simulator.sleep(gap);
      const bool big = is_elephant(i);
      const JobClass& jc = big ? elephant : mouse;
      auto& rdd = big ? elephant_rdd : mice_rdd;
      sched::JobSpec js;
      js.tenant = tenant_of(i);
      js.aggregator_bytes = jc.agg_bytes;
      js.tasks = jc.parts;
      Vec* slot = &values[static_cast<std::size_t>(i)];
      sched.submit(js, [&cl, &rdd, &jc, slot](sched::JobContext& ctx) {
        return run_job(cl, rdd, jc.spec, ctx.opt, slot);
      });
    }
    co_await sched.drain();
  };
  simulator.run_task(driver());

  LoadRun out;
  out.completed = sched.completed();
  sim::Time first_submit = 0, last_finish = 0;
  std::vector<double> all_ms, mice_ms, elephant_ms;
  for (int i = 0; i < kStream; ++i) {
    const auto& r = sched.records()[static_cast<std::size_t>(i)];
    if (r.rejected == sched::Reject::kQueueFull) ++out.rejected_queue;
    if (r.rejected == sched::Reject::kOverloaded) ++out.rejected_load;
    if (!r.done) continue;
    if (r.failed) out.failed = true;
    const Vec& want =
        is_elephant(i) ? elephant.reference : mouse.reference;
    if (values[static_cast<std::size_t>(i)] != want) ++out.mismatched;
    const double lat_ms =
        sim::to_seconds(r.finished - r.submitted) * 1e3;
    all_ms.push_back(lat_ms);
    if (is_elephant(i)) {
      elephant_ms.push_back(lat_ms);
    } else {
      mice_ms.push_back(lat_ms);
    }
    if (last_finish == 0 || r.finished > last_finish) {
      last_finish = r.finished;
    }
    (void)first_submit;  // submissions start at t=0.
  }
  out.makespan_s = sim::to_seconds(last_finish);
  out.throughput = out.makespan_s > 0
                       ? static_cast<double>(out.completed) / out.makespan_s
                       : 0.0;
  out.p50_ms = percentile(all_ms, 0.50);
  out.p99_ms = percentile(all_ms, 0.99);
  out.mice_p99_ms = percentile(mice_ms, 0.99);
  out.elephant_p99_ms = percentile(elephant_ms, 0.99);
  if (trace) {
    out.lint_ok = obs::lint(cl.trace()).ok();
    obs::write_chrome_trace(cl.trace(), opt.trace_out);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_out;
  double floor = 0;
  bench::Cli({{"--trace-out", bench::text(&trace_out), "path"},
              {"--floor", bench::number(&floor, 0), "jobs/s"}})
      .parse(argc, argv);
  bench::print_banner(
      "Ablation: multi-tenant scheduling",
      "Elephant burst at t=0 plus an open-loop mice stream at rising load, "
      "under every registered policy (BIC 1 node, 6 executors, 4 slots)");

  JobClass mouse = mouse_class();
  JobClass elephant = elephant_class();
  std::printf("solo service times: mouse %.1f ms, elephant %.1f ms "
              "(%d elephants burst at t=0, %d mice streamed)\n\n",
              mouse.solo_s * 1e3, elephant.solo_s * 1e3, kElephants,
              kStream - kElephants);

  const std::vector<double> loads = {0.5, 1.0, 1.5};
  const double top_load = loads.back();
  auto& registry = sched::PolicyRegistry::instance();
  const std::vector<sched::PolicyId> policies = registry.registered();

  bench::Table t({"policy", "load", "completed", "throughput (jobs/s)",
                  "p50 (ms)", "p99 (ms)", "mice p99 (ms)",
                  "elephant p99 (ms)"});
  std::map<sched::PolicyId, double> top_mice_p99, top_throughput;
  for (sched::PolicyId policy : policies) {
    for (double rho : loads) {
      RunOptions opt;
      opt.policy = policy;
      opt.rho = rho;
      const bool traced_run = policy == sched::PolicyId::kFairShare &&
                              rho == top_load && !trace_out.empty();
      if (traced_run) opt.trace_out = trace_out;
      const LoadRun r = run_load(mouse, elephant, opt);
      if (r.failed || r.mismatched > 0) {
        std::printf("BUG: policy %s at load %.1f: %d job(s) diverged from "
                    "their solo-run reference\n",
                    sched::to_string(policy), rho, r.mismatched);
        return 1;
      }
      if (r.completed != kStream || r.rejected_queue + r.rejected_load != 0) {
        std::printf("BUG: policy %s at load %.1f dropped jobs "
                    "(%lld completed, queue should be unbounded here)\n",
                    sched::to_string(policy), rho,
                    static_cast<long long>(r.completed));
        return 1;
      }
      if (!r.lint_ok) {
        std::printf("BUG: policy %s at load %.1f produced a malformed "
                    "trace\n",
                    sched::to_string(policy), rho);
        return 1;
      }
      if (rho == top_load) {
        top_mice_p99[policy] = r.mice_p99_ms;
        top_throughput[policy] = r.throughput;
      }
      t.add_row({sched::to_string(policy), bench::fmt(rho, 1),
                 std::to_string(r.completed), bench::fmt(r.throughput, 1),
                 bench::fmt(r.p50_ms, 1), bench::fmt(r.p99_ms, 1),
                 bench::fmt(r.mice_p99_ms, 1),
                 bench::fmt(r.elephant_p99_ms, 1)});
    }
  }
  t.print();

  // Admission control at the top load: a bounded queue plus load shedding
  // must reject rather than queue without bound — and everything admitted
  // still completes and stays bit-identical.
  bench::Table ta({"admission", "completed", "rejected (queue)",
                   "rejected (load)", "mice p99 (ms)"});
  std::int64_t shed_rejected = 0;
  {
    RunOptions opt;
    opt.policy = sched::PolicyId::kFairShare;
    opt.rho = top_load;
    opt.max_queue = 24;
    const LoadRun r = run_load(mouse, elephant, opt);
    if (r.failed || r.mismatched > 0 || r.rejected_queue == 0) {
      std::printf("BUG: bounded-queue run should shed load "
                  "(rejected=%lld, mismatched=%d)\n",
                  static_cast<long long>(r.rejected_queue), r.mismatched);
      return 1;
    }
    shed_rejected += r.rejected_queue + r.rejected_load;
    ta.add_row({"queue<=24", std::to_string(r.completed),
                std::to_string(r.rejected_queue),
                std::to_string(r.rejected_load),
                bench::fmt(r.mice_p99_ms, 1)});
  }
  {
    RunOptions opt;
    opt.policy = sched::PolicyId::kFairShare;
    opt.rho = top_load;
    opt.max_queue = 24;
    opt.overload_threshold = 3.0;  // shed beyond 3 clusters' worth of demand
    const LoadRun r = run_load(mouse, elephant, opt);
    if (r.failed || r.mismatched > 0 ||
        r.rejected_queue + r.rejected_load == 0) {
      std::printf("BUG: load-shedding run should reject "
                  "(queue=%lld load=%lld)\n",
                  static_cast<long long>(r.rejected_queue),
                  static_cast<long long>(r.rejected_load));
      return 1;
    }
    shed_rejected += r.rejected_queue + r.rejected_load;
    ta.add_row({"queue<=24 + shed@3.0", std::to_string(r.completed),
                std::to_string(r.rejected_queue),
                std::to_string(r.rejected_load),
                bench::fmt(r.mice_p99_ms, 1)});
  }
  std::printf("\nAdmission control at load %.1f (fair_share):\n", top_load);
  ta.print();

  const double fifo_p99 = top_mice_p99[sched::PolicyId::kFifo];
  const double fair_p99 = top_mice_p99[sched::PolicyId::kFairShare];
  if (!(fair_p99 < fifo_p99 * 0.9)) {
    std::printf("BUG: fair-share mice p99 (%.1f ms) not measurably better "
                "than FIFO's (%.1f ms) at load %.1f\n",
                fair_p99, fifo_p99, top_load);
    return 1;
  }
  double min_top_throughput = 0.0;
  for (const auto& [policy, thr] : top_throughput) {
    if (min_top_throughput == 0.0 || thr < min_top_throughput) {
      min_top_throughput = thr;
    }
  }
  if (floor > 0.0 && min_top_throughput < floor) {
    std::printf("BUG: top-load throughput %.1f jobs/s below the --floor "
                "%.1f gate\n",
                min_top_throughput, floor);
    return 1;
  }

  bench::JsonReport("ablation_multitenant")
      .set("nodes", kNodes)
      .set("executors", kNodes * 6)
      .set("slots", kSlots)
      .set("stream_jobs", kStream)
      .set("elephants", kElephants)
      .set("mouse_solo_ms", mouse.solo_s * 1e3)
      .set("elephant_solo_ms", elephant.solo_s * 1e3)
      .add_table("policies", t)
      .add_table("admission", ta)
      .set("fifo_mice_p99_ms", fifo_p99)
      .set("fair_share_mice_p99_ms", fair_p99)
      .set("mice_p99_improvement_x", fair_p99 > 0 ? fifo_p99 / fair_p99 : 0.0)
      .set("min_top_load_throughput", min_top_throughput)
      .set("admission_rejected", shed_rejected)
      .with_sim_speed().write();

  std::printf(
      "\nEvery scheduled job returned the bit-exact value of its solo run; "
      "at load %.1f fair-share holds mice p99 to %.1f ms vs FIFO's %.1f ms "
      "(%.1fx better) while the elephant tenant keeps its weighted share.\n",
      top_load, fair_p99, fifo_p99, fair_p99 > 0 ? fifo_p99 / fair_p99 : 0.0);
  if (!trace_out.empty()) {
    std::printf("trace written to %s\n", trace_out.c_str());
  }
  return 0;
}
