// Ablation: elastic membership under churn. A campaign of back-to-back
// split aggregations runs while executors join, decommission (drain +
// partial handoff to the ring successor), rejoin, and die according to
// deterministic schedules. Reported per campaign: end-to-end time,
// membership activity (joins admitted, drains, migrated partials, ring
// re-formations) and time-to-stable-ring (membership event -> next
// ring_formed, from the trace); plus a throughput-vs-churn-rate sweep and
// a decommission-then-rejoin run under every registered reduce-scatter
// algorithm. Every job's result must be bit-identical to the sequential
// reference no matter what the membership did — int64 sums are exact, so
// any fold order gives the same bits.
//
// Pass --churn N to set the maximum churn-event count of the throughput
// sweep (default 8). --trace-out <path> dumps the full-churn campaign's
// Chrome trace.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util/cli.hpp"
#include "bench_util/json.hpp"
#include "bench_util/sim_speed.hpp"
#include "bench_util/table.hpp"
#include "bench_util/vec_sai.hpp"
#include "comm/registry.hpp"
#include "engine/aggregate.hpp"
#include "engine/cluster.hpp"
#include "engine/config.hpp"
#include "engine/rdd.hpp"
#include "net/cluster.hpp"
#include "obs/export.hpp"
#include "sim/simulator.hpp"

using namespace sparker;
using Vec = std::vector<std::int64_t>;

namespace {

constexpr int kNodes = 2;  // BIC: 6 executors/node -> 12 executors.
constexpr int kParts = 24;
constexpr int kDim = 64;
constexpr std::uint64_t kScale = 2048;  // ~1 MiB modeled aggregator.
constexpr int kJobs = 4;                // jobs per campaign.

Vec partition_rows(int pid) {
  Vec rows(8);
  for (int i = 0; i < 8; ++i) {
    rows[static_cast<std::size_t>(i)] = pid * 100 + i;
  }
  return rows;
}

engine::SplitAggSpec<std::int64_t, Vec, Vec> split_spec() {
  engine::SplitAggSpec<std::int64_t, Vec, Vec> spec;
  spec.base.zero = Vec(kDim, 0);
  spec.base.seq_op = [](Vec& u, const std::int64_t& row) {
    for (int i = 0; i < kDim; ++i) u[static_cast<std::size_t>(i)] += row + i;
  };
  spec.base.comb_op = bench::vec_sai::add;
  spec.base.bytes = bench::vec_sai::bytes(kScale);
  spec.base.partition_cost = [](int, const std::vector<std::int64_t>& rows) {
    return sim::milliseconds(rows.size());
  };
  bench::vec_sai::set_callbacks(spec);
  return spec;
}

/// The sequential reference: fold every partition on one machine, in plain
/// code — what any distributed execution order must reproduce exactly.
Vec sequential_reference() {
  auto spec = split_spec();
  Vec total = spec.base.zero;
  for (int pid = 0; pid < kParts; ++pid) {
    Vec u = spec.base.zero;
    for (std::int64_t row : partition_rows(pid)) spec.base.seq_op(u, row);
    spec.base.comb_op(total, u);
  }
  return total;
}

struct Campaign {
  bool failed = false;
  int jobs_ok = 0;  ///< jobs whose result matched the reference bit-for-bit
  double total_s = 0;
  engine::AggMetrics last;        ///< metrics of the final job
  engine::MembershipStats stats;  ///< engine-side membership counters
  obs::MembershipTimeline mt;     ///< trace-side membership timeline
  std::string flame;              ///< per-executor busy/blocked/idle report
  bool lint_ok = false;
};

Campaign run_campaign(const engine::MembershipSchedule& membership,
                      const engine::FaultSchedule& faults,
                      comm::AlgoId algo = comm::AlgoId::kRing,
                      const std::string& trace_out = "") {
  engine::EngineConfig cfg;
  cfg.agg_mode = engine::AggMode::kSplit;
  cfg.sai_parallelism = 2;
  cfg.collective_algo = algo;
  cfg.collective_timeout = sim::seconds(2);
  cfg.stage_retry_backoff = sim::milliseconds(50);
  cfg.membership = membership;
  cfg.fault_schedule = faults;
  cfg.trace.enabled = true;
  sim::Simulator simulator;
  bench::SimSpeedScope speed(simulator);
  net::ClusterSpec spec = net::ClusterSpec::bic(kNodes);
  spec.fabric.gc.enabled = false;
  engine::Cluster cluster(simulator, spec, cfg);
  engine::CachedRdd<std::int64_t> rdd(kParts, cluster.num_executors(),
                                      partition_rows);
  auto spec_agg = split_spec();
  const Vec expected = sequential_reference();
  Campaign out;
  auto job = [&]() -> sim::Task<void> {
    for (int j = 0; j < kJobs; ++j) {
      Vec v = co_await engine::split_aggregate(cluster, rdd, spec_agg,
                                               &out.last);
      if (v == expected) ++out.jobs_ok;
    }
  };
  const sim::Time start = simulator.now();
  try {
    simulator.run_task(job());
  } catch (const std::exception&) {
    out.failed = true;
  }
  out.total_s = sim::to_seconds(simulator.now() - start);
  out.stats = cluster.membership().stats();
  out.mt = obs::membership_report(cluster.trace());
  out.flame = obs::format_flame_report(obs::flame_report(cluster.trace()));
  out.lint_ok = obs::lint(cluster.trace()).ok();
  if (!trace_out.empty()) obs::write_chrome_trace(cluster.trace(), trace_out);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_out;
  int max_churn = 8;
  bench::Cli({{"--trace-out", bench::text(&trace_out), "path"},
              {"--churn", bench::integer(&max_churn, 0), "N"}})
      .parse(argc, argv);
  bench::print_banner(
      "Ablation: membership churn",
      "Back-to-back split aggregations (BIC 2 nodes, 12 executors) while "
      "executors join, drain, rejoin, and die");

  // Probe: clean single-job run establishes the job duration and the ring
  // window for placing events.
  engine::AggMetrics probe;
  sim::Time t_job, t_compute;
  {
    engine::EngineConfig cfg;
    cfg.agg_mode = engine::AggMode::kSplit;
    cfg.sai_parallelism = 2;
    cfg.collective_timeout = sim::seconds(2);
    cfg.trace.enabled = false;
    sim::Simulator simulator;
    net::ClusterSpec spec = net::ClusterSpec::bic(kNodes);
    spec.fabric.gc.enabled = false;
    engine::Cluster cluster(simulator, spec, cfg);
    engine::CachedRdd<std::int64_t> rdd(kParts, cluster.num_executors(),
                                        partition_rows);
    auto spec_agg = split_spec();
    auto job = [&]() -> sim::Task<Vec> {
      co_return co_await engine::split_aggregate(cluster, rdd, spec_agg,
                                                 &probe);
    };
    (void)simulator.run_task(job());
    t_job = probe.end - probe.start;
    t_compute = probe.compute_done - probe.start;
  }
  auto ring_at = [&](int pct) {
    return probe.compute_done +
           (probe.end - probe.compute_done) * static_cast<sim::Time>(pct) / 100;
  };

  struct Case {
    const char* label;
    engine::MembershipSchedule membership;
    engine::FaultSchedule faults;
  };
  std::vector<Case> cases;
  cases.push_back({"static", {}, {}});
  {
    // First join lands inside job 1 (admitted at its ring boundary); the
    // second lands mid-job-2, after a ring has already formed, so admission
    // must re-form the ring online.
    engine::MembershipSchedule m;
    m.join(t_job / 3, 10).join(3 * t_job / 2, 11);
    cases.push_back({"join x2", m, {}});
  }
  {
    // Mid-compute decommission: executor 5 already holds stage-1 partials,
    // so the drain exercises the successor-migration path.
    engine::MembershipSchedule m;
    m.decommission(t_compute / 2, 5);
    cases.push_back({"decommission x1", m, {}});
  }
  {
    engine::MembershipSchedule m;
    m.decommission(t_compute / 2, 5).join(2 * t_job, 5);
    cases.push_back({"decommission + rejoin", m, {}});
  }
  {
    // Join announced right after a mid-ring kill: the joiner is admitted
    // at the retry's ring boundary, i.e. during recovery.
    engine::MembershipSchedule m;
    m.join(ring_at(55), 11);
    engine::FaultSchedule f;
    f.kill_executor(ring_at(50), 7);
    cases.push_back({"kill + join in recovery", m, f});
  }
  {
    engine::MembershipSchedule m;
    m.join(t_job / 3, 10)
        .decommission(t_compute / 2, 5)
        .join(3 * t_job / 2, 11)
        .decommission(5 * t_job / 2, 10);
    engine::FaultSchedule f;
    f.kill_executor(ring_at(60), 7);
    cases.push_back({"full churn", m, f});
  }

  const Vec expected = sequential_reference();
  (void)expected;
  bench::Table t({"campaign", "total (s)", "jobs ok", "joins", "drains",
                  "migrated", "ring re-forms", "stable max (s)"});
  std::string full_churn_flame;
  double stable_max_s = 0, stable_total_s = 0;
  int stable_events = 0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto& c = cases[i];
    const bool last = i + 1 == cases.size();
    const Campaign r =
        run_campaign(c.membership, c.faults, comm::AlgoId::kRing,
                     last ? trace_out : std::string());
    if (r.failed || r.jobs_ok != kJobs) {
      std::printf("BUG: campaign '%s' failed or diverged from the "
                  "sequential reference (%d/%d jobs ok)\n",
                  c.label, r.jobs_ok, kJobs);
      return 1;
    }
    if (!r.lint_ok) {
      std::printf("BUG: campaign '%s' produced a malformed trace\n", c.label);
      return 1;
    }
    const double smax = sim::to_seconds(r.mt.max_time_to_stable);
    stable_max_s = std::max(stable_max_s, smax);
    stable_total_s += sim::to_seconds(r.mt.total_time_to_stable);
    stable_events += r.mt.stabilized_events;
    if (last) full_churn_flame = r.flame;
    t.add_row({c.label, bench::fmt(r.total_s, 3),
               std::to_string(r.jobs_ok) + "/" + std::to_string(kJobs),
               std::to_string(r.stats.joins_admitted),
               std::to_string(r.stats.drains_completed),
               std::to_string(r.stats.partials_migrated),
               std::to_string(r.mt.ring_rebuilds), bench::fmt(smax, 3)});
  }
  t.print();
  if (!full_churn_flame.empty()) {
    std::printf("\nFull-churn campaign, %s", full_churn_flame.c_str());
  }

  // Decommission-then-rejoin under every registered reduce-scatter
  // algorithm: the elastic paths must keep bit-identity regardless of the
  // collective actually dispatched.
  bench::Table ta({"algorithm", "total (s)", "jobs ok", "migrated"});
  for (comm::AlgoId algo :
       comm::registered_algos(comm::CollectiveOp::kReduceScatter)) {
    engine::MembershipSchedule m;
    m.decommission(t_compute / 2, 5).join(2 * t_job, 5);
    const Campaign r = run_campaign(m, {}, algo);
    if (r.failed || r.jobs_ok != kJobs) {
      std::printf("BUG: algorithm %s diverged under decommission+rejoin "
                  "(%d/%d jobs ok)\n",
                  comm::to_string(algo), r.jobs_ok, kJobs);
      return 1;
    }
    ta.add_row({comm::to_string(algo), bench::fmt(r.total_s, 3),
                std::to_string(r.jobs_ok) + "/" + std::to_string(kJobs),
                std::to_string(r.stats.partials_migrated)});
  }
  std::printf("\nDecommission + rejoin per collective algorithm:\n");
  ta.print();

  // Throughput under increasing churn: n events spread over the campaign,
  // alternating decommission / rejoin over a rotating executor set.
  bench::Table tc({"churn events", "total (s)", "throughput (jobs/s)"});
  std::vector<std::pair<int, double>> sweep;
  for (int n = 0; n <= max_churn; n = n == 0 ? 2 : n * 2) {
    engine::MembershipSchedule m;
    const sim::Time horizon = static_cast<sim::Time>(kJobs) * t_job;
    for (int i = 0; i < n; ++i) {
      const sim::Time at =
          horizon * static_cast<sim::Time>(i + 1) /
          static_cast<sim::Time>(n + 1);
      const int exec = 3 + (i / 2) % 6;
      if (i % 2 == 0) {
        m.decommission(at, exec);
      } else {
        m.join(at, exec);
      }
    }
    const Campaign r = run_campaign(m, {});
    if (r.failed || r.jobs_ok != kJobs) {
      std::printf("BUG: churn rate %d diverged from the sequential "
                  "reference (%d/%d jobs ok)\n",
                  n, r.jobs_ok, kJobs);
      return 1;
    }
    const double thr = r.total_s > 0 ? kJobs / r.total_s : 0.0;
    sweep.emplace_back(n, thr);
    tc.add_row({std::to_string(n), bench::fmt(r.total_s, 3),
                bench::fmt(thr, 2)});
    if (n == 0 && max_churn == 0) break;
  }
  std::printf("\nThroughput vs churn rate (%d jobs per campaign):\n", kJobs);
  tc.print();

  bench::JsonReport("ablation_churn")
      .set("nodes", kNodes)
      .set("executors", kNodes * 6)
      .set("partitions", kParts)
      .set("jobs_per_campaign", kJobs)
      .add_table("campaigns", t)
      .add_table("per_algorithm", ta)
      .add_table("throughput_vs_churn", tc)
      .set("time_to_stable_ring_max_s", stable_max_s)
      .set("time_to_stable_ring_mean_s",
           stable_events > 0 ? stable_total_s / stable_events : 0.0)
      .with_sim_speed().write();

  std::printf(
      "\nEvery campaign, algorithm, and churn rate returned the bit-exact "
      "sequential-reference value for all %d jobs; drains hand partials to "
      "the ring successor (migrated column) instead of recomputing them.\n",
      kJobs);
  if (!trace_out.empty()) {
    std::printf("trace written to %s\n", trace_out.c_str());
  }
  return 0;
}
