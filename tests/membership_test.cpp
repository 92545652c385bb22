// Elastic membership: executors join, drain (with partial handoff), rejoin,
// and die mid-campaign. The invariant everything here leans on: int64
// addition is exact and commutative, so *any* fold order — including ring
// re-formation, successor migration, and overlapped refold — must produce
// the bit-exact sequential-reference sum. A wrong rank map, a double
// refold, or a lost migration shows up as a value mismatch, not a tolerance
// violation.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "bench_util/vec_sai.hpp"
#include "comm/registry.hpp"
#include "engine/aggregate.hpp"
#include "engine/cluster.hpp"
#include "engine/membership.hpp"
#include "engine/rdd.hpp"
#include "ml/workload.hpp"
#include "net/cluster.hpp"
#include "obs/export.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace sparker {
namespace {

namespace e = sparker::engine;
using sim::Simulator;
using sim::Task;
using sim::Time;
using Vec = std::vector<std::int64_t>;
using State = e::MembershipManager::State;
using Kind = net::FaultFabric::MembershipEventKind;

constexpr int kDim = 32;
constexpr int kParts = 12;
constexpr int kRows = 6;
constexpr std::uint64_t kScale = 8192;  // modeled bytes per real byte

net::ClusterSpec churn_spec() {
  net::ClusterSpec s = net::ClusterSpec::bic(1);  // 6 executors x 4 cores
  s.fabric.gc.enabled = false;
  // With the default 100 ms scheduler delay, "mid-compute" and "mid-ring"
  // times derived from a probe run land inside the delay instead of the
  // phase they target; shrink it so the windows are dominated by real work.
  s.rates.scheduler_delay = sim::milliseconds(1);
  return s;
}

e::SplitAggSpec<std::int64_t, Vec, Vec> churn_agg_spec() {
  e::SplitAggSpec<std::int64_t, Vec, Vec> spec;
  spec.base.zero = Vec(kDim, 0);
  spec.base.seq_op = [](Vec& u, const std::int64_t& row) {
    for (int i = 0; i < kDim; ++i) {
      u[static_cast<std::size_t>(i)] += row * (i + 1);
    }
  };
  spec.base.comb_op = bench::vec_sai::add;
  spec.base.bytes = bench::vec_sai::bytes(kScale);
  spec.base.partition_cost = [](int, const std::vector<std::int64_t>& rows) {
    return sim::milliseconds(static_cast<std::int64_t>(rows.size()));
  };
  bench::vec_sai::set_callbacks(spec);
  return spec;
}

std::function<Vec(int)> churn_rows() {
  return [](int pid) {
    Vec rows(static_cast<std::size_t>(kRows));
    for (int i = 0; i < kRows; ++i) {
      rows[static_cast<std::size_t>(i)] = pid * 100 + i;
    }
    return rows;
  };
}

// The fold every elastic run must reproduce bit-for-bit.
Vec sequential_reference() {
  Vec total(kDim, 0);
  for (int pid = 0; pid < kParts; ++pid) {
    Vec u(kDim, 0);
    for (int i = 0; i < kRows; ++i) {
      const std::int64_t row = pid * 100 + i;
      for (int d = 0; d < kDim; ++d) {
        u[static_cast<std::size_t>(d)] += row * (d + 1);
      }
    }
    for (int d = 0; d < kDim; ++d) {
      total[static_cast<std::size_t>(d)] += u[static_cast<std::size_t>(d)];
    }
  }
  return total;
}

struct ChurnOptions {
  e::MembershipSchedule membership;
  e::FaultSchedule faults;
  int jobs = 2;
  comm::AlgoId algo = comm::AlgoId::kAuto;
  bool overlap = true;
  bool heartbeats = false;
  bool allreduce = false;
};

struct ChurnRun {
  bool failed = false;
  std::vector<Vec> values;
  int ring_stage_attempts = 0;
  sim::Duration recovery_time = 0;
  sim::Duration trace_recovery = 0;
  sim::Duration overlap_span_time = 0;
  int overlap_spans = 0;
  /// recover.refold spans per executor, summed over the run.
  std::vector<int> refolds_per_exec;
  Time total = 0;
  e::MembershipStats mstats;
  obs::MembershipTimeline timeline;
  obs::FlameReport flame;
  bool lint_ok = false;
  std::string trace_json;
  Time compute_done = 0;  ///< of the first job
  Time first_end = 0;     ///< of the first job
};

ChurnRun run_churn(const ChurnOptions& opt) {
  e::EngineConfig cfg;
  cfg.agg_mode = e::AggMode::kSplit;
  cfg.sai_parallelism = 2;
  cfg.collective_algo = opt.algo;
  cfg.collective_timeout = sim::milliseconds(400);
  cfg.stage_retry_backoff = sim::milliseconds(10);
  cfg.max_stage_attempts = 4;
  cfg.overlap_recovery = opt.overlap;
  cfg.health.heartbeats = opt.heartbeats;
  cfg.fault_schedule = opt.faults;
  cfg.membership = opt.membership;
  cfg.trace.enabled = true;
  Simulator sim;
  e::Cluster cl(sim, churn_spec(), cfg);
  e::CachedRdd<std::int64_t> rdd(kParts, cl.num_executors(), churn_rows());
  auto spec = churn_agg_spec();
  ChurnRun out;
  auto job = [&]() -> Task<void> {
    for (int j = 0; j < opt.jobs; ++j) {
      e::AggMetrics m;
      // Not a ternary: GCC mis-lowers `cond ? co_await a : co_await b`
      // and double-destroys the awaited temporary.
      Vec v;
      if (opt.allreduce) {
        v = co_await e::split_allreduce(cl, rdd, spec, &m);
      } else {
        v = co_await e::split_aggregate(cl, rdd, spec, &m);
      }
      out.values.push_back(std::move(v));
      out.ring_stage_attempts += m.ring_stage_attempts;
      out.recovery_time += m.recovery_time;
      if (j == 0) {
        out.compute_done = m.compute_done;
        out.first_end = m.end;
      }
    }
  };
  try {
    sim.run_task(job());
  } catch (const std::runtime_error&) {
    out.failed = true;
  }
  out.total = sim.now();
  out.trace_recovery = obs::recovery_from_trace(cl.trace());
  out.refolds_per_exec.assign(
      static_cast<std::size_t>(cl.num_executors()), 0);
  for (const obs::TraceEvent& ev : cl.trace().events()) {
    if (ev.kind != obs::EventKind::kSpan || ev.is_open_span()) continue;
    if (std::strcmp(ev.name, "recover.overlap") == 0) {
      ++out.overlap_spans;
      out.overlap_span_time += ev.duration();
    } else if (std::strcmp(ev.name, "recover.refold") == 0) {
      ++out.refolds_per_exec.at(
          static_cast<std::size_t>(ev.arg("executor", -1)));
    }
  }
  out.mstats = cl.membership().stats();
  out.timeline = obs::membership_report(cl.trace());
  out.flame = obs::flame_report(cl.trace());
  out.lint_ok = obs::lint(cl.trace()).ok();
  out.trace_json = obs::chrome_trace_json(cl.trace());
  return out;
}

void expect_all_jobs_match_reference(const ChurnRun& run, int jobs) {
  ASSERT_FALSE(run.failed);
  const Vec want = sequential_reference();
  ASSERT_EQ(run.values.size(), static_cast<std::size_t>(jobs));
  for (int j = 0; j < jobs; ++j) {
    EXPECT_EQ(run.values[static_cast<std::size_t>(j)], want)
        << "job " << j << " diverged from the sequential reference";
  }
}

// ===========================================================================
// MembershipManager state machine (unit)
// ===========================================================================

TEST(MembershipStateMachine, JoinLifecycleThroughFabricEvents) {
  Simulator sim;
  net::Fabric fabric(sim, {}, 4);
  auto& f = fabric.faults();
  e::MembershipSchedule ms;
  ms.join(sim::seconds(1), 3);
  e::MembershipManager mgr(sim, ms, 4, f);
  f.set_membership_listener([&](Time t, int ex, Kind k) {
    mgr.on_fabric_event(t, ex, k);
  });

  // Named in a join event: outside the cluster until it fires.
  EXPECT_EQ(mgr.state(3), State::kJoining);
  EXPECT_FALSE(mgr.member(3));
  EXPECT_FALSE(mgr.active(3));
  for (int ex = 0; ex < 3; ++ex) EXPECT_EQ(mgr.state(ex), State::kActive);

  // Provisioned but not launched: not yet admittable.
  f.declare_pending_join(3);
  EXPECT_TRUE(mgr.admittable_joiners().empty());
  EXPECT_FALSE(mgr.boundary_work_pending());

  f.join_node_at(sim::seconds(1), 3);
  sim.run();
  EXPECT_TRUE(f.node_joined(3));
  EXPECT_EQ(mgr.admittable_joiners(), std::vector<int>{3});
  EXPECT_TRUE(mgr.boundary_work_pending());
  EXPECT_EQ(mgr.stats().joins_announced, 1);

  const std::int64_t epoch0 = mgr.epoch();
  mgr.begin_warmup(3);
  EXPECT_EQ(mgr.state(3), State::kWarming);
  EXPECT_FALSE(mgr.active(3));  // not until the transfer lands
  mgr.complete_warmup(3);
  EXPECT_EQ(mgr.state(3), State::kActive);
  EXPECT_TRUE(mgr.active(3));
  EXPECT_EQ(mgr.epoch(), epoch0 + 1);
  EXPECT_EQ(mgr.stats().joins_admitted, 1);
}

TEST(MembershipStateMachine, DecommissionDrainRejoinAndJoinerCancel) {
  Simulator sim;
  net::Fabric fabric(sim, {}, 4);
  auto& f = fabric.faults();
  e::MembershipSchedule ms;
  // First event is a decommission: executor 2 starts *inside* the cluster
  // (the rejoin case), unlike a plain joiner.
  ms.decommission(sim::seconds(1), 2).join(sim::seconds(2), 2);
  e::MembershipManager mgr(sim, ms, 4, f);
  EXPECT_EQ(mgr.state(2), State::kActive);

  mgr.on_fabric_event(0, 2, Kind::kDecommission);
  EXPECT_EQ(mgr.state(2), State::kDraining);
  EXPECT_TRUE(mgr.member(2));          // still heartbeats
  EXPECT_FALSE(mgr.active(2));  // no new work, out of the next ring
  EXPECT_TRUE(mgr.boundary_work_pending());
  const std::int64_t epoch_draining = mgr.epoch();

  mgr.note_migration(2);
  mgr.complete_drain(2);
  EXPECT_EQ(mgr.state(2), State::kLeft);
  EXPECT_FALSE(mgr.member(2));
  EXPECT_EQ(mgr.epoch(), epoch_draining + 1);
  EXPECT_EQ(mgr.stats().decommissions, 1);
  EXPECT_EQ(mgr.stats().drains_completed, 1);
  EXPECT_EQ(mgr.stats().partials_migrated, 2);

  // Spot rejoin: left -> joining again.
  mgr.on_fabric_event(0, 2, Kind::kJoin);
  EXPECT_EQ(mgr.state(2), State::kJoining);

  // Decommission of a not-yet-admitted joiner cancels the join.
  mgr.on_fabric_event(0, 2, Kind::kDecommission);
  EXPECT_EQ(mgr.state(2), State::kLeft);

  // Duplicate decommission of a departed executor: no-op.
  const std::int64_t epoch_left = mgr.epoch();
  mgr.on_fabric_event(0, 2, Kind::kDecommission);
  EXPECT_EQ(mgr.state(2), State::kLeft);
  EXPECT_EQ(mgr.epoch(), epoch_left);
}

// ===========================================================================
// Churn campaigns vs the sequential reference
// ===========================================================================

// Fault-free probe: job-1 timings used to place churn events.
struct Probe {
  Time compute_done;
  Time end;
  Time ring_at(int pct) const {
    return compute_done + (end - compute_done) * static_cast<Time>(pct) / 100;
  }
};

Probe probe_static() {
  ChurnOptions opt;
  opt.jobs = 1;
  const ChurnRun run = run_churn(opt);
  EXPECT_FALSE(run.failed);
  EXPECT_GT(run.first_end, run.compute_done);
  return {run.compute_done, run.first_end};
}

TEST(MembershipChurn, DecommissionThenRejoinMatchesReferenceUnderEveryAlgo) {
  const Probe p = probe_static();
  for (comm::AlgoId algo :
       comm::registered_algos(comm::CollectiveOp::kReduceScatter)) {
    SCOPED_TRACE(comm::to_string(algo));
    ChurnOptions opt;
    // Drain mid-compute of job 1 (executor 5 already holds stage-1
    // partials, so the handoff path runs), rejoin mid-job 2.
    opt.membership.decommission(p.compute_done / 2, 5)
        .join(p.end * 3 / 2, 5);
    opt.algo = algo;
    const ChurnRun run = run_churn(opt);
    expect_all_jobs_match_reference(run, opt.jobs);
    EXPECT_EQ(run.mstats.decommissions, 1);
    EXPECT_EQ(run.mstats.drains_completed, 1);
    EXPECT_EQ(run.mstats.joins_admitted, 1);
    EXPECT_GT(run.mstats.partials_migrated, 0)
        << "drain recomputed instead of migrating";
    EXPECT_TRUE(run.lint_ok);
  }
}

TEST(MembershipChurn, JoinDuringRecoveryStaysCorrect) {
  // Probe with executor 5 permanently outside so job-1 timings match the
  // 5-executor cluster the real run starts with.
  Probe p;
  {
    ChurnOptions opt;
    opt.jobs = 1;
    opt.membership.join(sim::seconds(1000), 5);
    const ChurnRun probe = run_churn(opt);
    ASSERT_FALSE(probe.failed);
    p = {probe.compute_done, probe.first_end};
  }
  ChurnOptions opt;
  opt.faults.kill_executor(p.ring_at(50), 2);
  opt.membership.join(p.ring_at(55), 5);  // announced inside the recovery
  const ChurnRun run = run_churn(opt);
  expect_all_jobs_match_reference(run, opt.jobs);
  EXPECT_EQ(run.mstats.joins_admitted, 1);
  EXPECT_GT(run.recovery_time, 0u);
  EXPECT_TRUE(run.lint_ok);
}

TEST(MembershipChurn, DecommissionOfRefoldTargetStaysCorrect) {
  const Probe p = probe_static();
  // Kill 2 mid-ring: its partials refold onto survivors. Then decommission
  // 3 — a likely refold target — so freshly refolded partials immediately
  // migrate again.
  ChurnOptions opt;
  opt.faults.kill_executor(p.ring_at(50), 2);
  opt.membership.decommission(p.ring_at(60), 3);
  const ChurnRun run = run_churn(opt);
  expect_all_jobs_match_reference(run, opt.jobs);
  EXPECT_EQ(run.mstats.drains_completed, 1);
  EXPECT_GT(run.recovery_time, 0u);
  EXPECT_TRUE(run.lint_ok);
}

TEST(MembershipChurn, SeededSchedulesAgreeWithSequentialReference) {
  const Probe p = probe_static();
  const Time horizon = p.end * 2;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    sim::Rng rng(seed);
    ChurnOptions opt;
    // Up to two decommission+rejoin pairs over distinct executors, plus
    // (half the time) one mid-ring kill of a third executor.
    const int pairs = 1 + static_cast<int>(rng.next_below(2));
    for (int k = 0; k < pairs; ++k) {
      const int exec = 1 + k;  // executors 1, 2
      const Time down =
          static_cast<Time>(rng.next_below(static_cast<std::uint64_t>(horizon)));
      const Time up = down + static_cast<Time>(rng.next_below(
                                 static_cast<std::uint64_t>(p.end)));
      opt.membership.decommission(down, exec).join(up, exec);
    }
    if (rng.next_below(2) == 1) {
      opt.faults.kill_executor(p.ring_at(30 + static_cast<int>(
                                   rng.next_below(50))), 4);
    }
    const ChurnRun run = run_churn(opt);
    expect_all_jobs_match_reference(run, opt.jobs);
    EXPECT_TRUE(run.lint_ok);
  }
}

// ===========================================================================
// Overlapped recovery
// ===========================================================================

TEST(OverlapRecovery, MatchesSequentialAndHidesRefoldUnderDetection) {
  const Probe p = probe_static();
  ChurnOptions seq_opt;
  seq_opt.jobs = 1;
  seq_opt.overlap = false;
  seq_opt.heartbeats = true;  // real detection window to hide work under
  seq_opt.faults.kill_executor(p.ring_at(50), 2);
  ChurnOptions ovl_opt = seq_opt;
  ovl_opt.overlap = true;

  const ChurnRun seq = run_churn(seq_opt);
  const ChurnRun ovl = run_churn(ovl_opt);
  expect_all_jobs_match_reference(seq, 1);
  expect_all_jobs_match_reference(ovl, 1);

  // Same bits either way; the overlap only moves work earlier.
  EXPECT_EQ(seq.values[0], ovl.values[0]);
  EXPECT_EQ(seq.overlap_spans, 0);
  EXPECT_GE(ovl.overlap_spans, 1) << "recover.overlap span missing";
  EXPECT_GT(ovl.overlap_span_time, 0u);
  EXPECT_LE(ovl.total, seq.total)
      << "overlapped recovery slower than sequential";

  // Trace-derived recovery must equal the engine's accounting to the
  // nanosecond in *both* modes (the overlap wrapper subsumes its
  // contained detect/backoff spans).
  EXPECT_EQ(seq.trace_recovery, seq.recovery_time);
  EXPECT_EQ(ovl.trace_recovery, ovl.recovery_time);
  EXPECT_TRUE(seq.lint_ok);
  EXPECT_TRUE(ovl.lint_ok);
}

TEST(OverlapRecovery, AllreduceSharesOverlapPathWithoutDoubleRefold) {
  // PR-1's TOCTOU regression, extended through split_allreduce: both split
  // paths now run the same ring_boundary/recover_between_attempts helpers,
  // so a kill anywhere in the allreduce window must refold each lost
  // executor's partials exactly once (a double refold would double-count
  // and break bit-equality; a re-claimed refold would show a second
  // recover.refold span for the same executor).
  ChurnOptions clean_opt;
  clean_opt.jobs = 1;
  clean_opt.allreduce = true;
  const ChurnRun clean = run_churn(clean_opt);
  ASSERT_FALSE(clean.failed);
  const Probe p = {clean.compute_done, clean.first_end};

  for (int pct : {30, 50, 70}) {
    SCOPED_TRACE(::testing::Message() << "kill at " << pct << "% of window");
    ChurnOptions opt;
    opt.jobs = 1;
    opt.allreduce = true;
    opt.faults.kill_executor(p.ring_at(pct), 2);
    const ChurnRun run = run_churn(opt);
    expect_all_jobs_match_reference(run, 1);
    for (std::size_t ex = 0; ex < run.refolds_per_exec.size(); ++ex) {
      EXPECT_LE(run.refolds_per_exec[ex], 1)
          << "executor " << ex << " refolded more than once";
    }
    EXPECT_TRUE(run.lint_ok);
    EXPECT_EQ(run.trace_recovery, run.recovery_time);
  }
}

TEST(OverlapRecovery, SecondKillDuringOverlapStaysCorrect) {
  const Probe p = probe_static();
  ChurnOptions opt;
  opt.jobs = 1;
  opt.heartbeats = true;
  opt.faults.kill_executor(p.ring_at(50), 2);
  // The second death lands while the first is still being recovered.
  opt.faults.kill_executor(p.ring_at(60), 3);
  const ChurnRun run = run_churn(opt);
  expect_all_jobs_match_reference(run, 1);
  EXPECT_GE(run.ring_stage_attempts, 2);
  EXPECT_GT(run.recovery_time, 0u);
  EXPECT_EQ(run.trace_recovery, run.recovery_time);
  EXPECT_TRUE(run.lint_ok);
}

// ===========================================================================
// Static schedules: elastic hooks must be invisible
// ===========================================================================

TEST(StaticMembership, EmptyScheduleIsByteIdenticalAndQuiet) {
  ChurnOptions a_opt;
  const ChurnRun a = run_churn(a_opt);
  expect_all_jobs_match_reference(a, a_opt.jobs);
  EXPECT_EQ(a.mstats.joins_announced, 0);
  EXPECT_EQ(a.mstats.decommissions, 0);
  EXPECT_EQ(a.mstats.partials_migrated, 0);
  EXPECT_EQ(a.timeline.ring_rebuilds, 1);  // formed once, never re-formed

  // Determinism: an identical run replays the identical trace...
  const ChurnRun b = run_churn(a_opt);
  EXPECT_EQ(a.trace_json, b.trace_json);

  // ...and without failures the overlap knob must not change a byte.
  ChurnOptions c_opt;
  c_opt.overlap = false;
  const ChurnRun c = run_churn(c_opt);
  EXPECT_EQ(a.trace_json, c.trace_json);
}

// ===========================================================================
// Trace-derived views: flame timelines and the membership report
// ===========================================================================

ChurnRun full_churn_run() {
  const Probe p = probe_static();
  ChurnOptions opt;
  opt.membership.join(sim::seconds(1000), 9);  // placeholder; trimmed below
  opt.membership.events.clear();
  opt.membership.decommission(p.compute_done / 2, 5)
      .join(p.end * 3 / 2, 5);
  opt.faults.kill_executor(p.ring_at(50), 2);
  return run_churn(opt);
}

TEST(FlameView, TimelinesPartitionTheTraceWindowExactly) {
  const ChurnRun run = full_churn_run();
  expect_all_jobs_match_reference(run, 2);
  ASSERT_GT(run.flame.window_end, run.flame.window_start);
  const sim::Duration window = run.flame.window_end - run.flame.window_start;
  bool someone_busy = false;
  for (const obs::ExecutorTimeline& tl : run.flame.executors) {
    SCOPED_TRACE(::testing::Message() << "executor " << tl.executor);
    // busy/blocked/idle are a partition of the window: unions are computed
    // over integer ns, so the identity is exact, not approximate.
    EXPECT_EQ(tl.busy + tl.blocked + tl.idle, window);
    if (tl.busy > 0) someone_busy = true;
  }
  EXPECT_TRUE(someone_busy);
  // The drained executor did strictly less work than a survivor that kept
  // its ring rank throughout.
  const auto busy_of = [&](int ex) {
    for (const auto& tl : run.flame.executors) {
      if (tl.executor == ex) return tl.busy;
    }
    return sim::Duration{0};
  };
  EXPECT_LT(busy_of(2), busy_of(0));  // killed mid-job-1
}

TEST(MembershipReport, TraceCountsMatchManagerStats) {
  const ChurnRun run = full_churn_run();
  expect_all_jobs_match_reference(run, 2);
  EXPECT_EQ(run.timeline.joins_announced, run.mstats.joins_announced);
  EXPECT_EQ(run.timeline.joins_admitted, run.mstats.joins_admitted);
  EXPECT_EQ(run.timeline.decommissions, run.mstats.decommissions);
  EXPECT_EQ(run.timeline.migrations, run.mstats.drains_completed);
  EXPECT_GE(run.timeline.ring_rebuilds, 2);  // drain + rejoin re-form
  EXPECT_GE(run.timeline.departures, 1);
  EXPECT_GT(run.timeline.max_time_to_stable, 0u)
      << "mid-compute decommission should stabilize only at the boundary";
}

// ===========================================================================
// Broadcast tracing: fig02's bcast split out of non_agg
// ===========================================================================

TEST(BroadcastTrace, PhaseMatchesAdhocAccountingExactly) {
  e::EngineConfig cfg;
  cfg.agg_mode = e::AggMode::kTree;
  cfg.trace.enabled = true;
  Simulator sim;
  e::Cluster cl(sim, churn_spec(), cfg);
  auto job = [&]() -> Task<ml::WorkloadRun> {
    co_return co_await ml::run_workload(cl, ml::workload_by_name("SVM-A"),
                                        /*iterations=*/3);
  };
  const ml::WorkloadRun run = sim.run_task(job());
  const obs::PhaseBreakdown ph = obs::phase_breakdown(cl.trace());
  EXPECT_GT(run.breakdown.broadcast, 0u);
  EXPECT_EQ(ph.broadcast, run.breakdown.broadcast);
  EXPECT_EQ(ph.non_agg, run.breakdown.non_agg);
  // Broadcast is a subset of non_agg, not a fifth bucket: the total must
  // not change when it is reported.
  EXPECT_LE(run.breakdown.broadcast, run.breakdown.non_agg);
  EXPECT_EQ(run.breakdown.total(), run.breakdown.driver +
                                       run.breakdown.non_agg +
                                       run.breakdown.agg_compute +
                                       run.breakdown.agg_reduce);
  EXPECT_TRUE(obs::lint(cl.trace()).ok());
}

}  // namespace
}  // namespace sparker
