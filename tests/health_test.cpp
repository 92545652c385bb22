// Health-aware scheduling tests.
//
// Monitor layer: with heartbeats off the driver's health view mirrors the
// fault fabric instantly (the pre-health omniscient behaviour); with
// heartbeats on, an executor death is noticed suspect-then-dead within
// bounded, measured detection latency, and cancelling the monitor at job
// end leaves the event queue drained without inflating the clock.
// Quarantined executors are excluded and readmitted when the window lapses.
//
// Engine layer: heartbeat detection makes recovery measurably slower than
// the omniscient view (the detection wait lands in recovery_time);
// speculative execution makes a straggler-afflicted job strictly faster
// while producing the identical value; a flaky executor is quarantined out
// of one job's ring and rejoins a later job's; and all of it replays
// bit-identically under a fixed seed.
//
// Speculation policy: a task is timed from its core slot and duplicated only
// onto a free core of an executor that takes tasks, so a 3x straggler's
// tasks are won by their duplicates, the straggler's executor id does not
// change the job time, and a two-wave stage's duplicates never starve the
// ring of a core.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "bench_util/vec_sai.hpp"
#include "engine/aggregate.hpp"
#include "engine/cluster.hpp"
#include "engine/config.hpp"
#include "engine/health.hpp"
#include "engine/rdd.hpp"
#include "net/cluster.hpp"
#include "net/fault.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"

namespace sparker {
namespace {

namespace e = sparker::engine;
using sim::Duration;
using sim::Simulator;
using sim::Task;
using sim::Time;
using Status = e::HealthMonitor::Status;
using Vec = std::vector<std::int64_t>;

// ===========================================================================
// HealthMonitor unit tests
// ===========================================================================

TEST(HealthMonitor, OmniscientFallbackMirrorsFabricInstantly) {
  Simulator sim;
  net::FaultFabric faults(sim);
  e::HealthConfig cfg;  // heartbeats off
  e::HealthMonitor mon(sim, faults, 3, cfg,
                       [](int) { return sim::microseconds(200); }, nullptr);
  EXPECT_TRUE(mon.usable(1));
  EXPECT_TRUE(mon.healthy(1));
  faults.kill_node(1);
  EXPECT_EQ(mon.status(1), Status::kDead);
  EXPECT_FALSE(mon.usable(1));
  EXPECT_EQ(mon.usable_executors(), (std::vector<int>{0, 2}));
  // No monitor ran: fallback detection is free and unrecorded.
  EXPECT_EQ(mon.stats().declared_dead, 0);
}

TEST(HealthMonitor, HeartbeatDetectionDeclaresDeathWithinBoundedLatency) {
  Simulator sim;
  net::FaultFabric faults(sim);
  e::HealthConfig cfg;
  cfg.heartbeats = true;  // interval 100ms, suspect 300ms, dead 800ms
  e::HealthMonitor mon(sim, faults, 2, cfg,
                       [](int) { return sim::microseconds(200); }, nullptr);
  mon.on_job_begin();
  const Time death = sim::milliseconds(250);
  faults.kill_node_at(death, 1);
  std::vector<std::pair<Time, Status>> observed;
  for (int ms = 100; ms <= 1500; ms += 50) {
    sim.call_at(sim::milliseconds(ms),
                [&mon, &observed, &sim] {
                  observed.emplace_back(sim.now(), mon.status(1));
                });
  }
  sim.call_at(sim::milliseconds(1600), [&mon] { mon.on_job_end(); });
  sim.run();

  bool saw_suspect = false;
  for (const auto& [t, st] : observed) {
    if (t <= death) {
      EXPECT_EQ(st, Status::kHealthy) << "t=" << t;
    }
    if (t > death + cfg.executor_timeout + 2 * cfg.heartbeat_interval) {
      EXPECT_EQ(st, Status::kDead) << "t=" << t;
    }
    if (st == Status::kSuspect) saw_suspect = true;
  }
  EXPECT_TRUE(saw_suspect);
  EXPECT_EQ(mon.stats().declared_dead, 1);
  EXPECT_GE(mon.stats().suspect_transitions, 1);
  EXPECT_GT(mon.stats().heartbeats_received, 0u);
  const Duration latency = mon.stats().max_detection_latency;
  EXPECT_GT(latency, cfg.executor_timeout - 2 * cfg.heartbeat_interval);
  EXPECT_LE(latency, cfg.executor_timeout + 2 * cfg.heartbeat_interval);
  // Cancelled monitor timers were discarded without running: the clock sits
  // exactly at the last real event.
  EXPECT_EQ(sim.now(), sim::milliseconds(1600));
}

TEST(HealthMonitor, QuarantineExcludesAndLapsesBackIn) {
  Simulator sim;
  net::FaultFabric faults(sim);
  e::HealthConfig cfg;
  cfg.quarantine = true;
  cfg.quarantine_max_failures = 2;
  cfg.quarantine_max_straggles = 2;
  cfg.quarantine_duration = sim::milliseconds(500);
  e::HealthMonitor mon(sim, faults, 3, cfg,
                       [](int) { return sim::microseconds(200); }, nullptr);

  mon.record_failure(1);
  EXPECT_TRUE(mon.usable(1)) << "one failure is below the threshold";
  mon.record_failure(1);
  EXPECT_EQ(mon.status(1), Status::kQuarantined);
  EXPECT_FALSE(mon.usable(1));
  EXPECT_EQ(mon.usable_executors(), (std::vector<int>{0, 2}));

  mon.record_straggler(2);
  mon.record_straggler(2);
  EXPECT_EQ(mon.status(2), Status::kQuarantined);
  EXPECT_EQ(mon.stats().quarantine_events, 2);

  bool checked = false;
  sim.call_at(sim::milliseconds(600), [&] {
    EXPECT_TRUE(mon.usable(1)) << "quarantine lapsed";
    EXPECT_TRUE(mon.usable(2));
    checked = true;
  });
  sim.run();
  EXPECT_TRUE(checked);
  EXPECT_EQ(mon.stats().rejoins, 2);
}

// ===========================================================================
// Engine-level health scenarios
// ===========================================================================

net::ClusterSpec health_spec(int nodes) {
  net::ClusterSpec s = net::ClusterSpec::bic(nodes);
  s.executors_per_node = 1;
  s.cores_per_executor = 2;
  s.fabric.gc.enabled = false;
  return s;
}

// Same shape as the fault tests' spec: dim real elements modeling `scale`x
// their wire size, partition cost 1ms per row so stragglers are visible.
e::SplitAggSpec<std::int64_t, Vec, Vec> health_split_spec(
    int dim, std::uint64_t scale) {
  e::SplitAggSpec<std::int64_t, Vec, Vec> spec;
  spec.base.zero = Vec(static_cast<std::size_t>(dim), 0);
  spec.base.seq_op = [dim](Vec& u, const std::int64_t& row) {
    for (int i = 0; i < dim; ++i) {
      u[static_cast<std::size_t>(i)] += row * (i + 1);
    }
  };
  spec.base.comb_op = bench::vec_sai::add;
  spec.base.bytes = bench::vec_sai::bytes(scale);
  spec.base.partition_cost = [](int, const std::vector<std::int64_t>& rows) {
    return sim::milliseconds(rows.size());
  };
  bench::vec_sai::set_callbacks(spec);
  return spec;
}

std::function<Vec(int)> health_rows(int rows_per_part) {
  return [rows_per_part](int pid) {
    Vec rows(static_cast<std::size_t>(rows_per_part));
    for (int i = 0; i < rows_per_part; ++i) {
      rows[static_cast<std::size_t>(i)] = pid * 1000 + i;
    }
    return rows;
  };
}

e::EngineConfig base_config() {
  e::EngineConfig cfg;
  cfg.agg_mode = e::AggMode::kSplit;
  cfg.sai_parallelism = 2;
  cfg.collective_timeout = sim::milliseconds(400);
  cfg.stage_retry_backoff = sim::milliseconds(10);
  return cfg;
}

struct HealthRun {
  bool failed = false;
  Vec value;
  e::AggMetrics stats;
  e::HealthStats health;
  std::vector<int> spec_targets;  ///< executor of each traced spec.launch.
};

HealthRun run_split(const e::EngineConfig& cfg, int nodes = 4, int parts = 8,
                    int rows = 6) {
  Simulator sim;
  e::Cluster cl(sim, health_spec(nodes), cfg);
  e::CachedRdd<std::int64_t> rdd(parts, cl.num_executors(), health_rows(rows));
  auto spec = health_split_spec(/*dim=*/64, /*scale=*/8192);
  HealthRun out;
  auto job = [&]() -> Task<Vec> {
    co_return co_await e::split_aggregate(cl, rdd, spec, &out.stats);
  };
  try {
    out.value = sim.run_task(job());
  } catch (const std::runtime_error&) {
    out.failed = true;
  }
  out.health = cl.health().stats();
  for (const obs::TraceEvent& ev : cl.trace().events()) {
    if (ev.kind == obs::EventKind::kInstant &&
        std::strcmp(ev.name, "spec.launch") == 0) {
      out.spec_targets.push_back(ev.pid - obs::kExecPidBase);
    }
  }
  return out;
}

TEST(HealthEngine, HeartbeatDetectionLatencyLandsInRecoveryTime) {
  // Fault-free reference: the ring window to aim the kill into.
  const HealthRun clean = run_split(base_config());
  ASSERT_FALSE(clean.failed);

  // Probe the ring window for a kill time that actually lands mid-collective
  // (parts of the window are driver-side concat, where a death is harmless).
  e::FaultSchedule schedule;
  HealthRun a;  // omniscient view: retry rebuilds over survivors immediately.
  bool found = false;
  for (int pct : {25, 40, 55, 70, 85}) {
    const Time t = clean.stats.compute_done +
                   (clean.stats.end - clean.stats.compute_done) *
                       static_cast<Time>(pct) / 100;
    e::FaultSchedule candidate;
    candidate.kill_executor(t, /*executor=*/2);
    e::EngineConfig omni = base_config();
    omni.fault_schedule = candidate;
    a = run_split(omni);
    ASSERT_FALSE(a.failed);
    EXPECT_EQ(a.value, clean.value);
    if (a.stats.ring_stage_attempts >= 2) {
      schedule = candidate;
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found) << "no kill time in the sweep hit the ring mid-flight";

  // Heartbeat view: the same kill, but the driver must first notice the
  // death (suspect -> dead), and the retry waits out detection.
  e::EngineConfig hb = base_config();
  hb.fault_schedule = schedule;
  hb.health.heartbeats = true;
  const HealthRun b = run_split(hb);
  ASSERT_FALSE(b.failed);
  EXPECT_EQ(b.value, clean.value);
  EXPECT_GE(b.stats.ring_stage_attempts, 2);
  EXPECT_EQ(b.health.declared_dead, 1);
  EXPECT_GT(b.health.max_detection_latency, 0u);
  // Detection is not free: recovery under heartbeats costs strictly more
  // than under the omniscient fallback, and the job ends later.
  EXPECT_GT(b.stats.recovery_time, a.stats.recovery_time);
  EXPECT_GT(b.stats.end, a.stats.end);
}

TEST(HealthEngine, SpeculationMakesStragglerJobStrictlyFaster) {
  // Executor 3 computes 8x slower; 30ms healthy tasks become 240ms.
  e::EngineConfig off = base_config();
  off.stragglers.slowdown[3] = 8.0;
  const HealthRun a = run_split(off, 4, 8, /*rows=*/30);
  ASSERT_FALSE(a.failed);
  EXPECT_EQ(a.stats.speculative_launches, 0);

  e::EngineConfig on = off;
  on.health.speculation = true;
  on.health.speculation_interval = sim::milliseconds(5);
  const HealthRun b = run_split(on, 4, 8, /*rows=*/30);
  ASSERT_FALSE(b.failed);
  EXPECT_EQ(b.value, a.value) << "duplicates must not change the result";
  EXPECT_GE(b.stats.speculative_launches, 1);
  EXPECT_GE(b.stats.speculative_wins, 1);
  EXPECT_LT(b.stats.total(), a.stats.total())
      << "first-finisher-wins must beat waiting out the straggler";
}

TEST(HealthEngine, FlakyExecutorQuarantinedThenRejoinsLaterRing) {
  e::EngineConfig cfg = base_config();
  cfg.health.quarantine = true;
  cfg.health.quarantine_max_failures = 2;
  cfg.health.quarantine_duration = sim::seconds(2);
  // Partition 1 prefers executor 1; its first two attempts fail there, which
  // crosses the quarantine threshold mid-job.
  cfg.faults.should_fail = [](const e::TaskId& id) {
    return id.job == 0 && id.stage == 0 && id.task == 1 && id.attempt < 2;
  };

  Simulator sim;
  e::Cluster cl(sim, health_spec(4), cfg);
  e::CachedRdd<std::int64_t> rdd(8, cl.num_executors(), health_rows(6));
  auto spec = health_split_spec(64, 8192);
  ASSERT_EQ(rdd.preferred_executor(1), 1);

  e::AggMetrics s1, s2;
  Vec v1, v2;
  bool excluded_during_job1 = false;
  int rejoined_rank = -1;
  auto jobs = [&]() -> Task<void> {
    v1 = co_await e::split_aggregate(cl, rdd, spec, &s1);
    // Right after job 1: executor 1 sits in quarantine, outside the ring.
    excluded_during_job1 = !cl.health().usable(1);
    // Let the quarantine lapse, then run a second job over the full ring.
    co_await sim.sleep(sim::seconds(3));
    v2 = co_await e::split_aggregate(cl, rdd, spec, &s2);
    rejoined_rank = cl.rank_of_executor(1);
  };
  sim.run_task(jobs());

  EXPECT_EQ(v1, v2) << "quarantine must not change the value";
  EXPECT_TRUE(excluded_during_job1);
  EXPECT_EQ(cl.health().stats().quarantine_events, 1);
  EXPECT_EQ(cl.health().stats().rejoins, 1);
  EXPECT_GE(rejoined_rank, 0) << "executor 1 rejoined the second job's ring";
  EXPECT_GE(s1.stage_restarts, 2) << "IMM restarts per injected failure";
  EXPECT_EQ(s2.stage_restarts, 0);
}

TEST(HealthEngine, HealthFeaturesReplayBitIdentically) {
  e::EngineConfig cfg = base_config();
  cfg.stragglers.slowdown[1] = 6.0;
  cfg.health.heartbeats = true;
  cfg.health.speculation = true;
  cfg.health.speculation_interval = sim::milliseconds(5);
  cfg.health.quarantine = true;
  cfg.health.quarantine_max_straggles = 1;

  const HealthRun a = run_split(cfg, 4, 8, /*rows=*/30);
  const HealthRun b = run_split(cfg, 4, 8, /*rows=*/30);
  ASSERT_FALSE(a.failed);
  ASSERT_FALSE(b.failed);
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(a.stats.end, b.stats.end);
  EXPECT_EQ(a.stats.compute_done, b.stats.compute_done);
  EXPECT_EQ(a.stats.speculative_launches, b.stats.speculative_launches);
  EXPECT_EQ(a.stats.speculative_wins, b.stats.speculative_wins);
  EXPECT_EQ(a.stats.recovery_time, b.stats.recovery_time);
  EXPECT_EQ(a.health.heartbeats_received, b.health.heartbeats_received);
  EXPECT_EQ(a.health.quarantine_events, b.health.quarantine_events);
}

// ===========================================================================
// Speculation policy
// ===========================================================================

// A plain sequential fold of run_split's input: what every job must return.
Vec sequential_fold(int parts, int rows) {
  const auto spec = health_split_spec(64, 8192);
  const auto gen = health_rows(rows);
  Vec acc = spec.base.zero;
  for (int p = 0; p < parts; ++p) {
    Vec part = spec.base.zero;
    for (const std::int64_t r : gen(p)) spec.base.seq_op(part, r);
    spec.base.comb_op(acc, part);
  }
  return acc;
}

e::EngineConfig speculating() {
  e::EngineConfig cfg = base_config();
  cfg.health.speculation = true;
  cfg.health.speculation_interval = sim::milliseconds(5);
  return cfg;
}

TEST(Speculation, StragglerTasksAreWonByTheirDuplicates) {
  // Two waves; executor 3 runs 4 of the 16 tasks, 3x slower (300 ms
  // instead of 100). Only those may be duplicated.
  e::EngineConfig cfg = speculating();
  cfg.stragglers.slowdown[3] = 3.0;
  const HealthRun r = run_split(cfg, 4, 16, /*rows=*/100);
  ASSERT_FALSE(r.failed);
  EXPECT_EQ(r.value, sequential_fold(16, 100));
  EXPECT_GE(r.stats.speculative_wins, 1);
  EXPECT_LE(r.stats.speculative_launches, 4);
}

TEST(Speculation, StragglerAtExecutorZeroCostsWhatItCostsElsewhere) {
  // Two task waves, so duplicates compete with queued primaries for cores.
  std::vector<double> seconds;
  for (const int straggler : {0, 2}) {
    SCOPED_TRACE(straggler);
    e::EngineConfig cfg = speculating();
    cfg.stragglers.slowdown[straggler] = 3.0;
    const HealthRun r = run_split(cfg, 4, 16, /*rows=*/100);
    ASSERT_FALSE(r.failed);
    EXPECT_EQ(r.value, sequential_fold(16, 100));
    seconds.push_back(sim::to_seconds(r.stats.total()));
  }
  EXPECT_NEAR(seconds[0], seconds[1], 0.01 * seconds[1]);
}

TEST(Speculation, FaultFreeSplitJobNeverRetriesItsRing) {
  // Two uniform waves of 200 ms tasks against a 400 ms collective timeout:
  // a duplicate queued on some executor's cores would hold its ring rank
  // back past the timeout.
  const HealthRun r = run_split(speculating(), 4, 16, /*rows=*/200);
  ASSERT_FALSE(r.failed);
  EXPECT_EQ(r.value, sequential_fold(16, 200));
  EXPECT_EQ(r.stats.ring_stage_attempts, 1);
  EXPECT_EQ(r.stats.recovery_time, 0u);
}

TEST(Speculation, DuplicatesNeverLandOnExecutorsThatTakeNoTasks) {
  // Executor 5 straggles. Executor 0 is a joiner that is never admitted and
  // executor 1 drains from mid-compute; both come first in the target scan
  // from executor 5, and neither may take a duplicate.
  e::EngineConfig cfg = speculating();
  cfg.stragglers.slowdown[5] = 3.0;
  cfg.membership.join(sim::seconds(1000), 0);
  cfg.membership.decommission(sim::milliseconds(50), 1);
  cfg.trace.enabled = true;
  const HealthRun r = run_split(cfg, 6, 12, /*rows=*/100);
  ASSERT_FALSE(r.failed);
  EXPECT_EQ(r.value, sequential_fold(12, 100));
  ASSERT_GE(r.stats.speculative_launches, 1);
  ASSERT_EQ(r.spec_targets.size(),
            static_cast<std::size_t>(r.stats.speculative_launches));
  for (const int target : r.spec_targets) {
    EXPECT_NE(target, 0) << "duplicate on a joiner not yet admitted";
    EXPECT_NE(target, 1) << "duplicate on a draining executor";
  }
}

}  // namespace
}  // namespace sparker
