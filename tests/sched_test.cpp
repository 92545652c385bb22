// Multi-tenant scheduler: policy registry round-trips, per-policy pick
// behaviour, admission control (bounded queue + load shedding), weighted
// fair-share throughput, and the two invariants everything else leans on:
// every concurrently-scheduled job's result is bit-identical to running it
// alone on a fresh cluster (int64 sums are exact under any fold order), and
// identical submission streams produce identical traces and metrics.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util/vec_sai.hpp"
#include "comm/registry.hpp"
#include "engine/aggregate.hpp"
#include "engine/cluster.hpp"
#include "engine/membership.hpp"
#include "engine/rdd.hpp"
#include "net/cluster.hpp"
#include "obs/export.hpp"
#include "sched/policy.hpp"
#include "sched/scheduler.hpp"
#include "sim/simulator.hpp"

namespace sparker {
namespace {

namespace e = sparker::engine;
using sim::Simulator;
using sim::Task;
using Vec = std::vector<std::int64_t>;

constexpr int kDim = 16;
constexpr int kParts = 8;
constexpr int kRows = 4;
constexpr std::uint64_t kScale = 4096;  // modeled bytes per real byte

net::ClusterSpec mt_spec() {
  net::ClusterSpec s = net::ClusterSpec::bic(1);  // 6 executors x 4 cores
  s.fabric.gc.enabled = false;
  s.rates.scheduler_delay = sim::milliseconds(1);
  return s;
}

e::EngineConfig mt_cfg(bool trace = false) {
  e::EngineConfig cfg;
  cfg.agg_mode = e::AggMode::kSplit;
  cfg.sai_parallelism = 2;
  cfg.trace.enabled = trace;
  return cfg;
}

e::SplitAggSpec<std::int64_t, Vec, Vec> mt_agg_spec() {
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

/// Rows for payload variant `offset`: distinct variants give distinct sums,
/// so a cross-job delivery mix-up shows up as a value mismatch.
std::function<Vec(int)> variant_rows(int offset) {
  return [offset](int pid) {
    Vec rows(static_cast<std::size_t>(kRows));
    for (int i = 0; i < kRows; ++i) {
      rows[static_cast<std::size_t>(i)] = pid * 100 + i + offset * 1000;
    }
    return rows;
  };
}

constexpr std::uint64_t kAggBytes =
    static_cast<std::uint64_t>(kDim) * sizeof(std::int64_t) * kScale;

/// One job body: a single splitAggregate campaign routed onto the job's
/// private ring via `opt`.
Task<void> run_one(e::Cluster& cl, e::CachedRdd<std::int64_t>& rdd,
                   const e::SplitAggSpec<std::int64_t, Vec, Vec>& spec,
                   e::JobOptions opt, Vec* out) {
  e::AggMetrics m;
  Vec v = co_await e::split_aggregate(cl, rdd, spec, &m, opt);
  *out = std::move(v);
}

/// The same campaign run alone on a fresh cluster: the bit-identity
/// reference for a scheduled job of payload variant `offset`.
Vec solo_reference(int offset) {
  Simulator sim;
  e::Cluster cl(sim, mt_spec(), mt_cfg());
  e::CachedRdd<std::int64_t> rdd(kParts, cl.num_executors(),
                                 variant_rows(offset));
  auto spec = mt_agg_spec();
  Vec out;
  auto job = [&]() -> Task<void> {
    e::AggMetrics m;
    out = co_await e::split_aggregate(cl, rdd, spec, &m);
  };
  sim.run_task(job());
  return out;
}

struct MtOptions {
  sched::PolicyId policy = sched::PolicyId::kFairShare;
  int tenants = 3;
  int jobs_per_tenant = 4;
  int max_concurrent = 3;
  int variants = 4;
  std::map<int, double> weights;
  bool trace = false;
};

struct MtRun {
  std::vector<Vec> values;  ///< by submission order.
  std::vector<int> variant; ///< payload variant by submission order.
  std::vector<sched::JobRecord> records;
  std::int64_t completed = 0;
  std::int64_t rejected = 0;
  bool lint_ok = true;
  std::string trace_json;
  std::string metrics_json;
};

MtRun run_mt(const MtOptions& opt) {
  Simulator sim;
  e::Cluster cl(sim, mt_spec(), mt_cfg(opt.trace));
  auto spec = mt_agg_spec();
  std::vector<std::unique_ptr<e::CachedRdd<std::int64_t>>> rdds;
  for (int v = 0; v < opt.variants; ++v) {
    rdds.push_back(std::make_unique<e::CachedRdd<std::int64_t>>(
        kParts, cl.num_executors(), variant_rows(v)));
  }

  sched::SchedConfig sc;
  sc.policy = opt.policy;
  sc.max_concurrent = opt.max_concurrent;
  sc.tenant_weights = opt.weights;
  sched::JobScheduler sched(cl, sc);

  const int total = opt.tenants * opt.jobs_per_tenant;
  MtRun out;
  out.values.resize(static_cast<std::size_t>(total));
  out.variant.resize(static_cast<std::size_t>(total));
  auto driver = [&]() -> Task<void> {
    for (int i = 0; i < total; ++i) {
      const int variant = i % opt.variants;
      out.variant[static_cast<std::size_t>(i)] = variant;
      sched::JobSpec js;
      js.tenant = i % opt.tenants;  // interleaved submission across tenants.
      js.aggregator_bytes = kAggBytes;
      js.tasks = kParts;
      Vec* slot = &out.values[static_cast<std::size_t>(i)];
      sched.submit(js, [&cl, &spec, &rdds, variant,
                        slot](sched::JobContext& ctx) {
        return run_one(cl, *rdds[static_cast<std::size_t>(variant)], spec,
                       ctx.opt, slot);
      });
    }
    co_await sched.drain();
  };
  sim.run_task(driver());

  out.records = sched.records();
  out.completed = sched.completed();
  out.rejected = sched.rejected();
  if (opt.trace) {
    out.lint_ok = obs::lint(cl.trace()).ok();
    out.trace_json = obs::chrome_trace_json(cl.trace());
  }
  out.metrics_json = cl.metrics().to_json();
  return out;
}

// ---------------------------------------------------------------------------
// Policy registry and per-policy pick behaviour.

TEST(SchedPolicy, RegistryRoundTrip) {
  auto& reg = sched::PolicyRegistry::instance();
  EXPECT_EQ(reg.registered().size(), 3u);
  for (sched::PolicyId id : reg.registered()) {
    EXPECT_EQ(sched::parse_policy(sched::to_string(id)), id);
    EXPECT_STREQ(reg.name(id), sched::to_string(id));
    EXPECT_NE(reg.make(id), nullptr);
  }
  EXPECT_THROW(sched::parse_policy("shortest_job_first"),
               std::invalid_argument);
}

sched::QueuedJob qj(int job, int tenant, double weight = 1.0) {
  sched::QueuedJob q;
  q.job = job;
  q.tenant = tenant;
  q.weight = weight;
  q.cores_frac = 0.25;
  q.net_frac = 0.1;
  return q;
}

TEST(SchedPolicy, FifoPicksSubmissionOrder) {
  auto p = sched::PolicyRegistry::instance().make(sched::PolicyId::kFifo);
  std::map<int, sched::TenantUsage> running;
  std::vector<sched::QueuedJob> q = {qj(3, 2), qj(5, 0), qj(7, 1)};
  EXPECT_EQ(p->pick(q, running), 0u);  // head of queue, tenants ignored.
}

TEST(SchedPolicy, RoundRobinCyclesTenants) {
  auto p =
      sched::PolicyRegistry::instance().make(sched::PolicyId::kRoundRobin);
  std::map<int, sched::TenantUsage> running;
  // Tenant 0 has two queued jobs, tenants 1 and 2 one each.
  std::vector<sched::QueuedJob> q = {qj(0, 0), qj(1, 0), qj(2, 1), qj(3, 2)};
  EXPECT_EQ(p->pick(q, running), 0u);  // tenant 0, oldest job 0.
  q.erase(q.begin());
  EXPECT_EQ(p->pick(q, running), 1u);  // tenant 1 next, not tenant 0 again.
  q.erase(q.begin() + 1);
  EXPECT_EQ(p->pick(q, running), 1u);  // tenant 2.
  q.erase(q.begin() + 1);
  EXPECT_EQ(p->pick(q, running), 0u);  // wraps back to tenant 0's job 1.
}

TEST(SchedPolicy, FairSharePicksSmallestDominantShare) {
  auto p =
      sched::PolicyRegistry::instance().make(sched::PolicyId::kFairShare);
  std::map<int, sched::TenantUsage> running;
  running[0] = {0.5, 0.1, 1.0};  // dominant 0.5
  running[1] = {0.3, 0.1, 1.0};  // dominant 0.3
  std::vector<sched::QueuedJob> q = {qj(0, 0), qj(1, 1), qj(2, 2)};
  // Tenant 2 runs nothing: most entitled.
  EXPECT_EQ(p->pick(q, running), 2u);
  // With tenant 2 gone, tenant 1 has the smaller share.
  q.pop_back();
  EXPECT_EQ(p->pick(q, running), 1u);
  // Weight 2 halves tenant 0's share (0.25 < 0.3): weighted DRF.
  running[0].weight = 2.0;
  q = {qj(0, 0, 2.0), qj(1, 1)};
  EXPECT_EQ(p->pick(q, running), 0u);
}

// ---------------------------------------------------------------------------
// Admission control.

TEST(SchedAdmission, BoundedQueueRejectsOverflow) {
  Simulator sim;
  e::Cluster cl(sim, mt_spec(), mt_cfg());
  e::CachedRdd<std::int64_t> rdd(kParts, cl.num_executors(), variant_rows(0));
  auto spec = mt_agg_spec();
  sched::SchedConfig sc;
  sc.max_concurrent = 1;
  sc.max_queue = 2;
  sched::JobScheduler sched(cl, sc);

  std::vector<Vec> vals(5);
  std::vector<int> ids;
  auto driver = [&]() -> Task<void> {
    for (int i = 0; i < 5; ++i) {
      sched::JobSpec js;
      js.tenant = i;
      js.aggregator_bytes = kAggBytes;
      js.tasks = kParts;
      Vec* slot = &vals[static_cast<std::size_t>(i)];
      ids.push_back(sched.submit(js, [&, slot](sched::JobContext& ctx) {
        return run_one(cl, rdd, spec, ctx.opt, slot);
      }));
    }
    co_await sched.drain();
  };
  sim.run_task(driver());

  // Job 0 dispatches, 1 and 2 queue, 3 and 4 bounce off the full queue.
  EXPECT_EQ(ids, (std::vector<int>{0, 1, 2, -1, -1}));
  EXPECT_EQ(sched.completed(), 3);
  EXPECT_EQ(sched.rejected(), 2);
  for (int i = 0; i < 3; ++i) {
    const auto& r = sched.records()[static_cast<std::size_t>(i)];
    EXPECT_TRUE(r.done) << i;
    EXPECT_FALSE(r.failed) << i;
    EXPECT_EQ(r.rejected, sched::Reject::kNone) << i;
    EXPECT_GT(r.net_bytes, 0u) << i;
  }
  for (int i = 3; i < 5; ++i) {
    const auto& r = sched.records()[static_cast<std::size_t>(i)];
    EXPECT_FALSE(r.done) << i;
    EXPECT_EQ(r.rejected, sched::Reject::kQueueFull) << i;
  }
  auto& reg = cl.metrics();
  EXPECT_EQ(reg.counter_value("sched.admitted"), 3);
  EXPECT_EQ(reg.counter_value("sched.rejected"), 2);
  EXPECT_EQ(reg.counter_value("sched.rejected.queue_full"), 2);
  EXPECT_EQ(reg.counter_value("sched.completed"), 3);
  // Admitted jobs all produced the solo-run answer.
  const Vec ref = solo_reference(0);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(vals[static_cast<std::size_t>(i)], ref);
}

TEST(SchedAdmission, LoadSheddingRejectsAboveThreshold) {
  Simulator sim;
  e::Cluster cl(sim, mt_spec(), mt_cfg());
  e::CachedRdd<std::int64_t> rdd(kParts, cl.num_executors(), variant_rows(0));
  auto spec = mt_agg_spec();
  sched::SchedConfig sc;
  sc.max_concurrent = 4;
  sc.overload_threshold = 0.5;
  sched::JobScheduler sched(cl, sc);

  // Each job demands 8 of 24 cores = 1/3 of the cluster. The first fits
  // under the 0.5 threshold; committing a second (2/3) would not.
  std::vector<Vec> vals(2);
  std::vector<int> ids;
  auto driver = [&]() -> Task<void> {
    for (int i = 0; i < 2; ++i) {
      sched::JobSpec js;
      js.tenant = i;
      js.aggregator_bytes = kAggBytes;
      js.tasks = kParts;
      Vec* slot = &vals[static_cast<std::size_t>(i)];
      ids.push_back(sched.submit(js, [&, slot](sched::JobContext& ctx) {
        return run_one(cl, rdd, spec, ctx.opt, slot);
      }));
    }
    co_await sched.drain();
  };
  sim.run_task(driver());

  EXPECT_EQ(ids, (std::vector<int>{0, -1}));
  EXPECT_EQ(sched.records()[1].rejected, sched::Reject::kOverloaded);
  EXPECT_EQ(cl.metrics().counter_value("sched.rejected.overloaded"), 1);
  EXPECT_EQ(sched.completed(), 1);
  EXPECT_EQ(vals[0], solo_reference(0));
}

// ---------------------------------------------------------------------------
// Concurrent execution: isolation, accounting, fairness, determinism.

TEST(SchedConcurrent, EveryJobBitIdenticalToSoloRun) {
  MtOptions opt;
  opt.policy = sched::PolicyId::kFairShare;
  opt.tenants = 3;
  opt.jobs_per_tenant = 4;
  opt.max_concurrent = 3;
  opt.trace = true;
  MtRun run = run_mt(opt);

  ASSERT_EQ(run.completed, 12);
  EXPECT_EQ(run.rejected, 0);
  EXPECT_TRUE(run.lint_ok);
  std::vector<Vec> refs;
  for (int v = 0; v < opt.variants; ++v) refs.push_back(solo_reference(v));
  for (std::size_t i = 0; i < run.values.size(); ++i) {
    EXPECT_EQ(run.values[i],
              refs[static_cast<std::size_t>(run.variant[i])])
        << "job " << i << " diverged from its solo run";
    EXPECT_TRUE(run.records[i].done);
    EXPECT_FALSE(run.records[i].failed);
    EXPECT_GT(run.records[i].net_bytes, 0u);
    EXPECT_GE(run.records[i].started, run.records[i].submitted);
    EXPECT_GT(run.records[i].finished, run.records[i].started);
  }
}

TEST(SchedConcurrent, InterleavedScheduleIsDeterministic) {
  MtOptions opt;
  opt.policy = sched::PolicyId::kRoundRobin;
  opt.tenants = 3;
  opt.jobs_per_tenant = 3;
  opt.max_concurrent = 3;
  opt.trace = true;
  MtRun a = run_mt(opt);
  MtRun b = run_mt(opt);

  EXPECT_EQ(a.values, b.values);
  EXPECT_EQ(a.trace_json, b.trace_json);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].started, b.records[i].started) << i;
    EXPECT_EQ(a.records[i].finished, b.records[i].finished) << i;
    EXPECT_EQ(a.records[i].net_bytes, b.records[i].net_bytes) << i;
  }
}

TEST(SchedConcurrent, WeightedFairShareTracksWeights) {
  MtOptions opt;
  opt.policy = sched::PolicyId::kFairShare;
  opt.tenants = 3;
  opt.jobs_per_tenant = 10;
  opt.max_concurrent = 4;
  opt.variants = 1;  // identical jobs isolate the scheduling effect.
  opt.weights = {{0, 2.0}};  // tenant 0 weighs 2, tenants 1 and 2 weigh 1.
  MtRun run = run_mt(opt);
  ASSERT_EQ(run.completed, 30);

  // Under sustained backlog the completion stream should track the 2:1:1
  // weights. Count per-tenant completions among the first 16 finishers
  // (expected split 8:4:4).
  std::vector<const sched::JobRecord*> by_finish;
  for (const auto& r : run.records) by_finish.push_back(&r);
  std::stable_sort(by_finish.begin(), by_finish.end(),
                   [](const sched::JobRecord* x, const sched::JobRecord* y) {
                     return x->finished < y->finished;
                   });
  std::map<int, int> first16;
  for (int i = 0; i < 16; ++i) ++first16[by_finish[i]->tenant];
  EXPECT_GE(first16[0], first16[1] + 2)
      << "weight-2 tenant should finish measurably more jobs";
  EXPECT_GE(first16[0], first16[2] + 2);
  EXPECT_GE(first16[1], 2) << "weight-1 tenants must not starve";
  EXPECT_GE(first16[2], 2);
  // Within the same weight class, shares are near-equal.
  EXPECT_LE(std::abs(first16[1] - first16[2]), 2);
}

// ---------------------------------------------------------------------------
// Per-job metrics: concurrent (and back-to-back) jobs must not collide in
// the MetricsRegistry. Engine-side series are keyed by the cluster-unique
// engine job id; scheduler-side series by the scheduler job id.

TEST(SchedMetrics, BackToBackJobsKeepDistinctSeries) {
  Simulator sim;
  e::EngineConfig cfg = mt_cfg();
  cfg.per_job_metrics = true;
  e::Cluster cl(sim, mt_spec(), cfg);
  e::CachedRdd<std::int64_t> rdd(kParts, cl.num_executors(), variant_rows(0));
  auto spec = mt_agg_spec();
  auto job = [&]() -> Task<void> {
    for (int j = 0; j < 2; ++j) {
      e::AggMetrics m;
      Vec v = co_await e::split_aggregate(cl, rdd, spec, &m);
      (void)v;
    }
  };
  sim.run_task(job());
  // Two identical jobs, two distinct per-job series.
  EXPECT_GT(cl.metrics().counter_value("job.0.duration_ns"), 0);
  EXPECT_GT(cl.metrics().counter_value("job.1.duration_ns"), 0);
}

TEST(SchedMetrics, ConcurrentJobsKeepDistinctSeries) {
  Simulator sim;
  e::Cluster cl(sim, mt_spec(), mt_cfg());
  e::CachedRdd<std::int64_t> rdd(kParts, cl.num_executors(), variant_rows(0));
  auto spec = mt_agg_spec();
  sched::SchedConfig sc;
  sc.max_concurrent = 2;
  sched::JobScheduler sched(cl, sc);  // turns per_job_metrics on.
  EXPECT_TRUE(cl.config().per_job_metrics);

  std::vector<Vec> vals(2);
  auto driver = [&]() -> Task<void> {
    for (int i = 0; i < 2; ++i) {
      sched::JobSpec js;
      js.tenant = i;
      js.aggregator_bytes = kAggBytes;
      js.tasks = kParts;
      Vec* slot = &vals[static_cast<std::size_t>(i)];
      sched.submit(js, [&, slot](sched::JobContext& ctx) {
        return run_one(cl, rdd, spec, ctx.opt, slot);
      });
    }
    co_await sched.drain();
  };
  sim.run_task(driver());

  ASSERT_EQ(sched.completed(), 2);
  EXPECT_EQ(vals[0], vals[1]);  // identical jobs, identical answers...
  auto& reg = cl.metrics();
  // ...but fully separate engine-side and scheduler-side series.
  EXPECT_GT(reg.counter_value("job.0.duration_ns"), 0);
  EXPECT_GT(reg.counter_value("job.1.duration_ns"), 0);
  EXPECT_GT(reg.counter_value("sched.job.0.latency_ns"), 0);
  EXPECT_GT(reg.counter_value("sched.job.1.latency_ns"), 0);
  EXPECT_GT(reg.counter_value("sched.job.0.net_bytes"), 0);
  EXPECT_GT(reg.counter_value("sched.job.1.net_bytes"), 0);
  EXPECT_GT(reg.counter_value("sched.tenant.0.core_ns"), 0);
  EXPECT_GT(reg.counter_value("sched.tenant.1.core_ns"), 0);
}

// ---------------------------------------------------------------------------
// Fair-share usage decay (CFS-style aging of the resource-second history).

TEST(SchedDecay, DecayFactorHalvesPerHalfLife) {
  EXPECT_DOUBLE_EQ(sched::usage_decay_factor(5.0, 0.0), 1.0);  // disabled
  EXPECT_DOUBLE_EQ(sched::usage_decay_factor(0.0, 10.0), 1.0);
  EXPECT_DOUBLE_EQ(sched::usage_decay_factor(10.0, 10.0), 0.5);
  EXPECT_DOUBLE_EQ(sched::usage_decay_factor(20.0, 10.0), 0.25);
  EXPECT_NEAR(sched::usage_decay_factor(1000.0, 10.0), 0.0, 1e-12);
}

/// Scenario for the decay tests: tenant 0 hogs the cluster (4 jobs), then
/// `gap` of idle time passes, then tenant 1 runs one light job, then — with
/// a blocker occupying the single slot so the policy must order the queue —
/// tenant 0 and tenant 1 each submit one probe job. Returns the dispatch
/// times of the two probes.
struct DecayProbe {
  sim::Time t0_started = 0;
  sim::Time t1_started = 0;
};

DecayProbe run_decay_probe(sim::Duration half_life, sim::Duration gap) {
  Simulator sim;
  e::Cluster cl(sim, mt_spec(), mt_cfg());
  e::CachedRdd<std::int64_t> rdd(kParts, cl.num_executors(), variant_rows(0));
  auto spec = mt_agg_spec();
  sched::SchedConfig sc;
  sc.policy = sched::PolicyId::kFairShare;
  sc.max_concurrent = 1;
  sc.usage_half_life = half_life;
  sched::JobScheduler sched(cl, sc);

  std::vector<Vec> sink(8);
  int next = 0;
  auto submit = [&](int tenant) {
    sched::JobSpec js;
    js.tenant = tenant;
    js.aggregator_bytes = kAggBytes;
    js.tasks = kParts;
    Vec* slot = &sink[static_cast<std::size_t>(next++)];
    return sched.submit(js, [&cl, &rdd, &spec, slot](sched::JobContext& ctx) {
      return run_one(cl, rdd, spec, ctx.opt, slot);
    });
  };

  DecayProbe out;
  auto driver = [&]() -> Task<void> {
    for (int i = 0; i < 4; ++i) submit(0);  // tenant 0 hogs...
    co_await sched.drain();
    co_await sim.sleep(gap);                // ...then the cluster idles...
    submit(1);                              // ...then tenant 1 runs lightly.
    co_await sched.drain();
    const int blocker = submit(2);
    const int probe0 = submit(0);
    const int probe1 = submit(1);
    (void)blocker;
    co_await sched.drain();
    out.t0_started = sched.records()[static_cast<std::size_t>(probe0)].started;
    out.t1_started = sched.records()[static_cast<std::size_t>(probe1)].started;
  };
  sim.run_task(driver());
  return out;
}

TEST(SchedDecay, AncientHoggingIsForgiven) {
  // Without decay the history is forever: tenant 0's long-past hogging
  // still outweighs tenant 1's recent light job, so tenant 1 goes first.
  DecayProbe forever = run_decay_probe(0, sim::seconds(1000));
  EXPECT_LT(forever.t1_started, forever.t0_started);
  // With a 10 s half-life, usage from 1000 s ago has decayed to nothing
  // while tenant 1's job just ran: tenant 0 is now the more entitled one.
  DecayProbe decayed = run_decay_probe(sim::seconds(10), sim::seconds(1000));
  EXPECT_LT(decayed.t0_started, decayed.t1_started);
}

TEST(SchedDecay, RecentHeavyUsageStillCounts) {
  // Decay must not let a sparse heavy tenant queue-jump: with the gap well
  // inside the half-life, tenant 0's heavy usage is nearly undecayed and
  // the dispatch order matches the no-decay history exactly.
  DecayProbe decayed = run_decay_probe(sim::seconds(1000), sim::seconds(1));
  EXPECT_LT(decayed.t1_started, decayed.t0_started);
}

TEST(SchedDecay, DecayedScheduleIsDeterministic) {
  DecayProbe a = run_decay_probe(sim::seconds(10), sim::seconds(100));
  DecayProbe b = run_decay_probe(sim::seconds(10), sim::seconds(100));
  EXPECT_EQ(a.t0_started, b.t0_started);
  EXPECT_EQ(a.t1_started, b.t1_started);
}

}  // namespace
}  // namespace sparker
