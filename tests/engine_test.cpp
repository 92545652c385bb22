// Engine tests: RDD semantics, agreement of tree / tree+IMM / split
// aggregation with a sequential reference, Spark's tree reduction schedule,
// fault-injection semantics (task retry vs stage restart), stragglers, the
// timing relationships the paper's Figure 16 depends on, the aggregator
// lifetime contract (which attempt folds a partition, and how many task
// aggregators are alive at once), speculation timing tasks from their core
// slot, and the rejection of invalid engine settings at job start.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util/vec_sai.hpp"
#include "engine/aggregate.hpp"
#include "engine/cluster.hpp"
#include "engine/config.hpp"
#include "engine/rdd.hpp"
#include "net/cluster.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"

namespace sparker::engine {
namespace {

using sim::Simulator;
using sim::Task;
using Vec = std::vector<std::int64_t>;

// A small test cluster (2 nodes x 2 executors x 2 cores) with GC off.
net::ClusterSpec small_spec(int nodes = 2) {
  net::ClusterSpec s = net::ClusterSpec::bic(nodes);
  s.executors_per_node = 2;
  s.cores_per_executor = 2;
  s.fabric.gc.enabled = false;
  return s;
}

// Rows are int64; the aggregator is a Vec of `dim` sums where row r adds
// (r % dim == i ? r : 0)... simpler: aggregator[i] += row * (i + 1).
TreeAggSpec<std::int64_t, Vec> sum_spec(int dim) {
  TreeAggSpec<std::int64_t, Vec> spec;
  spec.zero = Vec(static_cast<std::size_t>(dim), 0);
  spec.seq_op = [dim](Vec& u, const std::int64_t& row) {
    for (int i = 0; i < dim; ++i) {
      u[static_cast<std::size_t>(i)] += row * (i + 1);
    }
  };
  spec.comb_op = bench::vec_sai::add;
  spec.bytes = bench::vec_sai::bytes();
  spec.partition_cost = [](int, const std::vector<std::int64_t>& rows) {
    return sim::microseconds(rows.size());
  };
  return spec;
}

SplitAggSpec<std::int64_t, Vec, Vec> split_sum_spec(int dim) {
  SplitAggSpec<std::int64_t, Vec, Vec> spec;
  spec.base = sum_spec(dim);
  bench::vec_sai::set_callbacks(spec);
  return spec;
}

std::function<std::vector<std::int64_t>(int)> row_gen(int rows_per_part) {
  return [rows_per_part](int pid) {
    std::vector<std::int64_t> rows(static_cast<std::size_t>(rows_per_part));
    for (int i = 0; i < rows_per_part; ++i) {
      rows[static_cast<std::size_t>(i)] = pid * 1000 + i;
    }
    return rows;
  };
}

Vec sequential_reference(CachedRdd<std::int64_t>& rdd,
                         const TreeAggSpec<std::int64_t, Vec>& spec) {
  Vec acc = spec.zero;
  for (int p = 0; p < rdd.num_partitions(); ++p) {
    Vec part_agg = spec.zero;
    for (auto r : rdd.partition(p)) spec.seq_op(part_agg, r);
    spec.comb_op(acc, part_agg);
  }
  return acc;
}

TEST(CachedRdd, PartitionAffinityRoundRobin) {
  CachedRdd<std::int64_t> rdd(10, 4, row_gen(3));
  EXPECT_EQ(rdd.num_partitions(), 10);
  EXPECT_EQ(rdd.preferred_executor(0), 0);
  EXPECT_EQ(rdd.preferred_executor(5), 1);
  EXPECT_EQ(rdd.preferred_executor(9), 1);
  EXPECT_EQ(rdd.count(), 30u);
}

TEST(CachedRdd, RegenerationIsDeterministic) {
  CachedRdd<std::int64_t> a(4, 2, row_gen(5));
  CachedRdd<std::int64_t> b(4, 2, row_gen(5));
  a.materialize();
  for (int p = 0; p < 4; ++p) EXPECT_EQ(a.partition(p), b.partition(p));
}

TEST(CachedRdd, InvalidArgsThrow) {
  EXPECT_THROW(CachedRdd<int>(0, 2, nullptr), std::invalid_argument);
  EXPECT_THROW(CachedRdd<int>(2, 0, nullptr), std::invalid_argument);
}

TEST(Cluster, ExecutorLayoutMatchesSpec) {
  Simulator sim;
  Cluster cl(sim, small_spec());
  EXPECT_EQ(cl.num_executors(), 4);
  // Round-robin registration: executor 0 on host 0, executor 1 on host 1.
  EXPECT_EQ(cl.executor(0).host(), 0);
  EXPECT_EQ(cl.executor(1).host(), 1);
  EXPECT_EQ(cl.executor(2).host(), 0);
}

TEST(Cluster, RankMappingTopologyAware) {
  Simulator sim;
  Cluster cl(sim, small_spec());
  cl.config().topology_aware = true;
  // Sorted by hostname: ranks 0,1 on host 0; ranks 2,3 on host 1.
  auto& sc = cl.scalable_comm();
  EXPECT_EQ(sc.host_of(0), 0);
  EXPECT_EQ(sc.host_of(1), 0);
  EXPECT_EQ(sc.host_of(2), 1);
  EXPECT_EQ(sc.host_of(3), 1);
  // exec <-> rank round trip.
  for (int e = 0; e < cl.num_executors(); ++e) {
    EXPECT_EQ(cl.executor_of_rank(cl.rank_of_executor(e)), e);
  }
}

TEST(Cluster, RankMappingNotAwareInterleavesHosts) {
  Simulator sim;
  Cluster cl(sim, small_spec());
  cl.config().topology_aware = false;
  auto& sc = cl.scalable_comm();
  EXPECT_EQ(sc.host_of(0), 0);
  EXPECT_EQ(sc.host_of(1), 1);
  EXPECT_EQ(sc.host_of(2), 0);
  EXPECT_EQ(sc.host_of(3), 1);
}

class AggModeParity : public ::testing::TestWithParam<AggMode> {};

TEST_P(AggModeParity, MatchesSequentialReference) {
  Simulator sim;
  Cluster cl(sim, small_spec());
  cl.config().agg_mode = GetParam();
  cl.config().sai_parallelism = 2;
  CachedRdd<std::int64_t> rdd(8, cl.num_executors(), row_gen(20));
  rdd.materialize();
  const auto tspec = sum_spec(37);  // odd dim: uneven segment splits
  const Vec want = sequential_reference(rdd, tspec);

  Vec got;
  if (GetParam() == AggMode::kSplit) {
    auto sspec = split_sum_spec(37);
    auto job = [&]() -> Task<Vec> {
      co_return co_await split_aggregate(cl, rdd, sspec);
    };
    got = sim.run_task(job());
  } else {
    auto job = [&]() -> Task<Vec> {
      co_return co_await tree_aggregate(cl, rdd, tspec);
    };
    got = sim.run_task(job());
  }
  EXPECT_EQ(got, want);
}

INSTANTIATE_TEST_SUITE_P(AllModes, AggModeParity,
                         ::testing::Values(AggMode::kTree, AggMode::kTreeImm,
                                           AggMode::kSplit));

class PartitionSweep : public ::testing::TestWithParam<int> {};

TEST_P(PartitionSweep, SplitMatchesTreeForAnyPartitionCount) {
  const int parts = GetParam();
  const auto run = [parts](AggMode mode) {
    Simulator sim;
    Cluster cl(sim, small_spec());
    cl.config().agg_mode = mode;
    cl.config().sai_parallelism = 3;
    CachedRdd<std::int64_t> rdd(parts, cl.num_executors(), row_gen(7));
    if (mode == AggMode::kSplit) {
      auto sspec = split_sum_spec(23);
      auto job = [&]() -> Task<Vec> {
        co_return co_await split_aggregate(cl, rdd, sspec);
      };
      return sim.run_task(job());
    }
    auto tspec = sum_spec(23);
    auto job = [&]() -> Task<Vec> {
      co_return co_await tree_aggregate(cl, rdd, tspec);
    };
    return sim.run_task(job());
  };
  EXPECT_EQ(run(AggMode::kSplit), run(AggMode::kTree));
}

// 1 partition (fewer than executors), 3 (some executors idle), up to many.
INSTANTIATE_TEST_SUITE_P(Sweep, PartitionSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 16, 31, 64));

TEST(TreeAggregate, MetricsArePopulated) {
  Simulator sim;
  Cluster cl(sim, small_spec());
  CachedRdd<std::int64_t> rdd(8, cl.num_executors(), row_gen(50));
  auto spec = sum_spec(16);
  AggMetrics m;
  auto job = [&]() -> Task<Vec> {
    co_return co_await tree_aggregate(cl, rdd, spec, &m);
  };
  (void)sim.run_task(job());
  EXPECT_GT(m.compute_done, m.start);
  EXPECT_GT(m.end, m.compute_done);
  EXPECT_EQ(m.total(), m.compute_time() + m.reduce_time());
  EXPECT_EQ(m.task_retries, 0);
  EXPECT_EQ(m.stage_restarts, 0);
}

// Turns speculation on with a multiplier no task can exceed: the monitor
// ticks but never duplicates, so every compute stage is a race with one
// entrant — which must behave exactly like speculation off.
void speculate_without_duplicates(Cluster& cl) {
  cl.config().health.speculation = true;
  cl.config().health.speculation_interval = sim::milliseconds(1);
  cl.config().health.speculation_multiplier = 1e9;
}

TEST(TreeAggregate, TaskFailureRetriesJustThatTask) {
  sim::Time end_without_speculation = 0;
  for (const bool speculation : {false, true}) {
    SCOPED_TRACE(speculation ? "speculation on" : "speculation off");
    Simulator sim;
    Cluster cl(sim, small_spec());
    cl.config().agg_mode = AggMode::kTree;
    if (speculation) speculate_without_duplicates(cl);
    int failures_injected = 0;
    cl.config().faults.should_fail = [&](const TaskId& id) {
      if (id.stage == 0 && id.task == 3 && id.attempt == 0) {
        ++failures_injected;
        return true;
      }
      return false;
    };
    CachedRdd<std::int64_t> rdd(8, cl.num_executors(), row_gen(10));
    auto spec = sum_spec(8);
    const Vec want = sequential_reference(rdd, spec);
    AggMetrics m;
    auto job = [&]() -> Task<Vec> {
      co_return co_await tree_aggregate(cl, rdd, spec, &m);
    };
    EXPECT_EQ(sim.run_task(job()), want);
    EXPECT_EQ(failures_injected, 1);
    EXPECT_EQ(m.task_retries, 1);
    EXPECT_EQ(m.stage_restarts, 0);
    EXPECT_EQ(m.speculative_launches, 0);
    if (!speculation) end_without_speculation = m.end;
    EXPECT_EQ(m.end, end_without_speculation);
  }
}

TEST(TreeAggregate, PersistentFailureAbortsJob) {
  Simulator sim;
  Cluster cl(sim, small_spec());
  cl.config().faults.should_fail = [](const TaskId& id) {
    return id.task == 0;  // fails every attempt
  };
  CachedRdd<std::int64_t> rdd(4, cl.num_executors(), row_gen(5));
  auto spec = sum_spec(4);
  auto job = [&]() -> Task<Vec> {
    co_return co_await tree_aggregate(cl, rdd, spec);
  };
  EXPECT_THROW(sim.run_task(job()), std::runtime_error);
}

TEST(ImmAggregate, FailureRestartsWholeStageAndStaysCorrect) {
  // Paper Section 3.2: with IMM a task failure clears the shared partials
  // and re-submits the whole stage — and the result must not double-count
  // the successful tasks of the failed attempt.
  Simulator sim;
  Cluster cl(sim, small_spec());
  cl.config().agg_mode = AggMode::kTreeImm;
  int failures_injected = 0;
  cl.config().faults.should_fail = [&](const TaskId& id) {
    if (id.stage == 0 && id.task == 5 && id.attempt == 0) {
      ++failures_injected;
      return true;
    }
    return false;
  };
  CachedRdd<std::int64_t> rdd(8, cl.num_executors(), row_gen(12));
  auto spec = sum_spec(8);
  const Vec want = sequential_reference(rdd, spec);
  AggMetrics m;
  auto job = [&]() -> Task<Vec> {
    co_return co_await tree_aggregate(cl, rdd, spec, &m);
  };
  EXPECT_EQ(sim.run_task(job()), want);
  EXPECT_EQ(failures_injected, 1);
  EXPECT_EQ(m.stage_restarts, 1);
  EXPECT_EQ(m.task_retries, 0);
}

TEST(SplitAggregate, FailureRestartsStageAndStaysCorrect) {
  Simulator sim;
  Cluster cl(sim, small_spec());
  cl.config().agg_mode = AggMode::kSplit;
  cl.config().faults.should_fail = [](const TaskId& id) {
    return id.stage == 0 && id.task == 2 && id.attempt < 2;  // fail twice
  };
  CachedRdd<std::int64_t> rdd(8, cl.num_executors(), row_gen(9));
  auto sspec = split_sum_spec(19);
  const Vec want = sequential_reference(rdd, sspec.base);
  AggMetrics m;
  auto job = [&]() -> Task<Vec> {
    co_return co_await split_aggregate(cl, rdd, sspec, &m);
  };
  EXPECT_EQ(sim.run_task(job()), want);
  EXPECT_EQ(m.stage_restarts, 2);
}

TEST(Stragglers, SlowExecutorDelaysComputeStage) {
  auto run = [](double slowdown) {
    Simulator sim;
    Cluster cl(sim, small_spec());
    cl.config().stragglers.slowdown[1] = slowdown;
    CachedRdd<std::int64_t> rdd(8, cl.num_executors(), row_gen(40000));
    auto spec = sum_spec(8);
    AggMetrics m;
    auto job = [&]() -> Task<Vec> {
      co_return co_await tree_aggregate(cl, rdd, spec, &m);
    };
    (void)sim.run_task(job());
    return m.compute_time();
  };
  // Each partition costs ~40 ms; the straggling executor's tasks take
  // 160 ms instead, so the stage (gated by its slowest executor) stretches
  // by ~120 ms on top of fixed dispatch/scheduler overheads.
  EXPECT_GT(run(4.0), run(1.0) + sim::milliseconds(80));
}

TEST(Timing, SplitBeatsTreeForLargeAggregators) {
  // The headline effect: with paper-scale (modeled 64 MB) aggregators on
  // 8 nodes, split aggregation's reduction must be several times faster.
  auto reduce_time = [](AggMode mode) {
    Simulator sim;
    net::ClusterSpec spec = net::ClusterSpec::bic(8);
    spec.fabric.gc.enabled = false;
    Cluster cl(sim, spec);
    cl.config().agg_mode = mode;
    // Several tasks per executor so In-Memory Merge has results to merge.
    const int parts = cl.num_executors() * spec.cores_per_executor;
    CachedRdd<std::int64_t> rdd(parts, cl.num_executors(), row_gen(4));
    const int dim = 512;  // real elements (scaled down)
    const double scale = static_cast<double>(64ull << 20) / (dim * 8);
    AggMetrics m;
    if (mode == AggMode::kSplit) {
      auto sspec = split_sum_spec(dim);
      sspec.base.bytes = [scale](const Vec& v) {
        return static_cast<std::uint64_t>(v.size() * 8 * scale);
      };
      sspec.v_bytes = sspec.base.bytes;
      auto job = [&]() -> Task<Vec> {
        co_return co_await split_aggregate(cl, rdd, sspec, &m);
      };
      (void)sim.run_task(job());
    } else {
      auto tspec = sum_spec(dim);
      tspec.bytes = [scale](const Vec& v) {
        return static_cast<std::uint64_t>(v.size() * 8 * scale);
      };
      auto job = [&]() -> Task<Vec> {
        co_return co_await tree_aggregate(cl, rdd, tspec, &m);
      };
      (void)sim.run_task(job());
    }
    return m.reduce_time();
  };
  const auto tree = reduce_time(AggMode::kTree);
  const auto imm = reduce_time(AggMode::kTreeImm);
  const auto split = reduce_time(AggMode::kSplit);
  EXPECT_LT(split, imm);
  EXPECT_LT(imm, tree);
  EXPECT_GT(static_cast<double>(tree) / static_cast<double>(split), 3.0);
}

TEST(Timing, ImmSavesSerializationForManyTasksPerExecutor) {
  // With many tasks per executor and large aggregators, IMM's compute
  // stage should not be slower, and the end-to-end job should be faster.
  auto total_time = [](AggMode mode) {
    Simulator sim;
    net::ClusterSpec spec = net::ClusterSpec::bic(4);
    spec.fabric.gc.enabled = false;
    Cluster cl(sim, spec);
    cl.config().agg_mode = mode;
    const int parts = cl.num_executors() * spec.cores_per_executor * 2;
    CachedRdd<std::int64_t> rdd(parts, cl.num_executors(), row_gen(4));
    const int dim = 256;
    const double scale = static_cast<double>(32ull << 20) / (dim * 8);
    auto tspec = sum_spec(dim);
    tspec.bytes = [scale](const Vec& v) {
      return static_cast<std::uint64_t>(v.size() * 8 * scale);
    };
    AggMetrics m;
    auto job = [&]() -> Task<Vec> {
      co_return co_await tree_aggregate(cl, rdd, tspec, &m);
    };
    (void)sim.run_task(job());
    return m.total();
  };
  EXPECT_LT(total_time(AggMode::kTreeImm), total_time(AggMode::kTree));
}

TEST(Determinism, RepeatedRunsGiveIdenticalTimings) {
  auto run_once = [] {
    Simulator sim;
    Cluster cl(sim, small_spec());
    cl.config().agg_mode = AggMode::kSplit;
    CachedRdd<std::int64_t> rdd(8, cl.num_executors(), row_gen(20));
    auto sspec = split_sum_spec(33);
    AggMetrics m;
    auto job = [&]() -> Task<Vec> {
      co_return co_await split_aggregate(cl, rdd, sspec, &m);
    };
    (void)sim.run_task(job());
    return m;
  };
  const AggMetrics a = run_once();
  const AggMetrics b = run_once();
  EXPECT_EQ(a.start, b.start);
  EXPECT_EQ(a.compute_done, b.compute_done);
  EXPECT_EQ(a.end, b.end);
}

TEST(TreeAggregate, ResultsAreAttributedToTheExecutorTheTaskRanOn) {
  // Executor 1 is dead before the job starts, so its partitions are
  // rescheduled onto a survivor. Each result's serialization, its status
  // hop and the later fetch must be charged to the executor that ran the
  // task, not to the partition's dead home.
  Simulator sim;
  EngineConfig cfg;
  cfg.agg_mode = AggMode::kTree;
  cfg.trace.enabled = true;
  cfg.fault_schedule.kill_executor(0, /*executor=*/1);
  Cluster cl(sim, small_spec(), cfg);
  CachedRdd<std::int64_t> rdd(8, cl.num_executors(), row_gen(10));
  auto spec = sum_spec(8);
  const Vec want = sequential_reference(rdd, spec);
  auto job = [&]() -> Task<Vec> {
    co_return co_await tree_aggregate(cl, rdd, spec);
  };
  EXPECT_EQ(sim.run_task(job()), want);

  std::vector<int> task_pid(8, -1);
  for (const obs::TraceEvent& ev : cl.trace().events()) {
    if (std::string(ev.name) == "task" && !ev.has_arg("failed")) {
      task_pid[static_cast<std::size_t>(ev.arg("task"))] = ev.pid;
    }
  }
  int results = 0;
  int moved = 0;
  for (const obs::TraceEvent& ev : cl.trace().events()) {
    if (std::string(ev.name) != "ser.result") continue;
    ++results;
    const int task = ev.tid;
    EXPECT_EQ(ev.pid, task_pid[static_cast<std::size_t>(task)])
        << "task " << task;
    if (rdd.preferred_executor(task) == 1) {
      EXPECT_NE(ev.pid, obs::exec_pid(1)) << "task " << task;
      ++moved;
    }
  }
  EXPECT_EQ(results, 8);
  EXPECT_EQ(moved, 2);
}

// ---------------------------------------------------------------------------
// Aggregator lifetimes. A partition is folded only by the attempt that
// delivers it, at the point the result is merged (IMM) or shipped (plain),
// so an IMM executor holds its shared value plus at most the one task
// aggregator being merged, and losing or failed attempts never fold.
// ---------------------------------------------------------------------------

// A Vec aggregator that counts its live instances.
struct CountedVec {
  static inline int live = 0;
  static inline int peak = 0;
  Vec v;

  CountedVec() { born(); }
  explicit CountedVec(Vec x) : v(std::move(x)) { born(); }
  CountedVec(const CountedVec& o) : v(o.v) { born(); }
  CountedVec(CountedVec&& o) noexcept : v(std::move(o.v)) { born(); }
  CountedVec& operator=(const CountedVec&) = default;
  CountedVec& operator=(CountedVec&&) = default;
  ~CountedVec() { --live; }

  static void born() { peak = std::max(peak, ++live); }
};

// split_sum_spec over CountedVec, with millisecond partition costs and
// ~1 MiB modeled aggregators so tasks overlap on every core and merges
// queue on the executors' merge locks.
SplitAggSpec<std::int64_t, CountedVec, Vec> counted_split_spec(int dim) {
  const auto plain = split_sum_spec(dim);
  SplitAggSpec<std::int64_t, CountedVec, Vec> spec;
  spec.base.zero = CountedVec(plain.base.zero);
  spec.base.seq_op = [seq = plain.base.seq_op](CountedVec& u,
                                               const std::int64_t& row) {
    seq(u.v, row);
  };
  spec.base.comb_op = [comb = plain.base.comb_op](CountedVec& a,
                                                  const CountedVec& b) {
    comb(a.v, b.v);
  };
  spec.base.bytes = [](const CountedVec&) -> std::uint64_t { return 1 << 20; };
  spec.base.partition_cost = [](int, const std::vector<std::int64_t>& rows) {
    return sim::milliseconds(rows.size());
  };
  spec.split_op = [split = plain.split_op](const CountedVec& u, int seg,
                                           int nseg) {
    return split(u.v, seg, nseg);
  };
  spec.reduce_op = plain.reduce_op;
  spec.concat_op = plain.concat_op;
  spec.v_bytes = plain.v_bytes;
  return spec;
}

// Runs one CountedVec job on a cluster whose cores are all busy at once
// (200 ms tasks against 4 ms dispatches), with a straggler and the
// speculation monitor when `speculation` is set: tree_aggregate under kTree
// or kTreeImm, else split_aggregate (or split_allreduce). Checks the result
// and that every aggregator is released; returns how far the live count
// peaked above its value before the job.
int counted_job_peak(AggMode mode, bool speculation, AggMetrics& m,
                     bool allreduce = false) {
  Simulator sim;
  net::ClusterSpec s = small_spec();
  s.cores_per_executor = 4;
  Cluster cl(sim, s);
  cl.config().agg_mode = mode;
  cl.config().sai_parallelism = 2;
  if (speculation) {
    cl.config().stragglers.slowdown[3] = 8.0;
    cl.config().health.speculation = true;
    cl.config().health.speculation_interval = sim::milliseconds(5);
  }
  const int parts = cl.num_executors() * 8;
  CachedRdd<std::int64_t> rdd(parts, cl.num_executors(), row_gen(200));
  const Vec want = sequential_reference(rdd, sum_spec(33));
  auto spec = counted_split_spec(33);
  const int baseline = CountedVec::live;
  CountedVec::peak = baseline;
  auto job = [&]() -> Task<Vec> {
    if (mode != AggMode::kSplit) {
      co_return (co_await tree_aggregate(cl, rdd, spec.base, &m)).v;
    }
    if (allreduce) co_return co_await split_allreduce(cl, rdd, spec, &m);
    co_return co_await split_aggregate(cl, rdd, spec, &m);
  };
  EXPECT_EQ(sim.run_task(job()), want);
  EXPECT_EQ(CountedVec::live, baseline);
  return CountedVec::peak - baseline;
}

TEST(AggregatorLifetimes, ImmStageHoldsAtMostTwoAggregatorsPerExecutor) {
  for (const bool speculation : {false, true}) {
    SCOPED_TRACE(speculation ? "speculation on" : "speculation off");
    AggMetrics m;
    const int peak = counted_job_peak(AggMode::kSplit, speculation, m);
    if (speculation) {
      EXPECT_GE(m.speculative_launches, 1);
    }
    EXPECT_LE(peak, 2 * 4);  // two per executor, 4 executors.
  }
}

// The other entry points, pinned to the peaks measured before the engine
// was type-erased, so an erased path that retains an extra copy fails. A
// plain tree stage ships one result per partition (32) before combining.
TEST(AggregatorLifetimes, TreeAggregateHoldsNoMoreThanBeforeErasure) {
  for (const bool speculation : {false, true}) {
    SCOPED_TRACE(speculation ? "speculation on" : "speculation off");
    for (const AggMode mode : {AggMode::kTree, AggMode::kTreeImm}) {
      SCOPED_TRACE(to_string(mode));
      AggMetrics m;
      const int before = mode == AggMode::kTree ? 35 : speculation ? 5 : 6;
      EXPECT_LE(counted_job_peak(mode, speculation, m), before);
    }
  }
}

TEST(AggregatorLifetimes, SplitAllreduceHoldsNoMoreThanBeforeErasure) {
  for (const bool speculation : {false, true}) {
    SCOPED_TRACE(speculation ? "speculation on" : "speculation off");
    AggMetrics m;
    EXPECT_LE(counted_job_peak(AggMode::kSplit, speculation, m,
                               /*allreduce=*/true),
              speculation ? 4 : 5);
  }
}

// sum_spec whose seq_op counts folds per partition: row_gen's partition pid
// starts with row pid * 1000, which each fold of pid sees exactly once.
TreeAggSpec<std::int64_t, Vec> fold_counting_spec(int dim,
                                                  std::vector<int>& folds) {
  auto spec = sum_spec(dim);
  spec.seq_op = [&folds, seq = spec.seq_op](Vec& u, const std::int64_t& row) {
    if (row % 1000 == 0) ++folds[static_cast<std::size_t>(row / 1000)];
    seq(u, row);
  };
  spec.partition_cost = [](int, const std::vector<std::int64_t>& rows) {
    return sim::milliseconds(rows.size());
  };
  return spec;
}

TEST(FoldContract, FailedAttemptsNeverFold) {
  // Plain stage (task-level retry) and IMM stage (stage restart), each with
  // speculation off and with a speculation monitor that never duplicates:
  // both failure policies must come out the same either way.
  sim::Time plain_end = 0, imm_end = 0;
  for (const bool speculation : {false, true}) {
    SCOPED_TRACE(speculation ? "speculation on" : "speculation off");
    // Plain stage: tasks 3 and 5 fail one and two attempts; each partition
    // is still delivered, and folded, exactly once.
    {
      Simulator sim;
      Cluster cl(sim, small_spec());
      cl.config().agg_mode = AggMode::kTree;
      if (speculation) speculate_without_duplicates(cl);
      cl.config().faults.should_fail = [](const TaskId& id) {
        return (id.task == 3 && id.attempt == 0) ||
               (id.task == 5 && id.attempt < 2);
      };
      CachedRdd<std::int64_t> rdd(8, cl.num_executors(), row_gen(10));
      std::vector<int> folds(8, 0);
      auto spec = fold_counting_spec(8, folds);
      const Vec want = sequential_reference(rdd, sum_spec(8));
      AggMetrics m;
      auto job = [&]() -> Task<Vec> {
        co_return co_await tree_aggregate(cl, rdd, spec, &m);
      };
      EXPECT_EQ(sim.run_task(job()), want);
      EXPECT_EQ(m.task_retries, 3);
      EXPECT_EQ(m.stage_restarts, 0);
      EXPECT_EQ(m.speculative_launches, 0);
      EXPECT_EQ(folds, std::vector<int>(8, 1));
      if (!speculation) plain_end = m.end;
      EXPECT_EQ(m.end, plain_end);
    }
    // IMM stage: task 2's first attempt fails and restarts the stage. Every
    // other task delivered into the discarded stage attempt and delivers
    // again; task 2 delivers once.
    {
      Simulator sim;
      Cluster cl(sim, small_spec());
      cl.config().agg_mode = AggMode::kSplit;
      if (speculation) speculate_without_duplicates(cl);
      cl.config().faults.should_fail = [](const TaskId& id) {
        return id.stage == 0 && id.task == 2 && id.attempt == 0;
      };
      CachedRdd<std::int64_t> rdd(8, cl.num_executors(), row_gen(10));
      std::vector<int> folds(8, 0);
      auto sspec = split_sum_spec(8);
      sspec.base = fold_counting_spec(8, folds);
      const Vec want = sequential_reference(rdd, sum_spec(8));
      AggMetrics m;
      auto job = [&]() -> Task<Vec> {
        co_return co_await split_aggregate(cl, rdd, sspec, &m);
      };
      EXPECT_EQ(sim.run_task(job()), want);
      EXPECT_EQ(m.stage_restarts, 1);
      EXPECT_EQ(m.task_retries, 0);
      EXPECT_EQ(m.speculative_launches, 0);
      std::vector<int> expect(8, 2);
      expect[2] = 1;
      EXPECT_EQ(folds, expect);
      if (!speculation) imm_end = m.end;
      EXPECT_EQ(m.end, imm_end);
    }
  }
}

TEST(FoldContract, SpeculativeLosersNeverFold) {
  for (const AggMode mode : {AggMode::kTree, AggMode::kSplit}) {
    SCOPED_TRACE(mode == AggMode::kTree ? "plain stage" : "IMM stage");
    Simulator sim;
    Cluster cl(sim, small_spec());
    cl.config().agg_mode = mode;
    cl.config().stragglers.slowdown[3] = 8.0;
    cl.config().health.speculation = true;
    cl.config().health.speculation_interval = sim::milliseconds(5);
    CachedRdd<std::int64_t> rdd(8, cl.num_executors(), row_gen(30));
    std::vector<int> folds(8, 0);
    auto sspec = split_sum_spec(8);
    sspec.base = fold_counting_spec(8, folds);
    const Vec want = sequential_reference(rdd, sum_spec(8));
    AggMetrics m;
    auto job = [&]() -> Task<Vec> {
      if (mode == AggMode::kTree) {
        co_return co_await tree_aggregate(cl, rdd, sspec.base, &m);
      }
      co_return co_await split_aggregate(cl, rdd, sspec, &m);
    };
    EXPECT_EQ(sim.run_task(job()), want);
    EXPECT_GE(m.speculative_launches, 1);
    EXPECT_EQ(folds, std::vector<int>(8, 1));
  }
}

TEST(FoldContract, KilledPartialsFoldOncePerRefold) {
  // A kill mid-ring loses executor 2's merged partial. Its partitions are
  // folded once more each, by the residual refold or the overlapped eager
  // refold; every other partition is folded once.
  for (const bool overlap : {false, true}) {
    SCOPED_TRACE(overlap ? "overlapped refold" : "residual refold");
    auto run = [overlap](sim::Time kill_at, std::vector<int>& folds,
                         AggMetrics& m, int& refolded) {
      EngineConfig cfg;
      cfg.agg_mode = AggMode::kSplit;
      cfg.sai_parallelism = 2;
      cfg.collective_timeout = sim::milliseconds(400);
      cfg.stage_retry_backoff = sim::milliseconds(10);
      cfg.overlap_recovery = overlap;
      cfg.trace.enabled = true;
      if (kill_at > 0) cfg.fault_schedule.kill_executor(kill_at, 2);
      Simulator sim;
      Cluster cl(sim, small_spec(), cfg);
      CachedRdd<std::int64_t> rdd(8, cl.num_executors(), row_gen(6));
      auto sspec = split_sum_spec(64);
      sspec.base = fold_counting_spec(64, folds);
      sspec.base.bytes = [](const Vec& v) {
        return static_cast<std::uint64_t>(v.size()) * 8 * 8192;
      };
      sspec.v_bytes = sspec.base.bytes;
      const Vec want = sequential_reference(rdd, sum_spec(64));
      folds.assign(8, 0);
      auto job = [&]() -> Task<Vec> {
        co_return co_await split_aggregate(cl, rdd, sspec, &m);
      };
      EXPECT_EQ(sim.run_task(job()), want);
      refolded = 0;
      for (const obs::TraceEvent& ev : cl.trace().events()) {
        if (std::string(ev.name) == "recover.refold") {
          refolded += static_cast<int>(ev.arg("partitions"));
        }
      }
    };
    std::vector<int> folds(8, 0);
    AggMetrics clean;
    int refolded = 0;
    run(0, folds, clean, refolded);
    ASSERT_EQ(clean.ring_stage_attempts, 1);
    EXPECT_EQ(folds, std::vector<int>(8, 1));

    bool hit = false;
    for (int pct : {25, 40, 55, 70, 85}) {
      const sim::Time t =
          clean.compute_done +
          (clean.end - clean.compute_done) * static_cast<sim::Time>(pct) / 100;
      AggMetrics m;
      run(t, folds, m, refolded);
      if (m.ring_stage_attempts < 2) continue;
      hit = true;
      std::vector<int> expect(8, 1);
      expect[2] = expect[6] = 2;  // executor 2's partitions (pid % 4 == 2).
      EXPECT_EQ(folds, expect);
      EXPECT_EQ(refolded, 2);
      break;
    }
    EXPECT_TRUE(hit) << "no kill time in the sweep hit the ring mid-flight";
  }
}

TEST(FoldContract, ThrowingSeqOpAbortsWithItsMessage) {
  struct Case {
    const char* name;
    AggMode mode;
    bool speculation;
  };
  for (const Case& c : {Case{"plain", AggMode::kTree, false},
                        Case{"IMM", AggMode::kTreeImm, false},
                        Case{"split", AggMode::kSplit, false},
                        Case{"speculative plain", AggMode::kTree, true},
                        Case{"speculative IMM", AggMode::kSplit, true}}) {
    SCOPED_TRACE(c.name);
    Simulator sim;
    Cluster cl(sim, small_spec());
    cl.config().agg_mode = c.mode;
    if (c.speculation) {
      cl.config().stragglers.slowdown[3] = 8.0;
      cl.config().health.speculation = true;
      cl.config().health.speculation_interval = sim::milliseconds(5);
    }
    CachedRdd<std::int64_t> rdd(8, cl.num_executors(), row_gen(30));
    auto sspec = split_sum_spec(8);
    sspec.base.seq_op = [seq = sspec.base.seq_op](Vec& u,
                                                  const std::int64_t& row) {
      if (row == 3005) throw std::runtime_error("seq_op rejected row 3005");
      seq(u, row);
    };
    sspec.base.partition_cost = [](int, const std::vector<std::int64_t>& r) {
      return sim::milliseconds(r.size());
    };
    auto job = [&]() -> Task<Vec> {
      if (c.mode == AggMode::kSplit) {
        co_return co_await split_aggregate(cl, rdd, sspec);
      }
      co_return co_await tree_aggregate(cl, rdd, sspec.base);
    };
    try {
      (void)sim.run_task(job());
      ADD_FAILURE() << "job did not abort";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "seq_op rejected row 3005");
    }
  }
}

// ---------------------------------------------------------------------------
// Speculation times a task from its core slot: the second wave of a uniform
// stage has waited for a core, not run slowly, so nothing is duplicated.
// ---------------------------------------------------------------------------

TEST(Speculation, UniformTwoWaveStageLaunchesNoDuplicates) {
  for (const AggMode mode : {AggMode::kTree, AggMode::kSplit}) {
    SCOPED_TRACE(to_string(mode));
    Simulator sim;
    Cluster cl(sim, small_spec());
    cl.config().agg_mode = mode;
    cl.config().health.speculation = true;
    cl.config().health.speculation_interval = sim::milliseconds(1);
    // 16 tasks of 200 ms on 8 cores: two waves, the second queued ~200 ms.
    CachedRdd<std::int64_t> rdd(16, cl.num_executors(), row_gen(200));
    auto sspec = split_sum_spec(8);
    sspec.base.partition_cost = [](int, const std::vector<std::int64_t>& r) {
      return sim::milliseconds(r.size());
    };
    const Vec want = sequential_reference(rdd, sum_spec(8));
    AggMetrics m;
    auto job = [&]() -> Task<Vec> {
      if (mode == AggMode::kTree) {
        co_return co_await tree_aggregate(cl, rdd, sspec.base, &m);
      }
      co_return co_await split_aggregate(cl, rdd, sspec, &m);
    };
    EXPECT_EQ(sim.run_task(job()), want);
    EXPECT_EQ(m.speculative_launches, 0);
  }
}

// ---------------------------------------------------------------------------
// Engine settings no job can run under are rejected when the job starts,
// naming the field (tests change config() after the cluster is built, so
// the check cannot live in the Cluster constructor alone).
// ---------------------------------------------------------------------------

void expect_job_rejects(void (*corrupt)(EngineConfig&), const char* field) {
  Simulator sim;
  Cluster cl(sim, small_spec());
  corrupt(cl.config());
  CachedRdd<std::int64_t> rdd(4, cl.num_executors(), row_gen(5));
  auto spec = sum_spec(4);
  auto job = [&]() -> Task<Vec> {
    co_return co_await tree_aggregate(cl, rdd, spec);
  };
  try {
    (void)sim.run_task(job());
    ADD_FAILURE() << "job ran with an invalid " << field;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << e.what();
  }
}

TEST(ConfigValidation, RejectsNonPositiveCollectiveTimeout) {
  expect_job_rejects([](EngineConfig& c) { c.collective_timeout = 0; },
                     "collective_timeout");
}

TEST(ConfigValidation, RejectsSaiParallelismBelowOne) {
  expect_job_rejects([](EngineConfig& c) { c.sai_parallelism = 0; },
                     "sai_parallelism");
}

TEST(ConfigValidation, RejectsMaxTaskAttemptsBelowOne) {
  expect_job_rejects([](EngineConfig& c) { c.max_task_attempts = 0; },
                     "max_task_attempts");
}

TEST(ConfigValidation, RejectsMaxStageAttemptsBelowOne) {
  expect_job_rejects([](EngineConfig& c) { c.max_stage_attempts = 0; },
                     "max_stage_attempts");
}

TEST(ConfigValidation, RejectsZeroSpeculationInterval) {
  expect_job_rejects(
      [](EngineConfig& c) { c.health.speculation_interval = 0; },
      "speculation_interval");
}

TEST(ConfigValidation, RejectsSpeculationMultiplierBelowOne) {
  expect_job_rejects(
      [](EngineConfig& c) { c.health.speculation_multiplier = 0.9; },
      "speculation_multiplier");
}

TEST(ConfigValidation, RejectsSpeculationQuantileOutsideUnitInterval) {
  expect_job_rejects(
      [](EngineConfig& c) { c.health.speculation_quantile = 0.0; },
      "speculation_quantile");
  expect_job_rejects(
      [](EngineConfig& c) { c.health.speculation_quantile = 1.5; },
      "speculation_quantile");
}

TEST(ConfigValidation, RejectsZeroHeartbeatInterval) {
  expect_job_rejects([](EngineConfig& c) { c.health.heartbeat_interval = 0; },
                     "heartbeat_interval");
}

TEST(ConfigValidation, RejectsHeartbeatTimeoutNotBelowExecutorTimeout) {
  expect_job_rejects(
      [](EngineConfig& c) {
        c.health.heartbeat_timeout = sim::milliseconds(900);
        c.health.executor_timeout = sim::milliseconds(800);
      },
      "heartbeat_timeout");
}

}  // namespace
}  // namespace sparker::engine
