// Cross-module integration tests: the full nine-workload matrix under both
// aggregation paths, fault injection through complete training runs,
// probabilistic fault storms, the AWS cluster spec, and end-to-end
// determinism.

#include <gtest/gtest.h>

#include <string>

#include "bench_util/vec_sai.hpp"
#include "engine/aggregate.hpp"
#include "engine/cluster.hpp"
#include "ml/workload.hpp"
#include "net/cluster.hpp"
#include "sim/simulator.hpp"

namespace sparker {
namespace {

using sim::Simulator;
using sim::Task;

net::ClusterSpec small_bic() {
  net::ClusterSpec s = net::ClusterSpec::bic(2);
  s.executors_per_node = 2;
  s.cores_per_executor = 2;
  return s;
}

// ---------------------------------------------------------------------------
// Every paper workload x both paths (smoke + invariants).
// ---------------------------------------------------------------------------

class WorkloadMatrix
    : public ::testing::TestWithParam<std::pair<std::string, bool>> {};

TEST_P(WorkloadMatrix, RunsAndLossImproves) {
  const auto& [name, use_split] = GetParam();
  Simulator sim;
  engine::Cluster cl(sim, small_bic());
  cl.config().agg_mode =
      use_split ? engine::AggMode::kSplit : engine::AggMode::kTree;
  auto job = [&]() -> Task<ml::WorkloadRun> {
    co_return co_await ml::run_workload(cl, ml::workload_by_name(name),
                                        /*iterations=*/4, /*seed=*/3,
                                        /*partitions=*/8);
  };
  const ml::WorkloadRun run = sim.run_task(job());
  ASSERT_EQ(run.loss_history.size(), 4u);
  // Loss (or -loglik) must improve over the run.
  EXPECT_LT(run.loss_history.back(), run.loss_history.front());
  // Buckets are positive and consistent with the total.
  EXPECT_GT(run.breakdown.agg_compute, 0u);
  EXPECT_GT(run.breakdown.agg_reduce, 0u);
  EXPECT_LE(run.breakdown.total(), run.total);
}

std::vector<std::pair<std::string, bool>> workload_matrix() {
  std::vector<std::pair<std::string, bool>> out;
  for (const auto& w : ml::paper_workloads()) {
    if (w.name == "LR-K" ) continue;  // large dims make the real math slow
    out.emplace_back(w.name, false);
    out.emplace_back(w.name, true);
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadMatrix,
                         ::testing::ValuesIn(workload_matrix()));

// ---------------------------------------------------------------------------
// Fault storms.
// ---------------------------------------------------------------------------

TEST(FaultStorm, RandomFailuresDoNotCorruptResults) {
  // Fail ~20% of first attempts pseudo-randomly; every mode must still
  // produce the exact sequential answer.
  using Vec = std::vector<std::int64_t>;
  auto run = [](engine::AggMode mode, bool inject) {
    Simulator sim;
    engine::Cluster cl(sim, small_bic());
    cl.config().agg_mode = mode;
    if (inject) {
      cl.config().faults.should_fail = [](const engine::TaskId& id) {
        if (id.attempt > 0) return false;  // only first attempts fail
        std::uint64_t h = static_cast<std::uint64_t>(id.job * 131 +
                                                     id.task * 31 + 7);
        h = sim::splitmix64(h);
        return (h % 5) == 0;
      };
    }
    engine::CachedRdd<std::int64_t> rdd(12, cl.num_executors(), [](int pid) {
      std::vector<std::int64_t> rows(20);
      for (int i = 0; i < 20; ++i) rows[static_cast<std::size_t>(i)] = pid + i;
      return rows;
    });
    engine::TreeAggSpec<std::int64_t, Vec> spec;
    spec.zero = Vec(9, 0);
    spec.seq_op = [](Vec& u, const std::int64_t& r) {
      for (std::size_t i = 0; i < u.size(); ++i) {
        u[i] += r * static_cast<std::int64_t>(i + 1);
      }
    };
    spec.comb_op = bench::vec_sai::add;
    spec.bytes = [](const Vec& v) { return v.size() * 8; };
    if (mode == engine::AggMode::kSplit) {
      engine::SplitAggSpec<std::int64_t, Vec, Vec> sspec;
      sspec.base = spec;
      bench::vec_sai::set_callbacks(sspec);
      auto job = [&]() -> Task<Vec> {
        co_return co_await engine::split_aggregate(cl, rdd, sspec);
      };
      return sim.run_task(job());
    }
    auto job = [&]() -> Task<Vec> {
      co_return co_await engine::tree_aggregate(cl, rdd, spec);
    };
    return sim.run_task(job());
  };
  const auto clean_tree = run(engine::AggMode::kTree, false);
  for (auto mode : {engine::AggMode::kTree, engine::AggMode::kTreeImm,
                    engine::AggMode::kSplit}) {
    EXPECT_EQ(run(mode, true), clean_tree) << engine::to_string(mode);
  }
}

TEST(FaultStorm, TrainingSurvivesInjectedFailures) {
  auto train = [](bool inject) {
    Simulator sim;
    engine::Cluster cl(sim, small_bic());
    cl.config().agg_mode = engine::AggMode::kSplit;
    if (inject) {
      cl.config().faults.should_fail = [](const engine::TaskId& id) {
        return id.attempt == 0 && id.task == 1 && id.job % 2 == 0;
      };
    }
    auto job = [&]() -> Task<ml::WorkloadRun> {
      co_return co_await ml::run_workload(cl, ml::workload_by_name("SVM-A"),
                                          3, 5, 8);
    };
    return sim.run_task(job());
  };
  const auto clean = train(false);
  const auto faulty = train(true);
  // Same learning trajectory despite stage restarts...
  ASSERT_EQ(clean.loss_history.size(), faulty.loss_history.size());
  for (std::size_t i = 0; i < clean.loss_history.size(); ++i) {
    EXPECT_DOUBLE_EQ(clean.loss_history[i], faulty.loss_history[i]);
  }
  // ...but strictly more simulated time spent.
  EXPECT_GT(faulty.total, clean.total);
}

// ---------------------------------------------------------------------------
// AWS spec end-to-end; determinism.
// ---------------------------------------------------------------------------

TEST(AwsCluster, WorkloadRunsOnAwsSpec) {
  Simulator sim;
  net::ClusterSpec spec = net::ClusterSpec::aws(1);
  spec.executors_per_node = 3;  // shrink for test speed
  engine::Cluster cl(sim, spec);
  cl.config().agg_mode = engine::AggMode::kSplit;
  auto job = [&]() -> Task<ml::WorkloadRun> {
    co_return co_await ml::run_workload(cl, ml::workload_by_name("LDA-E"), 3,
                                        9, 12);
  };
  const auto run = sim.run_task(job());
  EXPECT_EQ(run.loss_history.size(), 3u);
  EXPECT_GT(run.total, 0u);
}

TEST(Determinism, EndToEndWorkloadIsBitReproducible) {
  auto once = [] {
    Simulator sim;
    engine::Cluster cl(sim, small_bic());
    cl.config().agg_mode = engine::AggMode::kSplit;
    auto job = [&]() -> Task<ml::WorkloadRun> {
      co_return co_await ml::run_workload(cl, ml::workload_by_name("LDA-E"),
                                          3, 13, 8);
    };
    return sim.run_task(job());
  };
  const auto a = once();
  const auto b = once();
  EXPECT_EQ(a.total, b.total);
  EXPECT_EQ(a.breakdown.agg_reduce, b.breakdown.agg_reduce);
  EXPECT_EQ(a.loss_history, b.loss_history);
}

}  // namespace
}  // namespace sparker
