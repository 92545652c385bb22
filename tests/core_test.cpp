// Tests for the core Sparker API: the SparkerContext facade (the paper's
// single-configuration-flag story), the unified aggregate() entry point,
// and the allreduce extension (result resident on executors, driver out of
// the data path).

#include <gtest/gtest.h>

#include <vector>

#include "bench_util/vec_sai.hpp"
#include "core/sparker.hpp"
#include "engine/aggregate.hpp"
#include "ml/train.hpp"
#include "ml/workload.hpp"
#include "net/cluster.hpp"
#include "sim/simulator.hpp"

namespace sparker::core {
namespace {

using sim::Simulator;
using sim::Task;
using Vec = std::vector<std::int64_t>;

SparkerContext::Options small_options(bool split) {
  SparkerContext::Options o;
  o.cluster = net::ClusterSpec::bic(2);
  o.cluster.executors_per_node = 2;
  o.cluster.cores_per_executor = 2;
  o.cluster.fabric.gc.enabled = false;
  o.use_split_aggregation = split;
  o.sai_parallelism = 2;
  return o;
}

engine::SplitAggSpec<std::int64_t, Vec, Vec> sum_spec(int dim) {
  engine::SplitAggSpec<std::int64_t, Vec, Vec> spec;
  spec.base.zero = Vec(static_cast<std::size_t>(dim), 0);
  spec.base.seq_op = [dim](Vec& u, const std::int64_t& row) {
    for (int i = 0; i < dim; ++i) u[static_cast<std::size_t>(i)] += row;
  };
  spec.base.comb_op = bench::vec_sai::add;
  spec.base.bytes = [](const Vec& v) { return v.size() * 8; };
  bench::vec_sai::set_callbacks(spec);
  return spec;
}

Vec run_aggregate(bool split) {
  Simulator sim;
  SparkerContext ctx(sim, small_options(split));
  auto rdd = ctx.parallelize<std::int64_t>(8, [](int pid) {
    return std::vector<std::int64_t>(10, pid + 1);
  });
  rdd->materialize();
  auto spec = sum_spec(13);
  auto job = [&]() -> Task<Vec> {
    co_return co_await ctx.aggregate(*rdd, spec);
  };
  return sim.run_task(job());
}

TEST(SparkerContext, FlagSwitchesPathButNotResult) {
  const Vec with_split = run_aggregate(true);
  const Vec without = run_aggregate(false);
  EXPECT_EQ(with_split, without);
  // Sum over partitions: each partition contributes 10*(pid+1).
  std::int64_t want = 0;
  for (int pid = 0; pid < 8; ++pid) want += 10 * (pid + 1);
  for (auto v : with_split) EXPECT_EQ(v, want);
}

TEST(SparkerContext, OptionsMapToEngineConfig) {
  Simulator sim;
  auto opts = small_options(false);
  opts.in_memory_merge = true;
  opts.topology_aware = false;
  SparkerContext ctx(sim, opts);
  EXPECT_EQ(ctx.cluster().config().agg_mode, engine::AggMode::kTreeImm);
  EXPECT_FALSE(ctx.cluster().config().topology_aware);
  ctx.options().use_split_aggregation = true;
  ctx.apply_options();
  EXPECT_EQ(ctx.cluster().config().agg_mode, engine::AggMode::kSplit);
}

TEST(SparkerContext, DefaultParallelismIsOnePerCore) {
  Simulator sim;
  SparkerContext ctx(sim, small_options(true));
  EXPECT_EQ(ctx.default_parallelism(), 2 * 2 * 2);
}

TEST(SplitAllreduce, MatchesSplitAggregate) {
  Simulator sim;
  SparkerContext ctx(sim, small_options(true));
  auto rdd = ctx.parallelize<std::int64_t>(8, [](int pid) {
    return std::vector<std::int64_t>(5, 2 * pid + 1);
  });
  rdd->materialize();
  auto spec = sum_spec(17);
  auto job = [&]() -> Task<std::pair<Vec, Vec>> {
    Vec a = co_await engine::split_allreduce(ctx.cluster(), *rdd, spec);
    Vec b = co_await engine::split_aggregate(ctx.cluster(), *rdd, spec);
    co_return std::pair{a, b};
  };
  auto [a, b] = sim.run_task(job());
  EXPECT_EQ(a, b);
}

TEST(SplitAllreduce, StoresReplicaOnEveryExecutor) {
  Simulator sim;
  SparkerContext ctx(sim, small_options(true));
  auto rdd = ctx.parallelize<std::int64_t>(8, [](int pid) {
    return std::vector<std::int64_t>(3, pid);
  });
  rdd->materialize();
  auto spec = sum_spec(11);
  constexpr std::int64_t kKey = 777;
  auto job = [&]() -> Task<Vec> {
    co_return co_await engine::split_allreduce(ctx.cluster(), *rdd, spec,
                                               nullptr, kKey);
  };
  const Vec result = sim.run_task(job());
  for (int e = 0; e < ctx.cluster().num_executors(); ++e) {
    auto& obj = ctx.cluster().executor(e).mutable_object(kKey, sim);
    ASSERT_TRUE(obj.value) << "executor " << e << " missing replica";
    EXPECT_EQ(*std::static_pointer_cast<Vec>(obj.value), result);
  }
}

TEST(SplitAllreduce, RemovesDriverCollectTime) {
  // With a large modeled aggregator, collect-to-driver dominates
  // split_aggregate's reduce phase; allreduce keeps the result on the
  // executors and must spend far less driver-path time even though it
  // moves ~2x the ring bytes.
  auto reduce_time = [](bool allreduce) {
    Simulator sim;
    auto opts = small_options(true);
    opts.cluster = net::ClusterSpec::bic(8);
    SparkerContext ctx(sim, opts);
    auto rdd = ctx.parallelize<std::int64_t>(
        ctx.cluster().num_executors(),
        [](int) { return std::vector<std::int64_t>(2, 1); });
    rdd->materialize();
    auto spec = sum_spec(256);
    const double scale = static_cast<double>(256ull << 20) / (256 * 8);
    spec.base.bytes = [scale](const Vec& v) {
      return static_cast<std::uint64_t>(v.size() * 8 * scale);
    };
    spec.v_bytes = spec.base.bytes;
    engine::AggMetrics m;
    if (allreduce) {
      auto job = [&]() -> Task<Vec> {
        co_return co_await engine::split_allreduce(ctx.cluster(), *rdd, spec,
                                                   &m);
      };
      (void)sim.run_task(job());
    } else {
      auto job = [&]() -> Task<Vec> {
        co_return co_await engine::split_aggregate(ctx.cluster(), *rdd, spec,
                                                   &m);
      };
      (void)sim.run_task(job());
    }
    return m.reduce_time();
  };
  // Both must complete; allreduce must not be drastically slower despite
  // the allgather (it trades the driver collect for ring traffic).
  const auto collect = reduce_time(false);
  const auto allreduce = reduce_time(true);
  EXPECT_LT(allreduce, collect * 2);
}

TEST(SplitAllreduce, TrainsIdenticallyToSplit) {
  auto train = [](bool use_allreduce) {
    Simulator sim;
    SparkerContext ctx(sim, small_options(true));
    data::DatasetPreset preset = data::avazu();
    preset.real_samples = 600;
    preset.real_features = 96;
    preset.real_nnz = 8;
    auto rdd = ml::make_classification_rdd(preset, 8,
                                           ctx.cluster().num_executors(), 5);
    rdd->materialize();
    ml::TrainConfig cfg;
    cfg.model = ml::ModelKind::kSvm;
    cfg.iterations = 8;
    cfg.reg_param = 0.01;
    cfg.use_allreduce = use_allreduce;
    auto job = [&]() -> Task<ml::TrainResult> {
      co_return co_await ml::train_linear(ctx.cluster(), *rdd, preset, cfg);
    };
    return sim.run_task(job());
  };
  const auto base = train(false);
  const auto ar = train(true);
  ASSERT_EQ(base.weights.size(), ar.weights.size());
  for (std::size_t i = 0; i < base.weights.size(); ++i) {
    EXPECT_NEAR(base.weights[i], ar.weights[i],
                1e-9 * (1.0 + std::abs(base.weights[i])));
  }
  // No per-iteration broadcast and no driver-side update.
  EXPECT_LT(ar.breakdown.driver, base.breakdown.driver);
}

}  // namespace
}  // namespace sparker::core
