// ML-layer tests: linalg primitives, gradient correctness against numerical
// differentiation, L-BFGS convergence, the gradient aggregator's split
// callbacks, real end-to-end training convergence under every aggregation
// mode, and LDA topic recovery.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>

#include "data/generators.hpp"
#include "data/presets.hpp"
#include "engine/cluster.hpp"
#include "ml/aggregator.hpp"
#include "ml/gradient.hpp"
#include "ml/lda.hpp"
#include "ml/linalg.hpp"
#include "ml/optimizer.hpp"
#include "ml/train.hpp"
#include "ml/workload.hpp"
#include "net/cluster.hpp"
#include "obs/export.hpp"
#include "sim/simulator.hpp"

namespace sparker::ml {
namespace {

using sim::Simulator;
using sim::Task;

net::ClusterSpec tiny_spec() {
  net::ClusterSpec s = net::ClusterSpec::bic(2);
  s.executors_per_node = 2;
  s.cores_per_executor = 2;
  s.fabric.gc.enabled = false;
  return s;
}

TEST(Linalg, DotAndAxpySparse) {
  DenseVector w{1, 2, 3, 4};
  SparseVector x;
  x.dim = 4;
  x.indices = {0, 2};
  x.values = {0.5, -1.0};
  EXPECT_DOUBLE_EQ(dot(w, x), 0.5 - 3.0);
  axpy(2.0, x, w);
  EXPECT_DOUBLE_EQ(w[0], 2.0);
  EXPECT_DOUBLE_EQ(w[2], 1.0);
  EXPECT_DOUBLE_EQ(w[1], 2.0);
}

TEST(Linalg, SizeMismatchThrows) {
  DenseVector a{1, 2}, b{1, 2, 3};
  EXPECT_THROW(dot(a, b), std::invalid_argument);
  EXPECT_THROW(add_into(a, b), std::invalid_argument);
}

TEST(Linalg, SliceBoundsCoverExactly) {
  for (int len : {10, 17, 100}) {
    for (int nseg : {1, 3, 7, 10}) {
      std::int64_t covered = 0;
      std::int64_t prev_hi = 0;
      for (int s = 0; s < nseg; ++s) {
        auto [lo, hi] = slice_bounds(len, s, nseg);
        EXPECT_EQ(lo, prev_hi);
        EXPECT_GE(hi, lo);
        covered += hi - lo;
        prev_hi = hi;
      }
      EXPECT_EQ(covered, len);
      EXPECT_EQ(prev_hi, len);
    }
  }
}

// Numerical-gradient check: d/dw_i loss(w) ~= (loss(w+eps) - loss(w-eps))/2eps.
TEST(Gradient, LogisticMatchesNumericalDerivative) {
  sim::Rng rng(3);
  const int dim = 12;
  DenseVector w(dim);
  for (auto& v : w) v = rng.next_gaussian() * 0.3;
  LabeledPoint p;
  p.label = 1.0;
  p.features.dim = dim;
  for (int i = 0; i < dim; i += 2) {
    p.features.indices.push_back(i);
    p.features.values.push_back(rng.next_gaussian());
  }
  DenseVector grad(dim, 0.0);
  (void)logistic_gradient(w, p, grad);
  const double eps = 1e-6;
  for (int i = 0; i < dim; ++i) {
    DenseVector wp = w, wm = w;
    wp[static_cast<std::size_t>(i)] += eps;
    wm[static_cast<std::size_t>(i)] -= eps;
    DenseVector dummy(dim, 0.0);
    const double lp = logistic_gradient(wp, p, dummy);
    const double lm = logistic_gradient(wm, p, dummy);
    EXPECT_NEAR(grad[static_cast<std::size_t>(i)], (lp - lm) / (2 * eps),
                1e-5);
  }
}

TEST(Gradient, HingeMatchesNumericalDerivativeOffKink) {
  sim::Rng rng(5);
  const int dim = 10;
  DenseVector w(dim, 0.05);  // small w: examples are inside the margin
  LabeledPoint p;
  p.label = 0.0;
  p.features.dim = dim;
  for (int i = 0; i < dim; ++i) {
    p.features.indices.push_back(i);
    p.features.values.push_back(rng.next_gaussian());
  }
  DenseVector grad(dim, 0.0);
  const double loss = hinge_gradient(w, p, grad);
  ASSERT_GT(loss, 0.0);  // must be on the active side of the hinge
  const double eps = 1e-6;
  for (int i = 0; i < dim; ++i) {
    DenseVector wp = w, wm = w;
    wp[static_cast<std::size_t>(i)] += eps;
    wm[static_cast<std::size_t>(i)] -= eps;
    DenseVector dummy(dim, 0.0);
    const double lp = hinge_gradient(wp, p, dummy);
    const double lm = hinge_gradient(wm, p, dummy);
    EXPECT_NEAR(grad[static_cast<std::size_t>(i)], (lp - lm) / (2 * eps),
                1e-5);
  }
}

TEST(Gradient, HingeZeroOutsideMargin) {
  DenseVector w{10.0};
  LabeledPoint p;
  p.label = 1.0;
  p.features.dim = 1;
  p.features.indices = {0};
  p.features.values = {1.0};
  DenseVector grad(1, 0.0);
  EXPECT_DOUBLE_EQ(hinge_gradient(w, p, grad), 0.0);
  EXPECT_DOUBLE_EQ(grad[0], 0.0);
}

TEST(Lbfgs, MinimizesConvexQuadratic) {
  // f(w) = 0.5 * sum a_i (w_i - c_i)^2 with varied curvature.
  const int dim = 20;
  DenseVector a(dim), c(dim);
  sim::Rng rng(9);
  for (int i = 0; i < dim; ++i) {
    a[static_cast<std::size_t>(i)] = 0.5 + rng.next_double() * 4.0;
    c[static_cast<std::size_t>(i)] = rng.next_gaussian();
  }
  DenseVector w(dim, 0.0);
  Lbfgs opt(10);
  for (int it = 0; it < 60; ++it) {
    DenseVector grad(dim);
    for (int i = 0; i < dim; ++i) {
      grad[static_cast<std::size_t>(i)] =
          a[static_cast<std::size_t>(i)] *
          (w[static_cast<std::size_t>(i)] - c[static_cast<std::size_t>(i)]);
    }
    DenseVector dir = opt.direction(w, grad);
    axpy(0.5, dir, w);
  }
  for (int i = 0; i < dim; ++i) {
    EXPECT_NEAR(w[static_cast<std::size_t>(i)],
                c[static_cast<std::size_t>(i)], 1e-4);
  }
}

TEST(GradientAggregator, FlatLayoutAndAccessors) {
  GradientAggregator agg(5);
  EXPECT_EQ(agg.dim(), 5);
  EXPECT_EQ(agg.flat.size(), 7u);
  agg.add_loss(2.5);
  agg.add_count(3.0);
  EXPECT_DOUBLE_EQ(agg.loss_sum(), 2.5);
  EXPECT_DOUBLE_EQ(agg.count(), 3.0);
  agg.grad()[2] = 7.0;
  EXPECT_DOUBLE_EQ(agg.gradient_copy()[2], 7.0);
}

TEST(GradientAggregator, SplitConcatRoundTrip) {
  auto w = std::make_shared<const DenseVector>(DenseVector(16, 0.1));
  GradientCostModel cost;
  cost.modeled_dim = 1600;
  GradientJob job = make_gradient_job(GradientKind::kLogistic, w, cost);

  GradientAggregator u(16);
  for (std::size_t i = 0; i < u.flat.size(); ++i) {
    u.flat[i] = static_cast<double>(i) + 1;
  }
  const int nseg = 5;
  std::vector<std::pair<int, GradientSegment>> segs;
  for (int s = 0; s < nseg; ++s) {
    segs.emplace_back(s, job.split.split_op(u, s, nseg));
  }
  DenseVector back = job.split.concat_op(segs).to_dense();
  EXPECT_EQ(back, u.flat);
}

TEST(GradientAggregator, ModeledBytesUseScale) {
  auto w = std::make_shared<const DenseVector>(DenseVector(100, 0.0));
  GradientCostModel cost;
  cost.modeled_dim = 1'000'000;
  GradientJob job = make_gradient_job(GradientKind::kHinge, w, cost);
  GradientAggregator u(100);
  // 102 real doubles scaled by 10^4 => ~8.16 MB modeled.
  EXPECT_NEAR(static_cast<double>(job.tree.bytes(u)), 102.0 * 8 * 10000,
              1e3);
}

// ---------------------------------------------------------------------------
// End-to-end training (real math over the simulated engine).
// ---------------------------------------------------------------------------

class TrainingConvergence
    : public ::testing::TestWithParam<std::pair<ModelKind, engine::AggMode>> {
};

TEST_P(TrainingConvergence, LossDecreasesAndAccuracyIsGood) {
  const auto [model, mode] = GetParam();
  Simulator sim;
  engine::Cluster cl(sim, tiny_spec());
  cl.config().agg_mode = mode;
  // Shrink the preset so the test runs fast but the math is real.
  data::DatasetPreset preset = data::avazu();
  preset.real_samples = 1600;
  preset.real_features = 256;
  preset.real_nnz = 12;
  auto rdd = make_classification_rdd(preset, 8, cl.num_executors(), 17);
  rdd->materialize();
  TrainConfig cfg;
  cfg.model = model;
  cfg.iterations = 25;
  cfg.step_size = model == ModelKind::kSvm ? 1.0 : 0.5;
  cfg.reg_param = model == ModelKind::kSvm ? 0.01 : 0.0;
  auto job = [&]() -> Task<TrainResult> {
    co_return co_await train_linear(cl, *rdd, preset, cfg);
  };
  TrainResult r = sim.run_task(job());
  ASSERT_EQ(r.loss_history.size(), 25u);
  // L-BFGS (LR) converges much faster than sqrt-decayed SGD (SVM).
  const double shrink = model == ModelKind::kSvm ? 0.85 : 0.6;
  EXPECT_LT(r.loss_history.back(), shrink * r.loss_history.front());

  // Accuracy on the training data against the planted labels.
  int correct = 0, total = 0;
  for (int p = 0; p < rdd->num_partitions(); ++p) {
    for (const auto& row : rdd->partition(p)) {
      const double margin = dot(r.weights, row.features);
      correct += ((margin > 0) == (row.label > 0.5));
      ++total;
    }
  }
  EXPECT_GT(static_cast<double>(correct) / total, 0.85);
}

INSTANTIATE_TEST_SUITE_P(
    ModelsByMode, TrainingConvergence,
    ::testing::Values(
        std::pair{ModelKind::kLogisticRegression, engine::AggMode::kTree},
        std::pair{ModelKind::kLogisticRegression, engine::AggMode::kSplit},
        std::pair{ModelKind::kSvm, engine::AggMode::kTree},
        std::pair{ModelKind::kSvm, engine::AggMode::kTreeImm},
        std::pair{ModelKind::kSvm, engine::AggMode::kSplit}));

TEST(TrainingParity, SplitAndTreeProduceEquivalentWeights) {
  // Backward compatibility claim: switching the aggregation path changes
  // timing only. Merge order differs between the paths, so floating-point
  // results agree to numerical precision rather than bit-exactly (true of
  // Spark's own treeAggregate across depths, too).
  auto train_with = [](engine::AggMode mode) {
    Simulator sim;
    engine::Cluster cl(sim, tiny_spec());
    cl.config().agg_mode = mode;
    data::DatasetPreset preset = data::criteo();
    preset.real_samples = 800;
    preset.real_features = 128;
    preset.real_nnz = 8;
    auto rdd = make_classification_rdd(preset, 8, cl.num_executors(), 23);
    rdd->materialize();
    TrainConfig cfg;
    cfg.model = ModelKind::kLogisticRegression;
    cfg.iterations = 10;
    auto job = [&]() -> Task<TrainResult> {
      co_return co_await train_linear(cl, *rdd, preset, cfg);
    };
    return sim.run_task(job());
  };
  const TrainResult tree = train_with(engine::AggMode::kTree);
  const TrainResult split = train_with(engine::AggMode::kSplit);
  ASSERT_EQ(tree.weights.size(), split.weights.size());
  for (std::size_t i = 0; i < tree.weights.size(); ++i) {
    EXPECT_NEAR(tree.weights[i], split.weights[i],
                1e-7 * (1.0 + std::abs(tree.weights[i])));
  }
  ASSERT_EQ(tree.loss_history.size(), split.loss_history.size());
  for (std::size_t i = 0; i < tree.loss_history.size(); ++i) {
    EXPECT_NEAR(tree.loss_history[i], split.loss_history[i], 1e-8);
  }
}

TEST(Lda, LogLikelihoodImprovesAndTopicsRecovered) {
  Simulator sim;
  engine::Cluster cl(sim, tiny_spec());
  cl.config().agg_mode = engine::AggMode::kSplit;
  data::DatasetPreset preset = data::enron();
  preset.real_samples = 240;
  preset.real_features = 200;
  preset.real_nnz = 30;
  auto rdd = make_corpus_rdd(preset, 8, cl.num_executors(), 31);
  rdd->materialize();
  LdaConfig cfg;
  cfg.iterations = 12;
  cfg.num_topics_real = 6;
  auto job = [&]() -> Task<LdaResult> {
    co_return co_await train_lda(cl, *rdd, preset, cfg);
  };
  LdaResult r = sim.run_task(job());
  ASSERT_EQ(r.loglik_history.size(), 12u);
  EXPECT_GT(r.loglik_history.back(), r.loglik_history.front());
  // Rows remain normalized distributions.
  for (int k = 0; k < cfg.num_topics_real; ++k) {
    double sum = 0.0;
    for (std::int64_t w = 0; w < preset.real_features; ++w) {
      const double x =
          r.beta[static_cast<std::size_t>(k * preset.real_features + w)];
      EXPECT_GE(x, 0.0);
      sum += x;
    }
    EXPECT_NEAR(sum, 1.0, 1e-6);
  }
}

TEST(Lda, TreeAndSplitAgree) {
  auto run = [](engine::AggMode mode) {
    Simulator sim;
    engine::Cluster cl(sim, tiny_spec());
    cl.config().agg_mode = mode;
    data::DatasetPreset preset = data::enron();
    preset.real_samples = 120;
    preset.real_features = 120;
    preset.real_nnz = 20;
    auto rdd = make_corpus_rdd(preset, 6, cl.num_executors(), 37);
    rdd->materialize();
    LdaConfig cfg;
    cfg.iterations = 5;
    cfg.num_topics_real = 4;
    auto job = [&]() -> Task<LdaResult> {
      co_return co_await train_lda(cl, *rdd, preset, cfg);
    };
    return sim.run_task(job());
  };
  const LdaResult a = run(engine::AggMode::kTree);
  const LdaResult b = run(engine::AggMode::kSplit);
  ASSERT_EQ(a.beta.size(), b.beta.size());
  for (std::size_t i = 0; i < a.beta.size(); ++i) {
    EXPECT_NEAR(a.beta[i], b.beta[i], 1e-12);
  }
}

TEST(Workloads, NineWorkloadsMatchThePaper) {
  const auto all = paper_workloads();
  ASSERT_EQ(all.size(), 9u);
  EXPECT_EQ(all[0].name, "LDA-E");
  EXPECT_EQ(all[1].name, "LDA-N");
  EXPECT_EQ(workload_by_name("SVM-K12").dataset->name, "kdd12");
  EXPECT_EQ(workload_by_name("LR-K").dataset->name, "kdd10");
  EXPECT_EQ(workload_by_name("LDA-N").model, ModelKind::kLda);
  EXPECT_THROW(workload_by_name("LR-K12"), std::invalid_argument);
}

TEST(Workloads, RunWorkloadProducesBreakdown) {
  Simulator sim;
  engine::Cluster cl(sim, tiny_spec());
  cl.config().agg_mode = engine::AggMode::kSplit;
  auto job = [&]() -> Task<WorkloadRun> {
    co_return co_await run_workload(cl, workload_by_name("SVM-A"),
                                    /*iterations=*/3);
  };
  WorkloadRun run = sim.run_task(job());
  EXPECT_EQ(run.loss_history.size(), 3u);
  EXPECT_GT(run.total, 0u);
  EXPECT_GT(run.breakdown.agg_compute, 0u);
  EXPECT_GT(run.breakdown.agg_reduce, 0u);
  EXPECT_GT(run.breakdown.non_agg, 0u);
  EXPECT_GT(run.breakdown.driver, 0u);
  // The buckets partition total time (up to rounding of the buckets).
  EXPECT_LE(run.breakdown.total(), run.total);
  EXPECT_GT(run.breakdown.total(), run.total * 9 / 10);
}

// Every interval a driver charges to a bucket is also a "phase" span, so
// the trace-derived breakdown equals the driver's own to the nanosecond:
// for both linear models, the allreduce variant and LDA, under every
// aggregation mode.
TEST(PhaseAccounting, TraceEqualsBreakdownForEveryDriver) {
  enum class Driver { kLr, kSvm, kSvmAllreduce, kLda };
  for (const engine::AggMode mode :
       {engine::AggMode::kTree, engine::AggMode::kTreeImm,
        engine::AggMode::kSplit}) {
    for (const Driver driver :
         {Driver::kLr, Driver::kSvm, Driver::kSvmAllreduce, Driver::kLda}) {
      SCOPED_TRACE("mode " + std::to_string(static_cast<int>(mode)) +
                   " driver " + std::to_string(static_cast<int>(driver)));
      Simulator sim;
      engine::EngineConfig ecfg;
      ecfg.agg_mode = mode;
      ecfg.trace.enabled = true;
      engine::Cluster cl(sim, tiny_spec(), ecfg);
      TimeBreakdown bd;
      if (driver == Driver::kLda) {
        data::DatasetPreset preset = data::enron();
        preset.real_samples = 96;
        preset.real_features = 64;
        preset.real_nnz = 12;
        auto rdd = make_corpus_rdd(preset, 6, cl.num_executors(), 41);
        rdd->materialize();
        LdaConfig cfg;
        cfg.iterations = 3;
        cfg.num_topics_real = 4;
        auto job = [&]() -> Task<LdaResult> {
          co_return co_await train_lda(cl, *rdd, preset, cfg);
        };
        bd = sim.run_task(job()).breakdown;
      } else {
        data::DatasetPreset preset = data::avazu();
        preset.real_samples = 400;
        preset.real_features = 64;
        preset.real_nnz = 8;
        auto rdd = make_classification_rdd(preset, 8, cl.num_executors(), 43);
        rdd->materialize();
        TrainConfig cfg;
        cfg.model = driver == Driver::kLr ? ModelKind::kLogisticRegression
                                          : ModelKind::kSvm;
        cfg.use_allreduce = driver == Driver::kSvmAllreduce;
        cfg.iterations = 3;
        auto job = [&]() -> Task<TrainResult> {
          co_return co_await train_linear(cl, *rdd, preset, cfg);
        };
        bd = sim.run_task(job()).breakdown;
      }
      const obs::PhaseBreakdown ph = obs::phase_breakdown(cl.trace());
      EXPECT_EQ(ph.driver, bd.driver);
      EXPECT_EQ(ph.non_agg, bd.non_agg);
      EXPECT_EQ(ph.agg_compute, bd.agg_compute);
      EXPECT_EQ(ph.agg_reduce, bd.agg_reduce);
      EXPECT_EQ(ph.broadcast, bd.broadcast);
      EXPECT_GT(bd.agg_compute, 0u);
      EXPECT_GT(bd.non_agg, 0u);
      EXPECT_GT(bd.broadcast, 0u);
      EXPECT_EQ(bd.total(),
                bd.driver + bd.non_agg + bd.agg_compute + bd.agg_reduce);
      EXPECT_EQ(ph.total(),
                ph.driver + ph.non_agg + ph.agg_compute + ph.agg_reduce);
    }
  }
}

}  // namespace
}  // namespace sparker::ml
