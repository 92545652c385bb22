#include "ml/train.hpp"

#include <algorithm>

#include "engine/aggregate.hpp"
#include "engine/broadcast.hpp"
#include "ml/aggregator.hpp"
#include "ml/optimizer.hpp"

namespace sparker::ml {

sim::Task<void> IterationPhases::ship_model(int iter, std::uint64_t bytes,
                                            bool ship) {
  const sim::Time t0 = cl_.simulator().now();
  if (ship) {
    co_await engine::broadcast_value<int>(cl_, std::make_shared<int>(0),
                                          bytes);
    // Nested under the non_agg span: the broadcast share of the bucket, so
    // fig02 can split it out without changing non_agg itself.
    record(obs::Phase::kBroadcast, iter, t0);
  }
  record(obs::Phase::kNonAgg, iter, t0);
}

void IterationPhases::add_aggregation(const engine::AggMetrics& m) {
  breakdown_.add(obs::Phase::kAggCompute, m.compute_time());
  breakdown_.add(obs::Phase::kAggReduce, m.reduce_time());
}

sim::Task<void> IterationPhases::sampling_pass(int iter, double frac,
                                               const engine::AggMetrics& m) {
  const sim::Time t0 = cl_.simulator().now();
  co_await cl_.simulator().sleep(static_cast<sim::Duration>(
      frac * static_cast<double>(m.compute_time())));
  record(obs::Phase::kNonAgg, iter, t0);
}

void IterationPhases::record(obs::Phase p, int iter, sim::Time from) {
  obs::record_phase(cl_.trace(), breakdown_, p, from, cl_.simulator().now(),
                    {{"iter", iter}});
}

sim::Task<TrainResult> train_linear(engine::Cluster& cl,
                                    engine::CachedRdd<LabeledPoint>& rdd,
                                    const data::DatasetPreset& preset,
                                    TrainConfig cfg) {
  TrainResult result;
  auto& sim = cl.simulator();
  const auto real_dim = preset.real_features;
  const auto modeled_dim = preset.features;
  DenseVector w(static_cast<std::size_t>(real_dim), 0.0);
  Lbfgs lbfgs(cfg.lbfgs_history);
  if (cfg.model == ModelKind::kLogisticRegression) {
    // L-BFGS keeps 2m (s, y) pairs plus w/grad copies at the driver; at
    // paper scale this is what kills LR on kdd12 (Table 2's note).
    const double needed = static_cast<double>(2 * cfg.lbfgs_history + 4) *
                          static_cast<double>(modeled_dim) * sizeof(double) *
                          cl.spec().rates.jvm_expansion;
    if (needed > cl.spec().driver_memory_bytes) {
      throw engine::OomError(
          "driver OOM: L-BFGS history needs " +
          std::to_string(needed / 1e9) + " GB > " +
          std::to_string(cl.spec().driver_memory_bytes / 1e9) +
          " GB driver heap");
    }
  }
  const GradientKind gkind = cfg.model == ModelKind::kSvm
                                 ? GradientKind::kHinge
                                 : GradientKind::kLogistic;

  GradientCostModel cost;
  cost.modeled_rows_per_partition =
      static_cast<double>(preset.samples) / rdd.num_partitions();
  cost.modeled_avg_nnz = preset.avg_nnz;
  cost.per_nnz = cfg.per_nnz;
  cost.per_dim = cfg.per_dim;
  cost.modeled_dim = modeled_dim;

  const bool use_split = cl.config().agg_mode == engine::AggMode::kSplit;
  const bool allreduce_mode = cfg.use_allreduce && use_split;
  IterationPhases phases(cl, result.breakdown);
  for (int iter = 1; iter <= cfg.iterations; ++iter) {
    // In allreduce mode the model is already resident on every executor
    // after the first iteration; only iteration 1 ships it.
    co_await phases.ship_model(
        iter, static_cast<std::uint64_t>(modeled_dim) * sizeof(double),
        !allreduce_mode || iter == 1);

    // --- Aggregation: distributed gradient ---------------------------------
    auto w_shared = std::make_shared<const DenseVector>(w);
    GradientJob job = make_gradient_job(gkind, w_shared, cost);
    engine::AggMetrics metrics;
    GradientAggregator agg;
    if (allreduce_mode) {
      GradientSegment flat =
          co_await engine::split_allreduce(cl, rdd, job.split, &metrics);
      agg = aggregator_from_flat(std::move(flat));
    } else if (use_split) {
      GradientSegment flat =
          co_await engine::split_aggregate(cl, rdd, job.split, &metrics);
      agg = aggregator_from_flat(std::move(flat));
    } else {
      agg = co_await engine::tree_aggregate(cl, rdd, job.tree, &metrics);
    }
    phases.add_aggregation(metrics);
    result.task_retries += metrics.task_retries;
    result.stage_restarts += metrics.stage_restarts;
    co_await phases.sampling_pass(iter, cfg.sampling_pass_frac, metrics);

    // --- Driver: optimizer update ------------------------------------------
    const sim::Time t0 = sim.now();
    co_await sim.sleep(cfg.driver_fixed_per_iter);
    const double n = std::max(1.0, agg.count());
    DenseVector grad = agg.gradient_copy();
    scal(1.0 / n, grad);
    const double data_loss = agg.loss_sum() / n;
    const double reg_loss =
        0.5 * cfg.reg_param * dot(w, w);  // L2, as in MLlib's updaters
    result.loss_history.push_back(data_loss + reg_loss);

    double flops;
    if (cfg.model == ModelKind::kLogisticRegression) {
      axpy(cfg.reg_param, w, grad);
      DenseVector dir = lbfgs.direction(w, grad);
      // Fixed step in the L-BFGS direction (line-search cost folded into
      // the flop estimate).
      axpy(cfg.step_size, dir, w);
      flops = Lbfgs::flops(cfg.lbfgs_history, static_cast<double>(modeled_dim));
    } else {
      sgd_step(w, grad, iter, cfg.step_size, cfg.reg_param);
      flops = 3.0 * static_cast<double>(modeled_dim);
    }
    co_await sim.sleep(
        static_cast<sim::Duration>(flops * cfg.driver_flop_ns));
    // In allreduce mode the update runs as identical replicas on the
    // executors: scalable work, not driver time.
    phases.record(allreduce_mode ? obs::Phase::kNonAgg : obs::Phase::kDriver,
                  iter, t0);
  }
  result.weights = std::move(w);
  co_return result;
}

}  // namespace sparker::ml
