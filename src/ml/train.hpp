#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "data/presets.hpp"
#include "engine/cluster.hpp"
#include "engine/rdd.hpp"
#include "ml/linalg.hpp"
#include "sim/task.hpp"

/// \file train.hpp
/// Iterative training of the linear models (LR via L-BFGS, SVM via
/// mini-batch gradient descent — matching which MLlib optimizer each model
/// uses), on top of either aggregation path. Produces the paper's
/// four-way time decomposition: Driver / Non-agg / Agg-compute /
/// Agg-reduce (Figures 2, 3, 4, 18).

namespace sparker::ml {

enum class ModelKind { kLogisticRegression, kSvm, kLda };

const char* to_string(ModelKind m);

struct TrainConfig {
  ModelKind model = ModelKind::kLogisticRegression;
  int iterations = 40;
  double step_size = 1.0;
  double reg_param = 0.0;             ///< Table 3: LR 0, SVM 0.01.
  double mini_batch_fraction = 1.0;   ///< Table 3: 1.0.
  int lbfgs_history = 10;
  /// Extension (DESIGN.md §5): keep the model resident on executors via
  /// Rabenseifner allreduce — no per-iteration broadcast, no driver-side
  /// collect; the optimizer update runs replicated on the executors.
  /// Effective only together with split aggregation.
  bool use_allreduce = false;

  // Cost-model constants (paper-scale work rates; see DESIGN.md).
  sim::Duration per_nnz = 30;        ///< ns per nonzero per gradient pass.
  sim::Duration per_dim = 2;         ///< ns per dense dimension per task.
  double driver_flop_ns = 1.2;       ///< driver ns per flop.
  /// MLlib runs a sampling/summary pass over the data each iteration (e.g.
  /// GradientDescent's miniBatch sample); modeled as this fraction of the
  /// aggregation compute stage, charged to the Non-agg bucket.
  double sampling_pass_frac = 0.2;
  /// Per-iteration driver bookkeeping (closure cleaning, broadcast
  /// management, DAGScheduler work between jobs).
  sim::Duration driver_fixed_per_iter = sim::milliseconds(400);
};

/// The paper's end-to-end decomposition buckets.
struct TimeBreakdown {
  sim::Duration driver = 0;       ///< non-scalable driver computation.
  sim::Duration non_agg = 0;      ///< broadcast & other scalable non-agg.
  sim::Duration agg_compute = 0;  ///< first stage of each aggregation.
  sim::Duration agg_reduce = 0;   ///< subsequent stages of each aggregation.
  /// Model-shipping share of `non_agg` (already counted there — total()
  /// must not add it again). Split out so fig02 can show how much of the
  /// non-agg bucket is broadcast.
  sim::Duration broadcast = 0;

  sim::Duration total() const {
    return driver + non_agg + agg_compute + agg_reduce;
  }
  double agg_fraction() const {
    const auto t = total();
    return t == 0 ? 0.0
                  : static_cast<double>(agg_compute + agg_reduce) /
                        static_cast<double>(t);
  }
};

struct TrainResult {
  DenseVector weights;
  std::vector<double> loss_history;  ///< mean loss per iteration.
  TimeBreakdown breakdown;
  int task_retries = 0;
  int stage_restarts = 0;
};

/// Broadcast of the current model to all executors, through the engine's
/// block-pipelined torrent broadcast (driver seed + binomial relay over
/// the scalable communicator's fabric). Charged to the Non-agg bucket.
sim::Task<void> broadcast_blob(engine::Cluster& cl, std::uint64_t bytes);

/// Trains a linear model (LR or SVM) over a cached RDD shaped like
/// `preset`, using the cluster's configured aggregation mode. All math is
/// real (the returned weights classify the planted model's data); time is
/// modeled at paper scale.
sim::Task<TrainResult> train_linear(engine::Cluster& cl,
                                    engine::CachedRdd<LabeledPoint>& rdd,
                                    const data::DatasetPreset& preset,
                                    TrainConfig cfg);

}  // namespace sparker::ml
