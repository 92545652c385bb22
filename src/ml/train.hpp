#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "data/presets.hpp"
#include "engine/cluster.hpp"
#include "engine/rdd.hpp"
#include "ml/linalg.hpp"
#include "obs/export.hpp"
#include "sim/task.hpp"

/// \file train.hpp
/// Iterative training of the linear models (LR via L-BFGS, SVM via
/// mini-batch gradient descent — matching which MLlib optimizer each model
/// uses), on top of either aggregation path. Produces the paper's
/// four-way time decomposition: Driver / Non-agg / Agg-compute /
/// Agg-reduce (Figures 2, 3, 4, 18).

namespace sparker::engine {
struct AggMetrics;
}  // namespace sparker::engine

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

/// The paper's end-to-end decomposition buckets: the same type the trace's
/// phase breakdown fills, so the two compare with ==.
using TimeBreakdown = obs::PhaseBreakdown;

struct TrainResult {
  DenseVector weights;
  std::vector<double> loss_history;  ///< mean loss per iteration.
  TimeBreakdown breakdown;
  int task_retries = 0;
  int stage_restarts = 0;
};

/// The per-iteration bookkeeping the ML drivers share. Each interval is
/// recorded once, through obs::record_phase, into `breakdown` and (when
/// tracing) as a phase span tagged with the iteration.
class IterationPhases {
 public:
  IterationPhases(engine::Cluster& cl, TimeBreakdown& breakdown)
      : cl_(cl), breakdown_(breakdown) {}

  /// Non-agg: ships `bytes` of model to every executor through the
  /// engine's torrent broadcast (nothing when `ship` is false), recorded
  /// as its broadcast share and then as non_agg.
  sim::Task<void> ship_model(int iter, std::uint64_t bytes, bool ship = true);

  /// Adds an aggregation job's stages to agg_compute and agg_reduce (the
  /// job emits their spans itself).
  void add_aggregation(const engine::AggMetrics& m);

  /// Non-agg: the sampling/summary pass over the data, modeled as `frac`
  /// of the aggregation's compute stage.
  sim::Task<void> sampling_pass(int iter, double frac,
                                const engine::AggMetrics& m);

  /// Records [from, now) as phase `p` of iteration `iter`.
  void record(obs::Phase p, int iter, sim::Time from);

 private:
  engine::Cluster& cl_;
  TimeBreakdown& breakdown_;
};

/// Trains a linear model (LR or SVM) over a cached RDD shaped like
/// `preset`, using the cluster's configured aggregation mode. All math is
/// real (the returned weights classify the planted model's data); time is
/// modeled at paper scale.
sim::Task<TrainResult> train_linear(engine::Cluster& cl,
                                    engine::CachedRdd<LabeledPoint>& rdd,
                                    const data::DatasetPreset& preset,
                                    TrainConfig cfg);

}  // namespace sparker::ml
