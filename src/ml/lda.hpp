#pragma once

#include <cstdint>
#include <vector>

#include "data/generators.hpp"
#include "data/presets.hpp"
#include "engine/cluster.hpp"
#include "engine/rdd.hpp"
#include "ml/linalg.hpp"
#include "ml/train.hpp"
#include "sim/task.hpp"

/// \file lda.hpp
/// EM-based Latent Dirichlet Allocation (MLlib's EMLDAOptimizer regime):
/// each iteration broadcasts the topic-word matrix beta, runs a distributed
/// E-step whose aggregator is the expected word-topic count matrix (the
/// large, splittable object that makes LDA-N the paper's flagship
/// reduction-bound workload), and recomputes beta at the driver (M-step).
///
/// The aggregator is one flat additive array `[counts(K*V), loglik,
/// tokens]`, so the split-aggregation callbacks are pure slicing /
/// element-wise addition / concatenation.

namespace sparker::ml {

struct LdaConfig {
  int num_topics_real = 10;    ///< topics for the real math.
  int num_topics_model = 100;  ///< Table 3: K = 100 (drives cost/bytes).
  int iterations = 40;
  int e_step_inner = 5;        ///< fixed-point iterations per document.
  double alpha = 0.1;          ///< document-topic smoothing.
  double eta = 0.05;           ///< topic-word smoothing.

  sim::Duration per_token_topic = 20;  ///< ns per token*topic*inner-iter.
  double driver_flop_ns = 1.2;
  /// Driver-side M-step / Dirichlet-expectation passes over the K x V
  /// matrix per iteration.
  double driver_passes = 10.0;
  /// Fraction of the E-step charged as a non-aggregation stage (document
  /// statistics, perplexity bookkeeping).
  double sampling_pass_frac = 0.15;
  sim::Duration driver_fixed_per_iter = sim::milliseconds(400);
};

struct LdaResult {
  DenseVector beta;  ///< K_real x V_real, row-major, rows normalized.
  std::vector<double> loglik_history;
  TimeBreakdown breakdown;
  int stage_restarts = 0;
};

namespace lda_detail {

/// E-step for one document against fixed beta: returns the document's
/// log-likelihood contribution and adds expected counts into `flat`
/// (layout: [counts(K*V), loglik, tokens]).
void fold_document(const data::Document& doc, const DenseVector& beta,
                   int k_topics, std::int64_t vocab, int inner, double alpha,
                   DenseVector& flat);

}  // namespace lda_detail

/// Trains LDA over a cached corpus RDD shaped like `preset`, using the
/// cluster's configured aggregation mode.
sim::Task<LdaResult> train_lda(engine::Cluster& cl,
                               engine::CachedRdd<data::Document>& rdd,
                               const data::DatasetPreset& preset,
                               LdaConfig cfg);

}  // namespace sparker::ml
