#include "ml/lda.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "engine/aggregate.hpp"
#include "sim/random.hpp"

namespace sparker::ml {

namespace lda_detail {

void fold_document(const data::Document& doc, const DenseVector& beta,
                   int k_topics, std::int64_t vocab, int inner, double alpha,
                   DenseVector& flat) {
  const auto kk = static_cast<std::size_t>(k_topics);
  std::vector<double> theta(kk, 1.0 / static_cast<double>(k_topics));
  std::vector<double> phi(kk, 0.0);
  std::vector<double> theta_new(kk, 0.0);
  for (int it = 0; it < inner; ++it) {
    std::fill(theta_new.begin(), theta_new.end(), alpha);
    for (std::size_t t = 0; t < doc.word_ids.size(); ++t) {
      const auto w = static_cast<std::size_t>(doc.word_ids[t]);
      const double c = doc.counts[t];
      double norm = 0.0;
      for (std::size_t k = 0; k < kk; ++k) {
        phi[k] = theta[k] * beta[k * static_cast<std::size_t>(vocab) + w];
        norm += phi[k];
      }
      if (norm <= 0) continue;
      for (std::size_t k = 0; k < kk; ++k) theta_new[k] += c * phi[k] / norm;
    }
    double tsum = 0.0;
    for (double v : theta_new) tsum += v;
    for (std::size_t k = 0; k < kk; ++k) theta[k] = theta_new[k] / tsum;
  }
  // Accumulate expected counts and log-likelihood with the final theta.
  double loglik = 0.0;
  double tokens = 0.0;
  for (std::size_t t = 0; t < doc.word_ids.size(); ++t) {
    const auto w = static_cast<std::size_t>(doc.word_ids[t]);
    const double c = doc.counts[t];
    double norm = 0.0;
    for (std::size_t k = 0; k < kk; ++k) {
      phi[k] = theta[k] * beta[k * static_cast<std::size_t>(vocab) + w];
      norm += phi[k];
    }
    if (norm <= 0) continue;
    for (std::size_t k = 0; k < kk; ++k) {
      flat[k * static_cast<std::size_t>(vocab) + w] += c * phi[k] / norm;
    }
    loglik += c * std::log(norm);
    tokens += c;
  }
  flat[flat.size() - 2] += loglik;
  flat[flat.size() - 1] += tokens;
}

}  // namespace lda_detail

sim::Task<LdaResult> train_lda(engine::Cluster& cl,
                               engine::CachedRdd<data::Document>& rdd,
                               const data::DatasetPreset& preset,
                               LdaConfig cfg) {
  LdaResult result;
  auto& sim = cl.simulator();
  const int k_real = cfg.num_topics_real;
  const std::int64_t v_real = preset.real_features;
  const std::int64_t flat_len =
      static_cast<std::int64_t>(k_real) * v_real + 2;
  const double modeled_cells = static_cast<double>(cfg.num_topics_model) *
                               static_cast<double>(preset.features);
  const double bytes_scale =
      modeled_cells / static_cast<double>(flat_len - 2);

  // Initial beta: deterministic, slightly-perturbed uniform rows.
  DenseVector beta(static_cast<std::size_t>(k_real * v_real));
  {
    sim::Rng rng(0xbe7abe7aull);
    for (int k = 0; k < k_real; ++k) {
      double sum = 0.0;
      for (std::int64_t w = 0; w < v_real; ++w) {
        const double x = 1.0 + 0.1 * rng.next_double();
        beta[static_cast<std::size_t>(k * v_real + w)] = x;
        sum += x;
      }
      for (std::int64_t w = 0; w < v_real; ++w) {
        beta[static_cast<std::size_t>(k * v_real + w)] /= sum;
      }
    }
  }

  const double docs_pp =
      static_cast<double>(preset.samples) / rdd.num_partitions();
  const double token_topic_work =
      docs_pp * preset.avg_nnz * cfg.num_topics_model *
      (cfg.e_step_inner + 1) * static_cast<double>(cfg.per_token_topic);

  const bool use_split = cl.config().agg_mode == engine::AggMode::kSplit;
  IterationPhases phases(cl, result.breakdown);
  for (int iter = 1; iter <= cfg.iterations; ++iter) {
    co_await phases.ship_model(
        iter, static_cast<std::uint64_t>(modeled_cells * sizeof(double)));

    // --- Aggregation: distributed E-step ------------------------------------
    auto beta_shared = std::make_shared<const DenseVector>(beta);
    engine::TreeAggSpec<data::Document, DenseVector> tree;
    tree.zero = DenseVector(static_cast<std::size_t>(flat_len), 0.0);
    tree.seq_op = [beta_shared, k_real, v_real, &cfg](DenseVector& flat,
                                                      const data::Document& d) {
      lda_detail::fold_document(d, *beta_shared, k_real, v_real,
                                cfg.e_step_inner, cfg.alpha, flat);
    };
    tree.comb_op = [](DenseVector& a, const DenseVector& b) {
      add_into(a, b);
    };
    tree.bytes = [bytes_scale](const DenseVector& v) {
      return static_cast<std::uint64_t>(
          static_cast<double>(v.size() * sizeof(double)) * bytes_scale);
    };
    tree.partition_cost = [token_topic_work](int,
                                             const std::vector<data::Document>&) {
      return static_cast<sim::Duration>(token_topic_work);
    };

    engine::AggMetrics metrics;
    DenseVector flat;
    if (use_split) {
      engine::SplitAggSpec<data::Document, DenseVector, DenseVector> split;
      split.base = tree;
      split.split_op = [](const DenseVector& u, int seg, int nseg) {
        auto [lo, hi] =
            slice_bounds(static_cast<std::int64_t>(u.size()), seg, nseg);
        return slice(u, lo, hi);
      };
      split.reduce_op = [](DenseVector& a, const DenseVector& b) {
        add_into(a, b);
      };
      split.concat_op = [](std::vector<std::pair<int, DenseVector>>& segs) {
        DenseVector out;
        for (auto& [idx, v] : segs) out.insert(out.end(), v.begin(), v.end());
        return out;
      };
      split.v_bytes = tree.bytes;
      flat = co_await engine::split_aggregate(cl, rdd, split, &metrics);
    } else {
      flat = co_await engine::tree_aggregate(cl, rdd, tree, &metrics);
    }
    phases.add_aggregation(metrics);
    result.stage_restarts += metrics.stage_restarts;
    result.loglik_history.push_back(flat[flat.size() - 2]);
    // Document statistics / perplexity bookkeeping.
    co_await phases.sampling_pass(iter, cfg.sampling_pass_frac, metrics);

    // --- Driver: M-step ------------------------------------------------------
    const sim::Time t0 = sim.now();
    co_await sim.sleep(cfg.driver_fixed_per_iter);
    for (int k = 0; k < k_real; ++k) {
      double sum = 0.0;
      for (std::int64_t w = 0; w < v_real; ++w) {
        sum += flat[static_cast<std::size_t>(k * v_real + w)] + cfg.eta;
      }
      for (std::int64_t w = 0; w < v_real; ++w) {
        beta[static_cast<std::size_t>(k * v_real + w)] =
            (flat[static_cast<std::size_t>(k * v_real + w)] + cfg.eta) / sum;
      }
    }
    co_await sim.sleep(static_cast<sim::Duration>(
        cfg.driver_passes * modeled_cells * cfg.driver_flop_ns));
    phases.record(obs::Phase::kDriver, iter, t0);
  }
  result.beta = std::move(beta);
  co_return result;
}

}  // namespace sparker::ml
