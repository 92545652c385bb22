#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "data/presets.hpp"
#include "ml/linalg.hpp"
#include "sim/random.hpp"

/// \file generators.hpp
/// Deterministic synthetic data generators shaped like the Table 2
/// datasets: sparse classification rows drawn from a planted linear model
/// (so LR/SVM training has a real signal to recover) and bag-of-words
/// documents drawn from a planted topic mixture (so LDA has real topics to
/// find). Generation is per-partition and seeded, so failed tasks can
/// regenerate identical data.

namespace sparker::data {

/// A bag-of-words document: (word id, count) pairs.
struct Document {
  std::vector<std::int32_t> word_ids;
  std::vector<std::int32_t> counts;

  std::int64_t total_tokens() const {
    std::int64_t n = 0;
    for (auto c : counts) n += c;
    return n;
  }
};

/// Planted ground truth for a synthetic classification problem.
struct PlantedModel {
  ml::DenseVector weights;  ///< true separating direction.
  double noise = 0.1;       ///< label-flip probability.
};

/// Deterministic planted model for a preset.
PlantedModel make_planted_model(const DatasetPreset& preset,
                                std::uint64_t seed);

/// Generates `count` labeled rows for one partition. Labels follow
/// sign(w*x) with `noise` flips; indices are uniform without replacement.
std::vector<ml::LabeledPoint> generate_classification_partition(
    const DatasetPreset& preset, const PlantedModel& model, int partition,
    std::int64_t count, std::uint64_t seed);

/// Inverse-CDF draw over a word distribution: subtracts `dist[0]`,
/// `dist[1]`, ... from `u` in double arithmetic and returns the first word
/// w <= V-2 where the remainder is <= 0, or V-1 if there is none. This
/// linear scan defines the corpus generator's output; `sample_word` must
/// return what it returns.
std::size_t scan_word(const ml::DenseVector& dist, double u);

/// One word distribution's prefix sums, kept as double-double (hi + lo) so
/// that a draw is a binary search whose result is certified equal to
/// `scan_word`'s (DESIGN.md §6, "Corpus sampling").
class WordCdf {
 public:
  explicit WordCdf(const ml::DenseVector& dist);

  /// Length of the distribution the table was built from.
  std::size_t size() const { return size_; }

  /// `scan_word(dist, u)` when the table can prove it, else nullopt: `u`
  /// lies too close to a prefix sum, `u` is outside [+0, 1), or `dist` has
  /// a weight outside [0, 1] (or not finite) or a total of 2 or more.
  std::optional<std::size_t> find(double u) const;

 private:
  std::size_t size_ = 0;
  // Prefix w is hi_[w] + lo_[w]; both are empty when no draw can be
  // certified.
  std::vector<double> hi_;
  std::vector<double> lo_;
};

/// `scan_word(dist, u)`, by `cdf` when it certifies the draw and by the
/// scan when it does not. `cdf` must have been built from `dist`.
std::size_t sample_word(const WordCdf& cdf, const ml::DenseVector& dist,
                        double u);

/// Topic model ground truth: `topics[k]` is a distribution over the real
/// vocabulary (concentrated on a band of words per topic).
struct PlantedTopics {
  int num_topics = 0;
  std::vector<ml::DenseVector> topic_word;  ///< K x V_real.
  /// One table per topic, built from `topic_word` by make_planted_topics.
  /// generate_corpus_partition builds its own when this is missing or sized
  /// differently; code that edits `topic_word` afterwards must clear it.
  std::vector<WordCdf> cdf;
};

PlantedTopics make_planted_topics(const DatasetPreset& preset, int num_topics,
                                  std::uint64_t seed);

/// Generates `count` documents for one partition from a 2-topic mixture per
/// document. Each token is one `sample_word` draw from one of the two.
std::vector<Document> generate_corpus_partition(const DatasetPreset& preset,
                                                const PlantedTopics& topics,
                                                int partition,
                                                std::int64_t count,
                                                std::uint64_t seed);

/// One sparse additive update over a `dim`-wide model: sorted unique
/// indices with small integer deltas. Integer-valued so that downstream
/// bit-identity assertions are exact under any fold order.
struct SparseUpdate {
  std::vector<std::int32_t> indices;  ///< sorted, unique, in [0, dim).
  std::vector<std::int64_t> deltas;   ///< same length as `indices`.
};

/// Generates `count` sparse updates with nonzero fraction ~`density` for
/// one partition. Partitions are striped across `num_bands` disjoint index
/// bands, so summing across partitions fills in support gradually — the
/// access pattern that makes ring-hop fill-in (and thus the dense↔sparse
/// crossover) worth measuring. Deterministic per (partition, seed).
std::vector<SparseUpdate> generate_sparse_update_partition(
    std::int64_t dim, double density, int partition, int num_bands,
    std::int64_t count, std::uint64_t seed);

}  // namespace sparker::data
