#include "data/generators.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace sparker::data {

using sim::Rng;

PlantedModel make_planted_model(const DatasetPreset& preset,
                                std::uint64_t seed) {
  Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
  PlantedModel m;
  m.weights.resize(static_cast<std::size_t>(preset.real_features));
  for (auto& w : m.weights) w = rng.next_gaussian();
  m.noise = 0.05;
  return m;
}

std::vector<ml::LabeledPoint> generate_classification_partition(
    const DatasetPreset& preset, const PlantedModel& model, int partition,
    std::int64_t count, std::uint64_t seed) {
  Rng rng = Rng(seed).split(static_cast<std::uint64_t>(partition) + 1);
  std::vector<ml::LabeledPoint> rows;
  rows.reserve(static_cast<std::size_t>(count));
  const auto dim = preset.real_features;
  for (std::int64_t i = 0; i < count; ++i) {
    ml::LabeledPoint p;
    p.features.dim = dim;
    const int nnz = preset.real_nnz;
    p.features.indices.reserve(static_cast<std::size_t>(nnz));
    p.features.values.reserve(static_cast<std::size_t>(nnz));
    // Uniform distinct indices (sorted); dim >> nnz so rejection is cheap.
    while (static_cast<int>(p.features.indices.size()) < nnz) {
      const auto idx = static_cast<std::int32_t>(
          rng.next_below(static_cast<std::uint64_t>(dim)));
      if (std::find(p.features.indices.begin(), p.features.indices.end(),
                    idx) == p.features.indices.end()) {
        p.features.indices.push_back(idx);
      }
    }
    std::sort(p.features.indices.begin(), p.features.indices.end());
    for (int k = 0; k < nnz; ++k) {
      p.features.values.push_back(rng.next_gaussian());
    }
    const double margin = ml::dot(model.weights, p.features);
    bool positive = margin > 0.0;
    if (rng.bernoulli(model.noise)) positive = !positive;
    p.label = positive ? 1.0 : 0.0;
    rows.push_back(std::move(p));
  }
  return rows;
}

std::size_t scan_word(const ml::DenseVector& dist, double u) {
  std::size_t w = 0;
  for (; w + 1 < dist.size(); ++w) {
    u -= dist[w];
    if (u <= 0.0) break;
  }
  return w;
}

namespace {

// Knuth's TwoSum: s + e == a + b exactly.
void two_sum(double a, double b, double& s, double& e) {
  s = a + b;
  const double bb = s - a;
  e = (a - (s - bb)) + (b - bb);
}

}  // namespace

WordCdf::WordCdf(const ml::DenseVector& dist) : size_(dist.size()) {
  double hi = 0.0;
  double lo = 0.0;
  for (const double d : dist) {
    double s, e;
    two_sum(hi, d, s, e);
    two_sum(s, lo + e, hi, lo);
    if (!(d >= 0.0 && d <= 1.0 && hi < 2.0)) {  // also rejects NaN
      hi_.clear();
      lo_.clear();
      return;
    }
    hi_.push_back(hi);
    lo_.push_back(lo);
  }
}

// Why a certified answer equals scan_word's. Write S_w for the exact sum
// d_0 + ... + d_w and x_w = u - S_w. The scan computes r_{-1} = u and
// r_w = fl(r_{w-1} - d_w), stopping at the first r_w <= 0. A table exists
// only when every d_w is in [0, 1], and find() takes only u in [+0, 1). So
// while the scan runs, r_{w-1} is in [0, 1), r_w in [-1, 1), and each step
// rounds by at most 2^-53: |r_w - x_w| <= (w+1) 2^-53.
//
// The table holds hi_w + lo_w within (w+1) 2^-104 of S_w (each step's
// TwoSum is exact; only `lo + e`, below 2^-51, rounds), with hi_w < 2 and
// |lo_w| <= 2^-53. The gap g_w = (u - hi_w) - lo_w rounds twice, each
// time on a magnitude of at most 2 + 2^-53, so each rounding moves it by at
// most 2^-53: |g_w - x_w| <= 2 * 2^-53 + (w+1) 2^-104 < 3 * 2^-53.
//
// With B = (w+2) 2^-52 = (2w+4) 2^-53, accept w when
//   - w == V-1, or g_w < -B: then x_w < -(2w+1) 2^-53, so r_w < 0;
//   - w == 0, or g_{w-1} > B: then x_{w-1} > (2w+1) 2^-53. S is
//     non-decreasing, so every x_i with i < w is at least that, and each
//     r_i > x_i - (i+1) 2^-53 > 0: the scan did not stop before w.
// So the scan stops at w exactly. The binary search only proposes w; the
// certificate alone decides, so rounding that makes g non-monotone can
// cost a fallback but never a wrong word.
std::optional<std::size_t> WordCdf::find(double u) const {
  // Non-negative doubles order as their bit patterns do, so one unsigned
  // comparison admits exactly u in [+0, 1) (no -0, NaN or negative).
  const auto key = std::bit_cast<std::uint64_t>(u);
  const std::size_t n = hi_.size();
  if (n == 0 || key >= std::bit_cast<std::uint64_t>(1.0)) return std::nullopt;
  const auto gap = [&](std::size_t w) { return (u - hi_[w]) - lo_[w]; };
  // Propose the first w in [0, n-1) with u <= hi_w, or n-1 when there is
  // none; the answer stays in [base, base + len]. Comparing with hi alone
  // keeps the loop's dependency chain short; the certificate below reads
  // the full gap. The comparison is on bits too: an integer comparison
  // compiles to a mask instead of a branch that mispredicts half the time.
  const double* base = hi_.data();
  for (std::size_t len = n - 1; len > 0;) {
    const std::size_t half = len / 2;
    const auto hi = std::bit_cast<std::uint64_t>(base[half]);
    const std::size_t mask = 0 - static_cast<std::size_t>(key > hi);
    base += (len - half) & mask;
    len = half;
  }
  const auto w = static_cast<std::size_t>(base - hi_.data());
  const double bound = static_cast<double>(w + 2) * 0x1p-52;
  if (w + 1 < n && !(gap(w) < -bound)) return std::nullopt;
  if (w > 0 && !(gap(w - 1) > bound)) return std::nullopt;
  return w;
}

std::size_t sample_word(const WordCdf& cdf, const ml::DenseVector& dist,
                        double u) {
  if (const auto w = cdf.find(u)) return *w;
  return scan_word(dist, u);
}

PlantedTopics make_planted_topics(const DatasetPreset& preset, int num_topics,
                                  std::uint64_t seed) {
  Rng rng(seed ^ 0xabcdef1234567890ull);
  PlantedTopics t;
  t.num_topics = num_topics;
  const auto v = static_cast<std::size_t>(preset.real_features);
  t.topic_word.resize(static_cast<std::size_t>(num_topics));
  for (int k = 0; k < num_topics; ++k) {
    auto& dist = t.topic_word[static_cast<std::size_t>(k)];
    dist.assign(v, 0.01);  // smoothing floor
    // Each topic concentrates on a band of ~V/K words plus random spikes.
    const std::size_t band = std::max<std::size_t>(1, v / static_cast<std::size_t>(num_topics));
    const std::size_t start = static_cast<std::size_t>(k) * band % v;
    for (std::size_t j = 0; j < band; ++j) {
      dist[(start + j) % v] += 1.0 + rng.next_double();
    }
    double sum = 0.0;
    for (double x : dist) sum += x;
    for (double& x : dist) x /= sum;
    t.cdf.emplace_back(dist);
  }
  return t;
}

std::vector<Document> generate_corpus_partition(const DatasetPreset& preset,
                                                const PlantedTopics& topics,
                                                int partition,
                                                std::int64_t count,
                                                std::uint64_t seed) {
  const std::vector<WordCdf>* cdf = &topics.cdf;
  std::vector<WordCdf> own;
  bool fresh = topics.cdf.size() == topics.topic_word.size();
  for (std::size_t k = 0; fresh && k < topics.cdf.size(); ++k) {
    fresh = topics.cdf[k].size() == topics.topic_word[k].size();
  }
  if (!fresh) {
    for (const auto& dist : topics.topic_word) own.emplace_back(dist);
    cdf = &own;
  }

  Rng rng = Rng(seed).split(static_cast<std::uint64_t>(partition) + 101);
  std::vector<Document> docs;
  docs.reserve(static_cast<std::size_t>(count));
  std::vector<std::int32_t> counts(
      static_cast<std::size_t>(preset.real_features), 0);
  for (std::int64_t d = 0; d < count; ++d) {
    // Two dominant topics per document.
    const auto k1 = static_cast<std::size_t>(
        rng.next_below(static_cast<std::uint64_t>(topics.num_topics)));
    const auto k2 = static_cast<std::size_t>(
        rng.next_below(static_cast<std::uint64_t>(topics.num_topics)));
    const double mix = 0.3 + 0.4 * rng.next_double();
    const int tokens = preset.real_nnz * 3;  // raw tokens; distinct ~real_nnz
    for (int t = 0; t < tokens; ++t) {
      const std::size_t k = rng.bernoulli(mix) ? k1 : k2;
      const double u = rng.next_double();
      ++counts[sample_word((*cdf)[k], topics.topic_word[k], u)];
    }
    Document doc;
    for (std::size_t w = 0; w < counts.size(); ++w) {
      if (counts[w] > 0) {
        doc.word_ids.push_back(static_cast<std::int32_t>(w));
        doc.counts.push_back(counts[w]);
      }
    }
    for (const auto w : doc.word_ids) counts[static_cast<std::size_t>(w)] = 0;
    docs.push_back(std::move(doc));
  }
  return docs;
}

std::vector<SparseUpdate> generate_sparse_update_partition(
    std::int64_t dim, double density, int partition, int num_bands,
    std::int64_t count, std::uint64_t seed) {
  Rng rng = Rng(seed).split(static_cast<std::uint64_t>(partition) + 211);
  num_bands = std::max(1, num_bands);
  const std::int64_t band = partition % num_bands;
  const std::int64_t band_w = std::max<std::int64_t>(1, dim / num_bands);
  const std::int64_t lo = band * band_w;
  const auto nnz = std::clamp<std::int64_t>(
      static_cast<std::int64_t>(density * static_cast<double>(dim) + 0.5), 1,
      dim);
  // Slot-sample one index per equal-width slot of a window that starts at
  // the partition's band: indices come out unique and (after the wrap sort)
  // sorted, with support spilling past the band only when density demands.
  const std::int64_t window = std::max(band_w, nnz);
  std::vector<SparseUpdate> updates;
  updates.reserve(static_cast<std::size_t>(count));
  for (std::int64_t u = 0; u < count; ++u) {
    SparseUpdate up;
    up.indices.reserve(static_cast<std::size_t>(nnz));
    up.deltas.reserve(static_cast<std::size_t>(nnz));
    for (std::int64_t j = 0; j < nnz; ++j) {
      const std::int64_t slot_lo = lo + j * window / nnz;
      const std::int64_t slot_hi = lo + (j + 1) * window / nnz;
      const std::int64_t span = std::max<std::int64_t>(1, slot_hi - slot_lo);
      const std::int64_t idx =
          (slot_lo + static_cast<std::int64_t>(
                         rng.next_below(static_cast<std::uint64_t>(span)))) %
          dim;
      up.indices.push_back(static_cast<std::int32_t>(idx));
      up.deltas.push_back(
          static_cast<std::int64_t>(rng.next_below(199)) - 99);
    }
    // The window can wrap past `dim`; restore sorted order (indices stay
    // unique: distinct slots map to distinct residues for window <= dim).
    std::vector<std::size_t> order(up.indices.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return up.indices[a] < up.indices[b];
    });
    SparseUpdate sorted;
    sorted.indices.reserve(up.indices.size());
    sorted.deltas.reserve(up.deltas.size());
    for (std::size_t i : order) {
      sorted.indices.push_back(up.indices[i]);
      sorted.deltas.push_back(up.deltas[i]);
    }
    updates.push_back(std::move(sorted));
  }
  return updates;
}

}  // namespace sparker::data
