// Tests for dataset presets, synthetic generators (determinism, statistics,
// learnability of the planted signal) and libsvm parsing/round-trip.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <sstream>

#include "data/generators.hpp"
#include "data/libsvm.hpp"
#include "data/presets.hpp"

namespace sparker::data {
namespace {

TEST(Presets, TableTwoShapes) {
  EXPECT_EQ(avazu().samples, 45'006'431);
  EXPECT_EQ(avazu().features, 1'000'000);
  EXPECT_EQ(criteo().samples, 51'882'752);
  EXPECT_EQ(kdd10().features, 20'216'830);
  EXPECT_EQ(kdd12().samples, 149'639'105);
  EXPECT_EQ(kdd12().features, 54'686'452);
  EXPECT_EQ(enron().samples, 39'861);
  EXPECT_EQ(enron().features, 28'102);
  EXPECT_EQ(nytimes().samples, 300'000);
  EXPECT_EQ(nytimes().features, 102'660);
  EXPECT_EQ(all_presets().size(), 6u);
}

TEST(Presets, TaskKinds) {
  EXPECT_EQ(avazu().task, TaskKind::kClassification);
  EXPECT_EQ(kdd12().task, TaskKind::kClassification);
  EXPECT_EQ(enron().task, TaskKind::kTopicModel);
  EXPECT_EQ(nytimes().task, TaskKind::kTopicModel);
}

TEST(Presets, LookupByName) {
  EXPECT_EQ(&preset_by_name("kdd10"), &kdd10());
  EXPECT_THROW(preset_by_name("imagenet"), std::invalid_argument);
}

TEST(Presets, ScaleFactorsAreLarge) {
  // The byte-scale substitution only makes sense if modeled >> real.
  for (const auto* p : all_presets()) {
    EXPECT_GT(p->feature_scale(), 10.0) << p->name;
    EXPECT_GT(p->real_features, 0) << p->name;
    EXPECT_GT(p->real_samples, 0) << p->name;
  }
}

TEST(Generators, ClassificationIsDeterministic) {
  const auto& p = avazu();
  const auto model = make_planted_model(p, 7);
  auto a = generate_classification_partition(p, model, 3, 50, 7);
  auto b = generate_classification_partition(p, model, 3, 50, 7);
  ASSERT_EQ(a.size(), 50u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].label, b[i].label);
    EXPECT_EQ(a[i].features.indices, b[i].features.indices);
    EXPECT_EQ(a[i].features.values, b[i].features.values);
  }
}

TEST(Generators, PartitionsDiffer) {
  const auto& p = avazu();
  const auto model = make_planted_model(p, 7);
  auto a = generate_classification_partition(p, model, 0, 10, 7);
  auto b = generate_classification_partition(p, model, 1, 10, 7);
  EXPECT_NE(a[0].features.indices, b[0].features.indices);
}

TEST(Generators, RowsHaveExpectedShape) {
  const auto& p = criteo();
  const auto model = make_planted_model(p, 11);
  auto rows = generate_classification_partition(p, model, 0, 200, 11);
  int positives = 0;
  for (const auto& r : rows) {
    EXPECT_EQ(static_cast<int>(r.features.nnz()), p.real_nnz);
    EXPECT_TRUE(std::is_sorted(r.features.indices.begin(),
                               r.features.indices.end()));
    for (auto idx : r.features.indices) {
      EXPECT_GE(idx, 0);
      EXPECT_LT(idx, p.real_features);
    }
    positives += r.label > 0.5;
  }
  // Labels from a symmetric planted model: roughly balanced.
  EXPECT_GT(positives, 50);
  EXPECT_LT(positives, 150);
}

TEST(Generators, PlantedSignalIsLearnable) {
  // The planted weights themselves must classify the data well (upper bound
  // for any learner, sanity for convergence tests).
  const auto& p = avazu();
  const auto model = make_planted_model(p, 3);
  auto rows = generate_classification_partition(p, model, 0, 500, 3);
  int correct = 0;
  for (const auto& r : rows) {
    const double margin = ml::dot(model.weights, r.features);
    correct += ((margin > 0) == (r.label > 0.5));
  }
  EXPECT_GT(correct, 440);  // ~95% minus noise
}

TEST(Generators, CorpusIsDeterministicAndShaped) {
  const auto& p = nytimes();
  const auto topics = make_planted_topics(p, 10, 5);
  auto a = generate_corpus_partition(p, topics, 2, 30, 5);
  auto b = generate_corpus_partition(p, topics, 2, 30, 5);
  ASSERT_EQ(a.size(), 30u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].word_ids, b[i].word_ids);
    EXPECT_EQ(a[i].counts, b[i].counts);
    EXPECT_EQ(a[i].total_tokens(), p.real_nnz * 3);
    for (auto w : a[i].word_ids) {
      EXPECT_GE(w, 0);
      EXPECT_LT(w, p.real_features);
    }
  }
}

TEST(Generators, TopicsAreNormalized) {
  const auto topics = make_planted_topics(enron(), 8, 13);
  ASSERT_EQ(topics.topic_word.size(), 8u);
  for (const auto& dist : topics.topic_word) {
    double sum = 0.0;
    for (double x : dist) {
      EXPECT_GE(x, 0.0);
      sum += x;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

// Reference copies of the corpus generator's linear inverse-CDF scan and of
// the whole generator built on it, as they were before the binary-search
// sampler. The sampler must reproduce them exactly.
std::size_t reference_scan(const ml::DenseVector& dist, double u) {
  std::size_t w = 0;
  for (; w + 1 < dist.size(); ++w) {
    u -= dist[w];
    if (u <= 0.0) break;
  }
  return w;
}

std::vector<Document> reference_corpus_partition(const DatasetPreset& preset,
                                                 const PlantedTopics& topics,
                                                 int partition,
                                                 std::int64_t count,
                                                 std::uint64_t seed) {
  sim::Rng rng =
      sim::Rng(seed).split(static_cast<std::uint64_t>(partition) + 101);
  std::vector<Document> docs;
  const auto v = static_cast<std::uint64_t>(preset.real_features);
  for (std::int64_t d = 0; d < count; ++d) {
    const int k1 = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(topics.num_topics)));
    const int k2 = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(topics.num_topics)));
    const double mix = 0.3 + 0.4 * rng.next_double();
    std::vector<std::int32_t> counts(static_cast<std::size_t>(v), 0);
    const int tokens = preset.real_nnz * 3;
    for (int t = 0; t < tokens; ++t) {
      const auto& dist =
          rng.bernoulli(mix)
              ? topics.topic_word[static_cast<std::size_t>(k1)]
              : topics.topic_word[static_cast<std::size_t>(k2)];
      double u = rng.next_double();
      std::size_t w = 0;
      for (; w + 1 < dist.size(); ++w) {
        u -= dist[w];
        if (u <= 0.0) break;
      }
      ++counts[w];
    }
    Document doc;
    for (std::size_t w = 0; w < counts.size(); ++w) {
      if (counts[w] > 0) {
        doc.word_ids.push_back(static_cast<std::int32_t>(w));
        doc.counts.push_back(counts[w]);
      }
    }
    docs.push_back(std::move(doc));
  }
  return docs;
}

// The scan's answer for every u in [0, 1) at once: t[w] is the least double
// u with reference_scan(dist, u) > w (1.0 if there is none), so the scan
// returns the number of thresholds <= u. This holds because each remainder
// the scan computes is a non-decreasing function of u (rounding is
// monotone), so {u : scan(u) > w} is an interval [t[w], 1). Each t[w] is
// found by bisecting the bit patterns of [t[w-1], 1] with the scan itself.
std::vector<double> scan_thresholds(const ml::DenseVector& dist) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  const auto from = [](std::uint64_t b) { return std::bit_cast<double>(b); };
  std::vector<double> t;
  double lo = 0.0;  // t[w-1]: no u below it has scan(u) > w.
  double sum = 0.0;
  for (std::size_t w = 0; w + 1 < dist.size(); ++w) {
    sum += dist[w];
    const auto above = [&](double u) { return reference_scan(dist, u) > w; };
    // Bracket [a, b] in bit patterns with !above(a) (or a == lo) and
    // above(b) (or b == 1.0), starting near the running sum.
    std::uint64_t b = bits(std::clamp(sum, lo, 1.0));
    for (std::uint64_t step = 16; b < bits(1.0) && !above(from(b)); step *= 2) {
      b = std::min(b + step, bits(1.0));
    }
    std::uint64_t a = bits(lo);
    for (std::uint64_t step = 16; a + step < b; step *= 2) {
      if (!above(from(b - step))) {
        a = b - step;
        break;
      }
    }
    if (above(from(a))) b = a;
    while (a + 1 < b) {  // above(b), !above(a)
      const std::uint64_t mid = a + (b - a) / 2;
      (above(from(mid)) ? b : a) = mid;
    }
    t.push_back(from(b));
    lo = from(b);
  }
  return t;
}

std::size_t scan_by_thresholds(const std::vector<double>& t, double u) {
  return static_cast<std::size_t>(std::upper_bound(t.begin(), t.end(), u) -
                                  t.begin());
}

// Every u within 40 ulps of each prefix sum (as a running double sum), plus
// both ends of [0, 1).
template <typename Fn>
void near_prefix_sums(const ml::DenseVector& dist, Fn fn) {
  const auto around = [&](double x) {
    fn(x);
    double up = x, down = x;
    for (int i = 0; i < 40; ++i) {
      up = std::nextafter(up, 2.0);
      down = std::nextafter(down, -1.0);
      fn(up);
      fn(down);
    }
  };
  double sum = 0.0;
  for (double d : dist) {
    sum += d;
    around(sum);
  }
  fn(0.0);
  fn(std::nextafter(1.0, 0.0));
}

TEST(Generators, CorpusSamplerMatchesReferenceScan) {
  // Random thresholds: 1 M per topic of a planted enron topic set. The
  // thresholds stand in for the scan; a sample of draws checks them
  // against it directly.
  const auto topics = make_planted_topics(enron(), 4, 17);
  sim::Rng rng(99);
  std::int64_t fallbacks = 0;
  for (std::size_t k = 0; k < topics.topic_word.size(); ++k) {
    const auto& dist = topics.topic_word[k];
    const WordCdf& cdf = topics.cdf[k];
    const auto t = scan_thresholds(dist);
    std::int64_t bad = 0;
    for (int i = 0; i < 1'000'000; ++i) {
      const double u = rng.next_double();
      bad += sample_word(cdf, dist, u) != scan_by_thresholds(t, u);
      if (i % 100 == 0) {
        bad += reference_scan(dist, u) != scan_by_thresholds(t, u);
      }
    }
    EXPECT_EQ(bad, 0) << "topic " << k;
    // Within 40 ulps of every prefix sum and of every threshold, where the
    // certificate must refuse draws and the scan decides them.
    if (k >= 2) continue;
    std::vector<double> near;
    near_prefix_sums(dist, [&](double u) { near.push_back(u); });
    near_prefix_sums(t, [&](double u) { near.push_back(u); });
    for (double u : near) {
      fallbacks += !cdf.find(u).has_value();
      bad += sample_word(cdf, dist, u) != scan_by_thresholds(t, u);
    }
    EXPECT_EQ(bad, 0) << "topic " << k;
  }
  EXPECT_GT(fallbacks, 0);

  // Degenerate distributions, including ones the table refuses outright.
  const std::vector<ml::DenseVector> odd = {
      {1.0},
      {0.25, 0.75},
      {0.5, 0.0, 0.5},
      {0.0, 0.0, 0.0, 1.0},
      {0.0, 1.0, 0.0},
      {0.6, -0.1, 0.5},
      {0.5, std::numeric_limits<double>::infinity(), 0.5},
      {0.7, 0.7, 0.7},
  };
  for (const auto& dist : odd) {
    const WordCdf cdf(dist);
    std::vector<double> us = {1.0, -0.5, -0.0, std::nan("")};
    near_prefix_sums(dist, [&](double u) { us.push_back(u); });
    for (int i = 0; i < 10'000; ++i) us.push_back(rng.next_double());
    std::int64_t bad = 0;
    for (double u : us) {
      bad += sample_word(cdf, dist, u) != reference_scan(dist, u);
    }
    EXPECT_EQ(bad, 0) << "distribution of " << dist.size() << " words";
  }
  EXPECT_FALSE(WordCdf({0.6, -0.1, 0.5}).find(0.1).has_value());
  EXPECT_FALSE(WordCdf({0.7, 0.7, 0.7}).find(0.1).has_value());

  // Whole corpora, split as ml::make_corpus_rdd splits them.
  const std::uint64_t seeds[] = {1, 5, 501};
  const int splits[] = {192, 7, 1};
  for (const DatasetPreset* p : {&enron(), &nytimes()}) {
    for (int i = 0; i < 3; ++i) {
      const auto planted = make_planted_topics(*p, 10, seeds[i]);
      const std::int64_t per_part = p->real_samples / splits[i];
      for (int pid = 0; pid < splits[i]; ++pid) {
        const auto got =
            generate_corpus_partition(*p, planted, pid, per_part, seeds[i]);
        const auto want =
            reference_corpus_partition(*p, planted, pid, per_part, seeds[i]);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t d = 0; d < got.size(); ++d) {
          ASSERT_EQ(got[d].word_ids, want[d].word_ids)
              << p->name << " seed " << seeds[i] << " part " << pid;
          ASSERT_EQ(got[d].counts, want[d].counts);
        }
      }
    }
  }

  // Topics built by hand carry no tables, or tables of another shape; the
  // generator builds its own.
  DatasetPreset tiny = enron();
  tiny.real_features = 4;
  PlantedTopics hand;
  hand.num_topics = 2;
  hand.topic_word = {{0.0, 0.0, 0.0, 1.0}, {0.6, -0.1, 0.5, 0.0}};
  for (int pass = 0; pass < 2; ++pass) {
    const auto got = generate_corpus_partition(tiny, hand, 3, 50, 8);
    const auto want = reference_corpus_partition(tiny, hand, 3, 50, 8);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t d = 0; d < got.size(); ++d) {
      EXPECT_EQ(got[d].word_ids, want[d].word_ids);
      EXPECT_EQ(got[d].counts, want[d].counts);
    }
    hand.cdf = make_planted_topics(enron(), 2, 1).cdf;
  }
}

TEST(Libsvm, ParsesBasicLine) {
  ml::LabeledPoint p;
  ASSERT_TRUE(parse_libsvm_line("+1 3:0.5 7:-1.25 10:2", p));
  EXPECT_EQ(p.label, 1.0);
  ASSERT_EQ(p.features.nnz(), 3u);
  EXPECT_EQ(p.features.indices[0], 2);  // 1-based -> 0-based
  EXPECT_DOUBLE_EQ(p.features.values[1], -1.25);
  EXPECT_EQ(p.features.dim, 10);
}

TEST(Libsvm, SkipsBlankAndComments) {
  ml::LabeledPoint p;
  EXPECT_FALSE(parse_libsvm_line("", p));
  EXPECT_FALSE(parse_libsvm_line("   ", p));
  EXPECT_FALSE(parse_libsvm_line("# comment", p));
}

TEST(Libsvm, RejectsMalformed) {
  ml::LabeledPoint p;
  EXPECT_THROW(parse_libsvm_line("1 3:abc", p), std::runtime_error);
  EXPECT_THROW(parse_libsvm_line("1 0:1.0", p), std::runtime_error);
  EXPECT_THROW(parse_libsvm_line("1 noval", p), std::runtime_error);
}

TEST(Libsvm, SortsUnorderedIndices) {
  ml::LabeledPoint p;
  ASSERT_TRUE(parse_libsvm_line("-1 9:1 2:2 5:3", p));
  EXPECT_EQ(p.features.indices, (std::vector<std::int32_t>{1, 4, 8}));
  EXPECT_EQ(p.features.values, (std::vector<double>{2, 3, 1}));
  EXPECT_EQ(p.label, 0.0);
}

TEST(Libsvm, RoundTrip) {
  const auto& preset = avazu();
  const auto model = make_planted_model(preset, 21);
  auto rows = generate_classification_partition(preset, model, 0, 40, 21);
  std::stringstream ss;
  write_libsvm(ss, rows);
  auto back = read_libsvm(ss, preset.real_features);
  ASSERT_EQ(back.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(back[i].label, rows[i].label);
    EXPECT_EQ(back[i].features.indices, rows[i].features.indices);
    for (std::size_t k = 0; k < rows[i].features.values.size(); ++k) {
      EXPECT_NEAR(back[i].features.values[k], rows[i].features.values[k],
                  1e-6 * std::abs(rows[i].features.values[k]) + 1e-12);
    }
  }
}

TEST(Generators, SparseUpdatesAreShapedAndDeterministic) {
  const std::int64_t dim = 4096;
  for (double density : {0.001, 0.01, 0.1, 0.5}) {
    auto ups = generate_sparse_update_partition(dim, density, /*partition=*/2,
                                                /*num_bands=*/8, /*count=*/3,
                                                /*seed=*/42);
    ASSERT_EQ(ups.size(), 3u);
    const auto want_nnz = std::clamp<std::int64_t>(
        static_cast<std::int64_t>(density * static_cast<double>(dim) + 0.5),
        1, dim);
    for (const auto& up : ups) {
      ASSERT_EQ(up.indices.size(), static_cast<std::size_t>(want_nnz));
      ASSERT_EQ(up.deltas.size(), up.indices.size());
      for (std::size_t k = 0; k < up.indices.size(); ++k) {
        EXPECT_GE(up.indices[k], 0);
        EXPECT_LT(up.indices[k], dim);
        if (k > 0) {
          EXPECT_LT(up.indices[k - 1], up.indices[k]);  // sorted+unique
        }
      }
    }
    auto again = generate_sparse_update_partition(dim, density, 2, 8, 3, 42);
    for (std::size_t u = 0; u < ups.size(); ++u) {
      EXPECT_EQ(again[u].indices, ups[u].indices);
      EXPECT_EQ(again[u].deltas, ups[u].deltas);
    }
  }
}

TEST(Generators, SparseUpdateBandsAreDisjointAtLowDensity) {
  // At low density each partition's support stays inside its band, so
  // summing across partitions fills support in gradually — the fill-in the
  // sparse ring's crossover measurement depends on.
  const std::int64_t dim = 8000;
  const int bands = 8;
  auto p0 = generate_sparse_update_partition(dim, 0.01, 0, bands, 1, 7);
  auto p1 = generate_sparse_update_partition(dim, 0.01, 1, bands, 1, 7);
  const std::int64_t band_w = dim / bands;
  for (auto i : p0[0].indices) EXPECT_LT(i, band_w);
  for (auto i : p1[0].indices) {
    EXPECT_GE(i, band_w);
    EXPECT_LT(i, 2 * band_w);
  }
}

}  // namespace
}  // namespace sparker::data
