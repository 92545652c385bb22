// Tests for the extension surface: RDD transformations, broadcast (the
// collective and the engine's torrent path), ML evaluation metrics, and
// the driver memory model that reproduces the paper's LR-K12 OOM note.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "comm/collectives.hpp"
#include "comm/communicator.hpp"
#include "data/presets.hpp"
#include "engine/broadcast.hpp"
#include "engine/cluster.hpp"
#include "engine/transform.hpp"
#include "ml/metrics.hpp"
#include "ml/train.hpp"
#include "ml/workload.hpp"
#include "net/cluster.hpp"
#include "sim/simulator.hpp"

namespace sparker {
namespace {

using engine::CachedRdd;
using sim::Simulator;
using sim::Task;

// ---------------------------------------------------------------------------
// RDD transformations.
// ---------------------------------------------------------------------------

CachedRdd<int> make_ints(int parts, int execs, int rows) {
  return CachedRdd<int>(parts, execs, [rows](int pid) {
    std::vector<int> v(static_cast<std::size_t>(rows));
    for (int i = 0; i < rows; ++i) {
      v[static_cast<std::size_t>(i)] = pid * 100 + i;
    }
    return v;
  });
}

TEST(Transform, MapAppliesAndInheritsAffinity) {
  auto parent = make_ints(6, 4, 5);
  auto mapped = engine::map_rdd<int, long>(
      parent, [](const int& x) { return static_cast<long>(x) * 2; });
  ASSERT_EQ(mapped->num_partitions(), 6);
  for (int p = 0; p < 6; ++p) {
    EXPECT_EQ(mapped->preferred_executor(p), parent.preferred_executor(p));
    const auto& in = parent.partition(p);
    const auto& out = mapped->partition(p);
    ASSERT_EQ(in.size(), out.size());
    for (std::size_t i = 0; i < in.size(); ++i) {
      EXPECT_EQ(out[i], 2L * in[i]);
    }
  }
}

TEST(Transform, FilterKeepsMatching) {
  auto parent = make_ints(4, 2, 10);
  auto even = engine::filter_rdd<int>(parent,
                                      [](const int& x) { return x % 2 == 0; });
  std::size_t total = 0;
  for (int p = 0; p < 4; ++p) {
    for (int x : even->partition(p)) {
      EXPECT_EQ(x % 2, 0);
      ++total;
    }
  }
  EXPECT_EQ(total, 20u);  // half of 40
}

TEST(Transform, UnionConcatenatesPartitions) {
  auto a = make_ints(3, 2, 4);
  auto b = make_ints(2, 2, 4);
  auto u = engine::union_rdd(a, b);
  EXPECT_EQ(u->num_partitions(), 5);
  EXPECT_EQ(u->count(), 20u);
  EXPECT_EQ(u->partition(0), a.partition(0));
  EXPECT_EQ(u->partition(3), b.partition(0));
}

TEST(Transform, SampleIsDeterministicAndApproximate) {
  auto parent = make_ints(8, 4, 500);
  auto s1 = engine::sample_rdd(parent, 0.3, 99);
  auto s2 = engine::sample_rdd(parent, 0.3, 99);
  std::size_t n1 = s1->count();
  EXPECT_EQ(n1, s2->count());
  for (int p = 0; p < 8; ++p) EXPECT_EQ(s1->partition(p), s2->partition(p));
  // 4000 rows at fraction 0.3: expect ~1200 within 5 sigma.
  EXPECT_NEAR(static_cast<double>(n1), 1200.0, 150.0);
  auto s3 = engine::sample_rdd(parent, 0.3, 100);
  EXPECT_NE(s3->partition(0), s1->partition(0));
}

TEST(Transform, ChainedTransforms) {
  auto parent = make_ints(4, 2, 10);
  auto mapped = engine::map_rdd<int, int>(
      parent, [](const int& x) { return x + 1; });
  auto filtered = engine::filter_rdd<int>(
      *mapped, [](const int& x) { return x % 3 == 0; });
  for (int p = 0; p < 4; ++p) {
    for (int x : filtered->partition(p)) EXPECT_EQ(x % 3, 0);
  }
}

// ---------------------------------------------------------------------------
// Broadcast.
// ---------------------------------------------------------------------------

class BroadcastCorrectness : public ::testing::TestWithParam<int> {};

TEST_P(BroadcastCorrectness, EveryRankReceivesValue) {
  const int n = GetParam();
  Simulator sim;
  net::FabricParams fp;
  fp.gc.enabled = false;
  net::Fabric fabric(sim, fp, n);
  std::vector<int> hosts(static_cast<std::size_t>(n));
  std::iota(hosts.begin(), hosts.end(), 0);
  comm::Communicator c(fabric, hosts, net::LinkParams{}, 1);
  auto payload = std::make_shared<std::string>("model-v7");
  std::vector<std::shared_ptr<const void>> got(static_cast<std::size_t>(n));
  auto body = [&](int rank) -> Task<void> {
    std::shared_ptr<std::string> mine;  // hoisted: no ?: temporary in the
    if (rank == 0) mine = payload;      // co_await expression (GCC 12)
    got[static_cast<std::size_t>(rank)] = co_await comm::binomial_broadcast(
        c, rank, /*root=*/0, mine, 4096);
  };
  sim.run_task(comm::run_all_ranks(c, body));
  // Every rank holds the root's one value, uncopied.
  for (const auto& v : got) EXPECT_EQ(v.get(), payload.get());
}

INSTANTIATE_TEST_SUITE_P(Sweep, BroadcastCorrectness,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 13, 16, 24));

TEST(BroadcastCorrectness, NonZeroRootWorks) {
  const int n = 6;
  Simulator sim;
  net::FabricParams fp;
  fp.gc.enabled = false;
  net::Fabric fabric(sim, fp, n);
  std::vector<int> hosts(static_cast<std::size_t>(n));
  std::iota(hosts.begin(), hosts.end(), 0);
  comm::Communicator c(fabric, hosts, net::LinkParams{}, 1);
  const int root = 4;
  auto payload = std::make_shared<int>(1234);
  int sum = 0;
  auto body = [&](int rank) -> Task<void> {
    std::shared_ptr<int> mine;
    if (rank == root) mine = payload;
    const std::shared_ptr<const void> v =
        co_await comm::binomial_broadcast(c, rank, root, mine, 64);
    sum += *static_cast<const int*>(v.get());
  };
  sim.run_task(comm::run_all_ranks(c, body));
  EXPECT_EQ(sum, 1234 * n);
}

TEST(EngineBroadcast, StoresOnEveryExecutorAndScalesWithBytes) {
  Simulator sim;
  net::ClusterSpec spec = net::ClusterSpec::bic(2);
  spec.fabric.gc.enabled = false;
  engine::Cluster cl(sim, spec);
  auto value = std::make_shared<std::vector<double>>(16, 1.5);
  constexpr std::int64_t kKey = 4242;
  auto job = [&]() -> Task<void> {
    co_await engine::broadcast_value(cl, value, 8ull << 20, kKey);
  };
  sim.run_task(job());
  const sim::Time small_t = sim.now();
  for (int e = 0; e < cl.num_executors(); ++e) {
    auto& obj = cl.executor(e).mutable_object(kKey, sim);
    ASSERT_TRUE(obj.value);
    EXPECT_EQ(std::static_pointer_cast<std::vector<double>>(obj.value)->at(3),
              1.5);
  }
  // A 16x larger blob takes notably longer (but not 16x log-depth: the
  // relay is block-pipelined).
  auto job2 = [&]() -> Task<void> {
    co_await engine::broadcast_value(cl, value, 128ull << 20, kKey);
  };
  sim.run_task(job2());
  const sim::Time big_t = sim.now() - small_t;
  EXPECT_GT(big_t, small_t * 4);
}

// A broadcast value that counts its copies (moves are free).
struct CopyCounted {
  static inline int copies = 0;
  int v = 0;

  CopyCounted() = default;
  explicit CopyCounted(int x) : v(x) {}
  CopyCounted(const CopyCounted& o) : v(o.v) { ++copies; }
  CopyCounted(CopyCounted&&) = default;
  CopyCounted& operator=(const CopyCounted& o) {
    v = o.v;
    ++copies;
    return *this;
  }
  CopyCounted& operator=(CopyCounted&&) = default;
};

TEST(EngineBroadcast, CopiesOncePerStoringExecutorNeverPerBlock) {
  // The relay shares one value across ranks and blocks; only storing it
  // copies, once per executor, so every executor owns its own replica.
  Simulator sim;
  net::ClusterSpec spec = net::ClusterSpec::bic(2);
  spec.fabric.gc.enabled = false;
  engine::Cluster cl(sim, spec);
  auto value = std::make_shared<CopyCounted>(7);
  constexpr std::int64_t kKey = 77;
  auto job = [&](std::int64_t key) -> Task<void> {
    // 32 MB travels as eight 4 MB relay blocks.
    co_await engine::broadcast_value(cl, value, 32ull << 20, key);
  };
  CopyCounted::copies = 0;
  sim.run_task(job(-1));
  EXPECT_EQ(CopyCounted::copies, 0);
  sim.run_task(job(kKey));
  EXPECT_EQ(CopyCounted::copies, cl.num_executors());
  std::vector<const void*> replicas;
  for (int e = 0; e < cl.num_executors(); ++e) {
    auto& obj = cl.executor(e).mutable_object(kKey, sim);
    ASSERT_TRUE(obj.value);
    EXPECT_EQ(std::static_pointer_cast<CopyCounted>(obj.value)->v, 7);
    replicas.push_back(obj.value.get());
  }
  replicas.push_back(value.get());
  std::sort(replicas.begin(), replicas.end());
  EXPECT_EQ(std::unique(replicas.begin(), replicas.end()), replicas.end());
}

TEST(EngineBroadcast, EachJoinerOwnsItsCopyOfAKeyedBroadcast) {
  // Executors 4 and 5 join after a keyed broadcast. Join warm-up gives each
  // its own replica, as the relay gave every executor it reached, so a
  // write to one joiner's replica reaches no other copy.
  Simulator sim;
  net::ClusterSpec spec = net::ClusterSpec::bic(1);  // 6 executors
  spec.fabric.gc.enabled = false;
  engine::EngineConfig cfg;
  cfg.membership.join(sim::seconds(10), 4).join(sim::seconds(10), 5);
  engine::Cluster cl(sim, spec, cfg);
  auto value = std::make_shared<CopyCounted>(7);
  constexpr std::int64_t kKey = 77;
  auto job = [&]() -> Task<void> {
    co_await engine::broadcast_value(cl, value, 1ull << 20, kKey);
    co_await sim.sleep_until(sim::seconds(11));
    co_await cl.sync_membership(/*complete_drains=*/true);
  };
  sim.run_task(job());
  const auto replica = [&](int e) {
    return std::static_pointer_cast<CopyCounted>(
        cl.executor(e).mutable_object(kKey, sim).value);
  };
  ASSERT_TRUE(cl.membership().active(4));
  ASSERT_TRUE(cl.membership().active(5));
  ASSERT_TRUE(replica(5));
  replica(5)->v = -1;
  EXPECT_EQ(value->v, 7);
  EXPECT_EQ(replica(0)->v, 7);
  EXPECT_EQ(replica(4)->v, 7);
}

TEST(EngineBroadcast, RingReformingMidRelayStoresOnTheBroadcastsOwnRanks) {
  // Executor 0 (node000, the first in ring order) is quarantined when a
  // keyed broadcast starts, so the broadcast's ring leaves it out. The
  // quarantine lapses while blocks are still in flight, so the ring
  // re-forms with executor 0 back at rank 0. Every rank must still store its
  // copy on the executor that held it when the broadcast started.
  Simulator sim;
  net::ClusterSpec spec = net::ClusterSpec::bic(2);  // 12 executors
  spec.fabric.gc.enabled = false;
  engine::EngineConfig cfg;
  cfg.health.quarantine = true;
  cfg.health.quarantine_max_failures = 1;
  cfg.health.quarantine_duration = sim::milliseconds(150);
  engine::Cluster cl(sim, spec, cfg);
  auto value = std::make_shared<CopyCounted>(7);
  constexpr std::int64_t kKey = 78;
  sim::Time end = 0;
  auto job = [&]() -> Task<void> {
    cl.health().record_failure(0);
    // 256 MB travels as 64 pipelined 4 MB relay blocks.
    co_await engine::broadcast_value(cl, value, 256ull << 20, kKey);
    end = sim.now();
  };
  CopyCounted::copies = 0;
  ASSERT_NO_THROW(sim.run_task(job()));
  ASSERT_GT(end, cfg.health.quarantine_duration)
      << "the quarantine must lapse while the broadcast is in flight";
  EXPECT_TRUE(cl.health().usable(0));
  EXPECT_EQ(cl.ring().view().exec_rank[0], 0) << "the ring re-formed";

  EXPECT_FALSE(cl.executor(0).mutable_object(kKey, sim).value)
      << "executor 0 received no blocks, so it stores no copy";
  EXPECT_EQ(CopyCounted::copies, cl.num_executors() - 1);
  std::vector<const void*> replicas{value.get()};
  for (int e = 1; e < cl.num_executors(); ++e) {
    auto& obj = cl.executor(e).mutable_object(kKey, sim);
    ASSERT_TRUE(obj.value) << "executor " << e;
    EXPECT_EQ(std::static_pointer_cast<CopyCounted>(obj.value)->v, 7);
    replicas.push_back(obj.value.get());
  }
  std::sort(replicas.begin(), replicas.end());
  EXPECT_EQ(std::unique(replicas.begin(), replicas.end()), replicas.end());
}

// ---------------------------------------------------------------------------
// Metrics.
// ---------------------------------------------------------------------------

CachedRdd<ml::LabeledPoint> tiny_points() {
  // 1D points: margins = w*x with w = {1}: x>0 predicted positive.
  return CachedRdd<ml::LabeledPoint>(1, 1, [](int) {
    auto mk = [](double x, double label) {
      ml::LabeledPoint p;
      p.label = label;
      p.features.dim = 1;
      p.features.indices = {0};
      p.features.values = {x};
      return p;
    };
    // 3 true positives, 1 false positive, 1 false negative, 3 true negs.
    return std::vector<ml::LabeledPoint>{
        mk(2.0, 1), mk(1.0, 1), mk(0.5, 1), mk(0.25, 0),
        mk(-0.5, 1), mk(-1.0, 0), mk(-2.0, 0), mk(-3.0, 0)};
  });
}

TEST(Metrics, ConfusionCounts) {
  auto rdd = tiny_points();
  const ml::DenseVector w{1.0};
  const auto m = ml::evaluate_binary(w, rdd);
  EXPECT_EQ(m.positives, 4);
  EXPECT_EQ(m.negatives, 4);
  EXPECT_DOUBLE_EQ(m.accuracy, 6.0 / 8.0);
  EXPECT_DOUBLE_EQ(m.precision, 3.0 / 4.0);
  EXPECT_DOUBLE_EQ(m.recall, 3.0 / 4.0);
  EXPECT_DOUBLE_EQ(m.f1, 0.75);
}

TEST(Metrics, AucPerfectAndRandom) {
  // Perfectly separated scores -> AUC 1.
  auto rdd = CachedRdd<ml::LabeledPoint>(1, 1, [](int) {
    std::vector<ml::LabeledPoint> v;
    for (int i = 0; i < 10; ++i) {
      ml::LabeledPoint p;
      p.label = i < 5 ? 0.0 : 1.0;
      p.features.dim = 1;
      p.features.indices = {0};
      p.features.values = {static_cast<double>(i)};
      v.push_back(p);
    }
    return v;
  });
  const ml::DenseVector w{1.0};
  EXPECT_DOUBLE_EQ(ml::evaluate_binary(w, rdd).auc, 1.0);
  // Inverted weights -> AUC 0.
  const ml::DenseVector winv{-1.0};
  EXPECT_DOUBLE_EQ(ml::evaluate_binary(winv, rdd).auc, 0.0);
  // Zero weights: all scores tie -> AUC 0.5.
  const ml::DenseVector wz{0.0};
  EXPECT_DOUBLE_EQ(ml::evaluate_binary(wz, rdd).auc, 0.5);
}

TEST(Metrics, TrainedModelHasHighAuc) {
  Simulator sim;
  net::ClusterSpec spec = net::ClusterSpec::bic(2);
  spec.executors_per_node = 2;
  spec.cores_per_executor = 2;
  engine::Cluster cl(sim, spec);
  cl.config().agg_mode = engine::AggMode::kSplit;
  data::DatasetPreset preset = data::avazu();
  preset.real_samples = 1200;
  preset.real_features = 192;
  preset.real_nnz = 10;
  auto rdd = ml::make_classification_rdd(preset, 8, cl.num_executors(), 11);
  rdd->materialize();
  ml::TrainConfig cfg;
  cfg.model = ml::ModelKind::kLogisticRegression;
  cfg.iterations = 20;
  cfg.step_size = 0.5;
  auto job = [&]() -> Task<ml::TrainResult> {
    co_return co_await ml::train_linear(cl, *rdd, preset, cfg);
  };
  const auto r = sim.run_task(job());
  const auto m = ml::evaluate_binary(r.weights, *rdd);
  EXPECT_GT(m.auc, 0.93);
  EXPECT_GT(m.accuracy, 0.85);
  EXPECT_LT(m.log_loss, 0.5);
}

// ---------------------------------------------------------------------------
// Memory model (the paper's LR-K12 note).
// ---------------------------------------------------------------------------

TEST(MemoryModel, LrOnKdd12OomsOnBothClusters) {
  for (const auto& spec :
       {net::ClusterSpec::bic(), net::ClusterSpec::aws()}) {
    Simulator sim;
    engine::Cluster cl(sim, spec);
    data::DatasetPreset preset = data::kdd12();
    preset.real_samples = 64;  // tiny real data; the OOM is modeled
    auto rdd = ml::make_classification_rdd(preset, 8, cl.num_executors(), 1);
    ml::TrainConfig cfg;
    cfg.model = ml::ModelKind::kLogisticRegression;
    cfg.iterations = 1;
    auto job = [&]() -> Task<ml::TrainResult> {
      co_return co_await ml::train_linear(cl, *rdd, preset, cfg);
    };
    EXPECT_THROW(sim.run_task(job()), engine::OomError) << spec.name;
  }
}

TEST(MemoryModel, SvmOnKdd12AndLrOnKdd10Fit) {
  // SVM has no L-BFGS history; kdd10's feature count fits. Both are in
  // the paper's workload set.
  Simulator sim;
  net::ClusterSpec spec = net::ClusterSpec::bic(1);
  engine::Cluster cl(sim, spec);
  data::DatasetPreset k12 = data::kdd12();
  k12.real_samples = 64;
  auto rdd12 = ml::make_classification_rdd(k12, 4, cl.num_executors(), 1);
  ml::TrainConfig svm;
  svm.model = ml::ModelKind::kSvm;
  svm.iterations = 1;
  auto job1 = [&]() -> Task<ml::TrainResult> {
    co_return co_await ml::train_linear(cl, *rdd12, k12, svm);
  };
  EXPECT_NO_THROW((void)sim.run_task(job1()));

  data::DatasetPreset k10 = data::kdd10();
  k10.real_samples = 64;
  auto rdd10 = ml::make_classification_rdd(k10, 4, cl.num_executors(), 1);
  ml::TrainConfig lr;
  lr.model = ml::ModelKind::kLogisticRegression;
  lr.iterations = 1;
  auto job2 = [&]() -> Task<ml::TrainResult> {
    co_return co_await ml::train_linear(cl, *rdd10, k10, lr);
  };
  EXPECT_NO_THROW((void)sim.run_task(job2()));
}

}  // namespace
}  // namespace sparker
