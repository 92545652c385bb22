// Tests for the communicator and the reduction collectives: point-to-point
// semantics, correctness of every collective against a sequential reference
// (parameterized across rank counts and parallelism), topology mapping, and
// timing properties (parallel channels faster, topology-awareness faster).

#include <gtest/gtest.h>

#include <algorithm>
#include <any>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bench_util/vec_sai.hpp"
#include "comm/collectives.hpp"
#include "comm/communicator.hpp"
#include "comm/registry.hpp"
#include "comm/topology.hpp"
#include "net/cluster.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace sparker::comm {
namespace {

using sim::Simulator;
using sim::Task;
using sim::Time;
using Vec = std::vector<std::int64_t>;
using bench::vec_sai::bounds;
using bench::vec_sai::gather;
using bench::vec_sai::seg_ops;

// Test harness: a fabric + communicator with every rank on its own host
// unless a mapping is given.
struct World {
  explicit World(int n, int parallelism = 1,
                 std::vector<int> rank_to_host = {},
                 net::LinkParams link = {}, net::FabricParams fp = {}) {
    if (rank_to_host.empty()) {
      rank_to_host.resize(static_cast<std::size_t>(n));
      std::iota(rank_to_host.begin(), rank_to_host.end(), 0);
    }
    int hosts = 1;
    for (int h : rank_to_host) hosts = std::max(hosts, h + 1);
    fp.gc.enabled = false;
    sim = std::make_unique<Simulator>();
    fabric = std::make_unique<net::Fabric>(*sim, fp, hosts);
    c = std::make_unique<Communicator>(*fabric, std::move(rank_to_host), link,
                                       parallelism);
  }
  std::unique_ptr<Simulator> sim;
  std::unique_ptr<net::Fabric> fabric;
  std::unique_ptr<Communicator> c;
};

// Per-rank values: rank r contributes [r+1, 2(r+1), ..., len*(r+1)] so the
// reduced vector at index i is (i+1) * sum_r(r+1), easy to verify and
// sensitive to duplicated or dropped merges.
Vec make_value(int rank, int len) {
  Vec v(static_cast<std::size_t>(len));
  for (int i = 0; i < len; ++i) {
    v[static_cast<std::size_t>(i)] =
        static_cast<std::int64_t>(i + 1) * (rank + 1);
  }
  return v;
}

Vec expected_sum(int n, int len) {
  std::int64_t ranks = 0;
  for (int r = 0; r < n; ++r) ranks += r + 1;
  Vec v(static_cast<std::size_t>(len));
  for (int i = 0; i < len; ++i) {
    v[static_cast<std::size_t>(i)] = static_cast<std::int64_t>(i + 1) * ranks;
  }
  return v;
}

TEST(Communicator, PointToPointDelivers) {
  World w(2);
  Message m;
  m.tag = 7;
  m.bytes = 1024;
  m.payload = std::make_shared<int>(99);
  w.c->post(0, 1, 0, std::move(m));
  auto recv = [](Communicator& c) -> Task<int> {
    Message in = co_await c.recv(1, 0, 0);
    EXPECT_EQ(in.src, 0);
    EXPECT_EQ(in.tag, 7);
    co_return *std::static_pointer_cast<int>(in.payload);
  };
  EXPECT_EQ(w.sim->run_task(recv(*w.c)), 99);
}

TEST(Communicator, ChannelsAreIndependentStreams) {
  World w(2, /*parallelism=*/2);
  // Big message on channel 0 must not delay a small one on channel 1.
  Message big;
  big.bytes = 64ull << 20;
  w.c->post(0, 1, 0, std::move(big));
  Message small;
  small.bytes = 64;
  w.c->post(0, 1, 1, std::move(small));
  auto recv_small = [](Communicator& c, Simulator& s) -> Task<Time> {
    (void)co_await c.recv(1, 0, 1);
    co_return s.now();
  };
  const Time t = w.sim->run_task(recv_small(*w.c, *w.sim));
  EXPECT_LT(t, sim::milliseconds(1));
}

TEST(Communicator, InvalidRankThrows) {
  World w(2);
  Message m;
  EXPECT_THROW(w.c->post(0, 5, 0, std::move(m)), std::out_of_range);
  EXPECT_THROW(w.c->post(-1, 1, 0, Message{}), std::out_of_range);
}

TEST(Communicator, InvalidChannelThrows) {
  World w(2, 2);
  EXPECT_THROW(w.c->post(0, 1, 2, Message{}), std::out_of_range);
}

TEST(Communicator, PostToDeadRankCreatesNoConnection) {
  // A lost message must not create its path: a connection between hosts
  // schedules its pump when it is created, so the simulator stays idle.
  World w(2);
  w.fabric->faults().kill_node(1);
  Message m;
  m.bytes = 1024;
  w.c->post(0, 1, 0, std::move(m));
  w.c->post(1, 0, 0, Message{});
  EXPECT_TRUE(w.sim->idle());
  EXPECT_EQ(w.sim->run(), 0u);
  EXPECT_EQ(w.c->total_bytes_delivered(), 0u);
  // The same post between live ranks creates the connection and its pump.
  World live(2);
  live.c->post(0, 1, 0, Message{});
  EXPECT_FALSE(live.sim->idle());
}

TEST(Communicator, RingNeighbours) {
  World w(4);
  EXPECT_EQ(w.c->next(3), 0);
  EXPECT_EQ(w.c->prev(0), 3);
  EXPECT_EQ(w.c->next(1), 2);
}

// ---------------------------------------------------------------------------
// Collective correctness, parameterized over (N, P).
// ---------------------------------------------------------------------------

class RingRsCorrectness : public ::testing::TestWithParam<std::pair<int, int>> {
};

TEST_P(RingRsCorrectness, MatchesSequentialReduce) {
  const auto [n, p] = GetParam();
  const int len = 240;  // divisible by many nseg values but not all
  World w(n, p);
  std::vector<Vec> locals;
  for (int r = 0; r < n; ++r) locals.push_back(make_value(r, len));
  const Vec want = expected_sum(n, len);

  std::vector<std::vector<Seg>> got(static_cast<std::size_t>(n));
  auto body = [&](int rank) -> Task<void> {
    auto ops = seg_ops(locals[static_cast<std::size_t>(rank)]);
    got[static_cast<std::size_t>(rank)] =
        co_await ring_reduce_scatter(*w.c, rank, ops);
  };
  w.sim->run_task(run_all_ranks(*w.c, body));

  // Each rank owns P segments; together they are the reduced vector.
  for (const auto& segs : got) {
    ASSERT_EQ(segs.size(), static_cast<std::size_t>(p));
  }
  EXPECT_EQ(gather(got), want);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RingRsCorrectness,
    ::testing::Values(std::pair{1, 1}, std::pair{2, 1}, std::pair{3, 1},
                      std::pair{4, 2}, std::pair{5, 3}, std::pair{6, 4},
                      std::pair{7, 2}, std::pair{8, 4}, std::pair{12, 4},
                      std::pair{16, 8}, std::pair{17, 3}));

// A segment that counts its live instances.
struct CountedSeg {
  static inline int live = 0;
  static inline int peak = 0;
  Vec v;

  CountedSeg() { born(); }
  explicit CountedSeg(Vec x) : v(std::move(x)) { born(); }
  CountedSeg(const CountedSeg& o) : v(o.v) { born(); }
  CountedSeg(CountedSeg&& o) noexcept : v(std::move(o.v)) { born(); }
  CountedSeg& operator=(const CountedSeg&) = default;
  CountedSeg& operator=(CountedSeg&&) = default;
  ~CountedSeg() { --live; }

  static void born() { peak = std::max(peak, ++live); }
};

TEST(RingReduceScatter, SplitsEachSegmentOnceOnDemand) {
  // The ring splits a local segment when it first sends or reduces into
  // it, so a rank holds O(channels) segments at a time, not O(N) per
  // channel, and still splits each of its P*N segments exactly once.
  const int n = 16;
  const int p = 2;
  const int len = n * p * 3;
  World w(n, p);
  std::vector<Vec> locals;
  for (int r = 0; r < n; ++r) locals.push_back(make_value(r, len));
  std::vector<std::vector<int>> splits(static_cast<std::size_t>(n),
                                       std::vector<int>(n * p, 0));
  std::vector<std::vector<Seg>> got(static_cast<std::size_t>(n));
  CountedSeg::peak = CountedSeg::live;
  const int baseline = CountedSeg::live;
  auto body = [&](int rank) -> Task<void> {
    SegOps ops;
    ops.split = [&, rank](int seg, int nseg) {
      ++splits[static_cast<std::size_t>(rank)][static_cast<std::size_t>(seg)];
      const Vec& local = locals[static_cast<std::size_t>(rank)];
      auto [lo, hi] = bounds(len, seg, nseg);
      return std::any(CountedSeg(Vec(local.begin() + lo, local.begin() + hi)));
    };
    ops.reduce_into = [](std::any& dst, const std::any& src) {
      Vec& d = std::any_cast<CountedSeg&>(dst).v;
      const Vec& s = std::any_cast<const CountedSeg&>(src).v;
      for (std::size_t i = 0; i < d.size(); ++i) d[i] += s[i];
    };
    ops.bytes = [](const std::any& s) {
      return std::any_cast<const CountedSeg&>(s).v.size() *
             sizeof(std::int64_t);
    };
    got[static_cast<std::size_t>(rank)] =
        co_await ring_reduce_scatter(*w.c, rank, ops);
  };
  w.sim->run_task(run_all_ranks(*w.c, body));

  for (const auto& per_rank : splits) {
    EXPECT_EQ(per_rank, std::vector<int>(static_cast<std::size_t>(n * p), 1));
  }
  // Per rank and channel: the segment being reduced into, the one in
  // flight to the successor, and a moved-from shell while a send or the
  // final hand-off is under way. Splitting up front held N per channel.
  EXPECT_LE(CountedSeg::peak - baseline, n * p * 3);
  const Vec want = expected_sum(n, len);
  for (int r = 0; r < n; ++r) {
    ASSERT_EQ(got[static_cast<std::size_t>(r)].size(),
              static_cast<std::size_t>(p));
    for (const auto& [seg, s] : got[static_cast<std::size_t>(r)]) {
      auto [lo, hi] = bounds(len, seg, p * n);
      EXPECT_EQ(std::any_cast<const CountedSeg&>(s).v,
                Vec(want.begin() + lo, want.begin() + hi));
    }
  }
  got.clear();
  EXPECT_EQ(CountedSeg::live, baseline);
}

// The one-segment-per-rank layouts (halving, pairwise): rank i owns
// segment i of the reduced vector.
void expect_rank_i_owns_segment_i(const std::vector<std::vector<Seg>>& got,
                                  const Vec& want) {
  for (std::size_t r = 0; r < got.size(); ++r) {
    ASSERT_EQ(got[r].size(), 1u) << "rank " << r;
    EXPECT_EQ(got[r][0].first, static_cast<int>(r));
  }
  EXPECT_EQ(gather(got), want);
}

class HalvingRsCorrectness : public ::testing::TestWithParam<int> {};

TEST_P(HalvingRsCorrectness, MatchesSequentialReduce) {
  const int n = GetParam();
  const int len = 240;
  World w(n, 1);
  std::vector<Vec> locals;
  for (int r = 0; r < n; ++r) locals.push_back(make_value(r, len));
  const Vec want = expected_sum(n, len);

  std::vector<std::vector<Seg>> got(static_cast<std::size_t>(n));
  auto body = [&](int rank) -> Task<void> {
    auto ops = seg_ops(locals[static_cast<std::size_t>(rank)]);
    auto seg = co_await halving_reduce_scatter(*w.c, rank, ops);
    if (seg) got[static_cast<std::size_t>(rank)].push_back(std::move(*seg));
  };
  w.sim->run_task(run_all_ranks(*w.c, body));
  expect_rank_i_owns_segment_i(got, want);
}

INSTANTIATE_TEST_SUITE_P(Sweep, HalvingRsCorrectness,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 13,
                                           16, 17, 24, 48));

class PairwiseRsCorrectness : public ::testing::TestWithParam<int> {};

TEST_P(PairwiseRsCorrectness, MatchesSequentialReduce) {
  const int n = GetParam();
  const int len = 240;
  World w(n, 1);
  std::vector<Vec> locals;
  for (int r = 0; r < n; ++r) locals.push_back(make_value(r, len));
  const Vec want = expected_sum(n, len);

  std::vector<std::vector<Seg>> got(static_cast<std::size_t>(n));
  auto body = [&](int rank) -> Task<void> {
    auto ops = seg_ops(locals[static_cast<std::size_t>(rank)]);
    got[static_cast<std::size_t>(rank)].push_back(
        co_await pairwise_reduce_scatter(*w.c, rank, ops));
  };
  w.sim->run_task(run_all_ranks(*w.c, body));
  expect_rank_i_owns_segment_i(got, want);
}

INSTANTIATE_TEST_SUITE_P(Sweep, PairwiseRsCorrectness,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 16, 24));

class TreeReduceCorrectness : public ::testing::TestWithParam<int> {};

TEST_P(TreeReduceCorrectness, RootGetsSum) {
  const int n = GetParam();
  const int len = 64;
  World w(n, 1);
  std::vector<Vec> locals;
  for (int r = 0; r < n; ++r) locals.push_back(make_value(r, len));

  std::vector<std::optional<std::any>> got(static_cast<std::size_t>(n));
  auto body = [&](int rank) -> Task<void> {
    auto ops = seg_ops(locals[static_cast<std::size_t>(rank)]);
    got[static_cast<std::size_t>(rank)] = co_await binomial_reduce(
        *w.c, rank, Vec(locals[static_cast<std::size_t>(rank)]), ops);
  };
  w.sim->run_task(run_all_ranks(*w.c, body));

  for (int r = 0; r < n; ++r) {
    if (r == 0) {
      ASSERT_TRUE(got[0].has_value());
      EXPECT_EQ(std::any_cast<const Vec&>(*got[0]), expected_sum(n, len));
    } else {
      EXPECT_FALSE(got[static_cast<std::size_t>(r)].has_value());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, TreeReduceCorrectness,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 11, 16, 48));

class AllreduceCorrectness
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(AllreduceCorrectness, EveryRankGetsFullSum) {
  const auto [n, p] = GetParam();
  const int len = 120;
  World w(n, p);
  std::vector<Vec> locals;
  for (int r = 0; r < n; ++r) locals.push_back(make_value(r, len));
  const Vec want = expected_sum(n, len);

  std::vector<Vec> got(static_cast<std::size_t>(n));
  auto body = [&](int rank) -> Task<void> {
    auto ops = seg_ops(locals[static_cast<std::size_t>(rank)]);
    got[static_cast<std::size_t>(rank)] = std::any_cast<Vec>(
        co_await allreduce(AlgoId::kRabenseifner, *w.c, rank, ops));
  };
  w.sim->run_task(run_all_ranks(*w.c, body));
  for (int r = 0; r < n; ++r) {
    EXPECT_EQ(got[static_cast<std::size_t>(r)], want) << "rank " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, AllreduceCorrectness,
                         ::testing::Values(std::pair{1, 1}, std::pair{2, 2},
                                           std::pair{3, 1}, std::pair{5, 2},
                                           std::pair{8, 4}, std::pair{12, 3}));

// ---------------------------------------------------------------------------
// Timing properties.
// ---------------------------------------------------------------------------

Time time_ring_rs(int n, int p, const std::vector<int>& rank_to_host,
                  std::uint64_t modeled_bytes) {
  net::ClusterSpec spec = net::ClusterSpec::bic();
  net::FabricParams fp = spec.fabric;
  fp.gc.enabled = false;
  World w(n, p, rank_to_host, spec.sc_link, fp);
  const int len = 256;  // real elements, scaled
  std::vector<Vec> locals;
  for (int r = 0; r < n; ++r) locals.push_back(make_value(r, len));
  const double scale =
      static_cast<double>(modeled_bytes) / (len * sizeof(std::int64_t));
  auto body = [&](int rank) -> Task<void> {
    auto ops = seg_ops(locals[static_cast<std::size_t>(rank)], scale);
    (void)co_await ring_reduce_scatter(*w.c, rank, ops);
  };
  w.sim->run_task(run_all_ranks(*w.c, body));
  return w.sim->now();
}

TEST(CollectiveTiming, MoreParallelChannelsAreFasterForLargeMessages) {
  // 12 executors on 2 hosts, 64 MB aggregators.
  auto execs = enumerate_executors(2, 6);
  auto hostmap = rank_map_by_hostname(execs);
  const Time t1 = time_ring_rs(12, 1, hostmap, 64ull << 20);
  const Time t4 = time_ring_rs(12, 4, hostmap, 64ull << 20);
  EXPECT_LT(t4, t1);
  EXPECT_GT(static_cast<double>(t1) / static_cast<double>(t4), 2.0);
}

TEST(CollectiveTiming, TopologyAwareOrderingIsFaster) {
  auto execs = enumerate_executors(4, 6);
  auto aware = rank_map_by_hostname(execs);
  auto naive = rank_map_by_executor_id(execs);
  const Time t_aware = time_ring_rs(24, 4, aware, 64ull << 20);
  const Time t_naive = time_ring_rs(24, 4, naive, 64ull << 20);
  EXPECT_LT(t_aware, t_naive);
  EXPECT_GT(static_cast<double>(t_naive) / static_cast<double>(t_aware), 1.5);
}

TEST(CollectiveTiming, RingBeatsTreeForLargeMessages) {
  // The motivating comparison: ring reduce-scatter vs binomial tree on
  // whole aggregators, 8 executors on 8 hosts, 64 MB.
  net::ClusterSpec spec = net::ClusterSpec::bic();
  net::FabricParams fp = spec.fabric;
  fp.gc.enabled = false;
  const int n = 8;
  const int len = 256;
  const double scale =
      static_cast<double>(64ull << 20) / (len * sizeof(std::int64_t));

  auto run = [&](bool ring) {
    World w(n, ring ? 4 : 1, {}, spec.sc_link, fp);
    std::vector<Vec> locals;
    for (int r = 0; r < n; ++r) locals.push_back(make_value(r, len));
    auto body = [&](int rank) -> Task<void> {
      auto ops = seg_ops(locals[static_cast<std::size_t>(rank)], scale);
      if (ring) {
        (void)co_await ring_reduce_scatter(*w.c, rank, ops);
      } else {
        (void)co_await binomial_reduce(
            *w.c, rank, Vec(locals[static_cast<std::size_t>(rank)]), ops);
      }
    };
    w.sim->run_task(run_all_ranks(*w.c, body));
    return w.sim->now();
  };
  const Time t_ring = run(true);
  const Time t_tree = run(false);
  EXPECT_LT(t_ring, t_tree);
  EXPECT_GT(static_cast<double>(t_tree) / static_cast<double>(t_ring), 2.0);
}

// ---------------------------------------------------------------------------
// Topology helpers.
// ---------------------------------------------------------------------------

TEST(Topology, EnumerationInterleavesHosts) {
  auto execs = enumerate_executors(3, 2);
  ASSERT_EQ(execs.size(), 6u);
  EXPECT_EQ(execs[0].host, 0);
  EXPECT_EQ(execs[1].host, 1);
  EXPECT_EQ(execs[2].host, 2);
  EXPECT_EQ(execs[3].host, 0);
}

TEST(Topology, HostnameSortGroupsNodes) {
  auto execs = enumerate_executors(4, 6);
  auto aware = rank_map_by_hostname(execs);
  auto naive = rank_map_by_executor_id(execs);
  EXPECT_EQ(count_inter_host_ring_edges(aware), 4);
  EXPECT_EQ(count_inter_host_ring_edges(naive), 24);
}

TEST(Topology, SingleHostHasNoCrossings) {
  auto execs = enumerate_executors(1, 6);
  EXPECT_EQ(count_inter_host_ring_edges(rank_map_by_hostname(execs)), 0);
}

// ---------------------------------------------------------------------------
// Collective registry: dispatch, edge-case shapes, cross-algorithm
// bit-identity.
// ---------------------------------------------------------------------------

// Runs the registry's reduce-scatter under `algo` and reassembles the
// scattered segments into one vector (whatever segment layout the
// algorithm produces). `end` receives the final simulated time.
Vec registry_rs(AlgoId algo, int n, int p, int len, Time& end) {
  World w(n, p);
  std::vector<Vec> locals;
  for (int r = 0; r < n; ++r) locals.push_back(make_value(r, len));
  std::vector<std::vector<Seg>> got(static_cast<std::size_t>(n));
  auto body = [&](int rank) -> Task<void> {
    auto ops = seg_ops(locals[static_cast<std::size_t>(rank)]);
    got[static_cast<std::size_t>(rank)] =
        co_await reduce_scatter(algo, *w.c, rank, ops);
  };
  w.sim->run_task(run_all_ranks(*w.c, body));
  end = w.sim->now();
  // Segment counts differ per algorithm (P*N for ring, N for halving /
  // pairwise, 1 for the funnel); gather takes whatever came back.
  return gather(got);
}

// Runs the registry's allreduce under `algo`; every rank must return the
// identical full vector, which the test hands back. `end` receives the
// final simulated time.
Vec registry_ar(AlgoId algo, int n, int p, int len, Time& end) {
  World w(n, p);
  std::vector<Vec> locals;
  for (int r = 0; r < n; ++r) locals.push_back(make_value(r, len));
  std::vector<Vec> got(static_cast<std::size_t>(n));
  auto body = [&](int rank) -> Task<void> {
    auto ops = seg_ops(locals[static_cast<std::size_t>(rank)]);
    got[static_cast<std::size_t>(rank)] =
        std::any_cast<Vec>(co_await allreduce(algo, *w.c, rank, ops));
  };
  w.sim->run_task(run_all_ranks(*w.c, body));
  end = w.sim->now();
  for (int r = 1; r < n; ++r) {
    EXPECT_EQ(got[static_cast<std::size_t>(r)], got[0]) << "rank " << r;
  }
  return got[0];
}

class RegistryBitIdentity
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

// Final simulated time (ns) of every registered (op, algorithm) run per
// shape: reduce-scatter then allreduce, each in registered_algos order.
// Pinned from the implementation that dispatched through per-algorithm
// function maps, so a drift means the table-derived dispatch moved a
// schedule. No bench runs the non-ring allreduces, so this is their only
// timing check.
const std::map<std::tuple<int, int, int>, std::vector<Time>> kPinnedEndNs = {
    {{3, 2, 240},
     {145350, 149400, 146160, 76860, 145350, 295560, 292320, 290700, 153720,
      290700}},
    {{7, 4, 240},
     {432894, 294490, 434790, 83340, 432894, 729488, 869622, 865788, 235440,
      865788}},
    {{13, 1, 240},
     {867072, 366976, 867016, 93060, 867072, 1234078, 1734074, 1734144,
      320400, 1734144}},
    {{6, 4, 1},
     {360060, 216030, 360024, 72036, 360060, 576048, 720084, 720120, 216066,
      720120}},
    {{9, 8, 5},
     {576096, 288099, 576072, 72297, 576096, 864171, 1152168, 1152192,
      288528, 1152192}},
    {{17, 3, 16},
     {1152192, 360416, 1152192, 73836, 1152192, 1512608, 2304384, 2304384,
      362808, 2304384}},
    {{5, 8, 3},
     {288048, 216058, 288036, 72100, 288048, 504106, 576084, 576096, 216200,
      576096}},
    {{1, 4, 16}, {0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    {{2, 1, 1},
     {72012, 72012, 72012, 72012, 72012, 144024, 144024, 144024, 144024,
      144024}},
};

TEST_P(RegistryBitIdentity, AllAlgorithmsMatchSequentialReference) {
  const auto [n, p, len] = GetParam();
  const Vec want = expected_sum(n, len);
  std::vector<Time> ends;
  for (AlgoId a : registered_algos(CollectiveOp::kReduceScatter)) {
    EXPECT_EQ(registry_rs(a, n, p, len, ends.emplace_back()), want)
        << "rs " << to_string(a);
  }
  for (AlgoId a : registered_algos(CollectiveOp::kAllreduce)) {
    EXPECT_EQ(registry_ar(a, n, p, len, ends.emplace_back()), want)
        << "ar " << to_string(a);
  }
  EXPECT_EQ(ends, kPinnedEndNs.at(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    EdgeShapes, RegistryBitIdentity,
    ::testing::Values(
        // Non-power-of-two rank counts (halving's pre-fold path).
        std::tuple{3, 2, 240}, std::tuple{7, 4, 240}, std::tuple{13, 1, 240},
        // 0- and 1-element segments: len < nseg forces empties everywhere.
        std::tuple{6, 4, 1}, std::tuple{9, 8, 5}, std::tuple{17, 3, 16},
        // P far above the useful segment count, and the trivial worlds.
        std::tuple{5, 8, 3}, std::tuple{1, 4, 16}, std::tuple{2, 1, 1}));

TEST(Registry, UnregisteredAlgoThrows) {
  World w(2, 1);
  Vec local = make_value(0, 8);
  auto body = [&](int rank) -> Task<void> {
    auto ops = seg_ops(local);
    (void)co_await reduce_scatter(AlgoId::kAuto, *w.c, rank,
                                  ops);  // kAuto must be resolved upstream
  };
  EXPECT_THROW(w.sim->run_task(run_all_ranks(*w.c, body)),
               std::invalid_argument);
}

TEST(Registry, NamesRoundTrip) {
  // Every table row parses back to its id, and algo_names() lists each
  // name exactly once.
  const std::string names = "|" + algo_names() + "|";
  EXPECT_EQ(std::count(names.begin(), names.end(), '|'),
            static_cast<std::ptrdiff_t>(std::size(kAlgoTable) + 1))
      << names;
  for (const AlgoRow& row : kAlgoTable) {
    EXPECT_STREQ(to_string(row.id), row.name);
    const auto parsed = parse_algo(row.name);
    ASSERT_TRUE(parsed.has_value()) << row.name;
    EXPECT_EQ(*parsed, row.id);
    const std::string entry = std::string("|") + row.name + "|";
    const auto at = names.find(entry);
    EXPECT_NE(at, std::string::npos) << row.name;
    EXPECT_EQ(names.find(entry, at + 1), std::string::npos) << row.name;
  }
  EXPECT_FALSE(parse_algo("quux").has_value());
  EXPECT_FALSE(parse_algo("").has_value());
}

TEST(Registry, CanonicalAliasingCrossRegistersRingFamily) {
  // kRing names the reduce-scatter phase, kRabenseifner the allreduce
  // composition; requesting either for the other op resolves to its alias.
  CollectiveCostInputs in;
  in.bytes = 1 << 20;
  in.n = 8;
  EXPECT_EQ(resolve_algo(CollectiveOp::kAllreduce, AlgoId::kRing, in),
            AlgoId::kRabenseifner);
  EXPECT_EQ(resolve_algo(CollectiveOp::kReduceScatter, AlgoId::kRabenseifner,
                         in),
            AlgoId::kRing);
  // kAuto resolves to something registered for the op.
  for (CollectiveOp op :
       {CollectiveOp::kReduceScatter, CollectiveOp::kAllreduce}) {
    const AlgoId pick = resolve_algo(op, AlgoId::kAuto, in);
    bool found = false;
    for (AlgoId a : registered_algos(op)) found = found || a == pick;
    EXPECT_TRUE(found) << to_string(op);
  }
}

}  // namespace
}  // namespace sparker::comm
