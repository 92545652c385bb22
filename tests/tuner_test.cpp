// Golden tests for the collective cost-model auto-tuner: across the grids
// the paper measures (fig14: channel parallelism sweep; fig15: executor
// scaling at 256 KB / 256 MB; fig16: aggregation scaling 1..8 nodes), the
// tuner's pick must be the measured-best registered algorithm — or within
// 5% of it — on at least 90% of grid points, and `algo=auto` split
// aggregation must never be meaningfully slower (geomean <= 1.05x) than
// the hardcoded ring on the fig16 grid.
//
// These run full simulations per (point, algorithm), so the grids are the
// benches' grids verbatim, not enlarged.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "bench_util/runners.hpp"
#include "comm/registry.hpp"
#include "net/cluster.hpp"

namespace sparker {
namespace {

struct GridPoint {
  int executors;
  int parallelism;
  std::uint64_t bytes;
};

// Times every registered reduce-scatter algorithm at `pt` and checks the
// tuner's pick against the measured best. Returns true on a match (same
// algorithm, or within `tol` of its time).
bool tuner_matches(const net::ClusterSpec& spec, const GridPoint& pt,
                   double tol) {
  bench::RsOptions opt;
  opt.executors = pt.executors;
  opt.parallelism = pt.parallelism;
  opt.message_bytes = pt.bytes;
  const comm::AlgoId pick = bench::rs_tuner_pick(spec, opt);
  comm::AlgoId best = pick;
  double best_s = 1e300, pick_s = 0;
  for (comm::AlgoId a :
       comm::registered_algos(comm::CollectiveOp::kReduceScatter)) {
    opt.algo = a;
    const double s = bench::reduce_scatter_seconds(spec, opt);
    if (a == pick) pick_s = s;
    if (s < best_s) {
      best_s = s;
      best = a;
    }
  }
  EXPECT_GT(pick_s, 0) << "tuner picked an unregistered algorithm";
  const bool match = pick == best || pick_s <= tol * best_s;
  if (!match) {
    ADD_FAILURE() << "executors=" << pt.executors
                  << " P=" << pt.parallelism << " bytes=" << pt.bytes
                  << ": tuner picked " << comm::to_string(pick) << " ("
                  << pick_s << " s) but " << comm::to_string(best) << " ("
                  << best_s << " s) measured best";
  }
  return match;
}

TEST(CollectiveTuner, MatchesMeasuredBestOnRsGrids) {
  const net::ClusterSpec spec = net::ClusterSpec::bic();
  std::vector<GridPoint> grid;
  // Figure 14: 48 executors, 256 MB, parallelism sweep.
  for (int p : {1, 2, 4, 8}) grid.push_back({48, p, 256ull << 20});
  // Figure 15: executor scaling at 256 KB and 256 MB, P=4.
  for (int execs : {6, 12, 24, 48}) {
    grid.push_back({execs, 4, 256ull << 10});
    grid.push_back({execs, 4, 256ull << 20});
  }
  int matches = 0;
  for (const auto& pt : grid) {
    if (tuner_matches(spec, pt, /*tol=*/1.05)) ++matches;
  }
  // >= 90% of points (failures above already name the mismatching points).
  EXPECT_GE(10 * matches, 9 * static_cast<int>(grid.size()))
      << matches << "/" << grid.size() << " grid points matched";
}

TEST(CollectiveTuner, AutoNeverBeatenByRingOnAggregationGrid) {
  // Figure 16's grid: Split aggregation, 1 KB / 8 MB / 256 MB aggregators,
  // 1..8 BIC nodes. algo=auto vs the paper's hardcoded ring.
  double log_ratio_sum = 0;
  int points = 0;
  for (std::uint64_t bytes :
       {1ull << 10, 8ull << 20, 256ull << 20}) {
    for (int nodes : {1, 2, 4, 8}) {
      const net::ClusterSpec spec = bench::bic_with_nodes(nodes);
      const double auto_s =
          bench::aggregation_bench(spec, engine::AggMode::kSplit, bytes,
                                   comm::AlgoId::kAuto)
              .total_s;
      const double ring_s =
          bench::aggregation_bench(spec, engine::AggMode::kSplit, bytes,
                                   comm::AlgoId::kRing)
              .total_s;
      ASSERT_GT(auto_s, 0);
      ASSERT_GT(ring_s, 0);
      // No single point may regress badly either.
      EXPECT_LE(auto_s, 1.25 * ring_s)
          << "nodes=" << nodes << " bytes=" << bytes;
      log_ratio_sum += std::log(auto_s / ring_s);
      ++points;
    }
  }
  const double geomean = std::exp(log_ratio_sum / points);
  EXPECT_LE(geomean, 1.05) << "geomean auto/ring across the fig16 grid";
}

TEST(CollectiveTuner, PredictionsFollowKnownCrossovers) {
  // Sanity on the cost model itself (no simulation): tiny messages favor
  // the driver funnel, large messages with parallel channels favor the
  // ring, predictions are positive and monotone in message size, and the
  // sparse ring is priced by its density estimate.
  const net::ClusterSpec spec = net::ClusterSpec::bic();
  const auto in = [&](std::uint64_t bytes, int n, int par) {
    return comm::cost_inputs(spec, spec.sc_link, bytes, n, par);
  };
  using comm::AlgoId;
  using comm::CollectiveOp;
  EXPECT_EQ(comm::pick_algo(CollectiveOp::kReduceScatter, in(512, 24, 4)),
            AlgoId::kDriverFunnel);
  EXPECT_EQ(
      comm::pick_algo(CollectiveOp::kReduceScatter, in(256ull << 20, 48, 4)),
      AlgoId::kRing);
  for (AlgoId a : comm::registered_algos(CollectiveOp::kReduceScatter)) {
    double prev = 0;
    for (std::uint64_t bytes = 1 << 10; bytes <= 256ull << 20; bytes <<= 4) {
      const double s = comm::predict_seconds(CollectiveOp::kReduceScatter, a,
                                             in(bytes, 24, 4));
      EXPECT_GT(s, 0) << comm::to_string(a);
      EXPECT_GE(s, prev) << comm::to_string(a) << " bytes=" << bytes;
      prev = s;
    }
  }
  for (CollectiveOp op :
       {CollectiveOp::kReduceScatter, CollectiveOp::kAllreduce}) {
    for (std::uint64_t bytes = 1 << 10; bytes <= 256ull << 20; bytes <<= 4) {
      const auto p = [&](AlgoId a) {
        return comm::predict_seconds(op, a, in(bytes, 24, 4));
      };
      // `ring` and `rabenseifner` name one (ring, dense) row pair.
      EXPECT_EQ(p(AlgoId::kRing), p(AlgoId::kRabenseifner))
          << comm::to_string(op) << " bytes=" << bytes;
      // Without a density estimate (1.0) the sparse ring is the ring plus
      // two codec scans, so the tuner never picks compression blind.
      EXPECT_GT(p(AlgoId::kSparseRing), p(AlgoId::kRing))
          << comm::to_string(op) << " bytes=" << bytes;
    }
    // At 1% density a 2 GB aggregator ships far fewer bytes per hop.
    auto sparse = in(2ull << 30, 8, 4);
    sparse.density = 0.01;
    EXPECT_LT(comm::predict_seconds(op, AlgoId::kSparseRing, sparse),
              comm::predict_seconds(op, AlgoId::kRing, sparse))
        << comm::to_string(op);
  }
}

}  // namespace
}  // namespace sparker
