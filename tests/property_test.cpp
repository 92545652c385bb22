// Property-test harness (the executable-spec technique of Chen et al.,
// "An Executable Sequential Specification for Spark Aggregation"): for ~200
// seeded random configurations — rank counts 2..17, parallelism 1..8,
// uneven partition sizes including empty partitions, segment counts that
// force zero-length segments, and every registered collective algorithm
// (including the auto-tuner) — every aggregation path the engine offers
// (tree, tree+IMM, split, split-allreduce) must produce exactly the value
// of a plain sequential fold, with and without injected kill / delay /
// degrade faults. All arithmetic is int64, so "identical" means identical,
// not approximately equal.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "bench_util/vec_sai.hpp"
#include "comm/registry.hpp"
#include "comp/sparse.hpp"
#include "engine/aggregate.hpp"
#include "engine/cluster.hpp"
#include "engine/config.hpp"
#include "engine/rdd.hpp"
#include "net/cluster.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace sparker::engine {
namespace {

using sim::Simulator;
using sim::Task;
using Vec = std::vector<std::int64_t>;
using AVec = comp::AdaptiveVector<std::int64_t>;

// One randomly drawn configuration (a pure function of the seed).
struct Config {
  std::uint64_t seed = 0;
  int num_nodes = 2;       // one executor per node => N ranks, N in 2..17
  int parallelism = 1;     // P in 1..8
  int num_partitions = 1;  // 1..3N (some executors get none, some several)
  int dim = 1;             // aggregator length; can be far below P*N
  std::vector<int> rows_per_part;
  // Health-aware scheduling draws: straggler factors on a random subset of
  // executors, with speculation / heartbeats / quarantine toggled on some
  // configs. None of it may change the computed value — duplicates race,
  // but exactly one attempt's result ever counts.
  StragglerPlan stragglers;
  bool speculation = false;
  bool heartbeats = false;
  bool quarantine = false;
  // Collective algorithm for the split paths: any registered implementation
  // or the cost-model auto-tuner. Whatever the registry dispatches must be
  // bit-identical to the sequential fold.
  comm::AlgoId algo = comm::AlgoId::kRing;
  // Fabric faults for the split paths: kill an executor at some fraction of
  // the clean run's reduce window, and/or delay / degrade a channel from
  // t=0. Recovery (membership refold + stage retry) must not change the
  // value.
  bool kill = false;
  int kill_exec = 1;
  int kill_pct = 50;  // percent into the clean run's reduce window.
  bool delay = false;
  bool degrade = false;
  int chan_src = 0;
  int chan_dst = 1;
  // Aggregator density: seqOp touches every stride-th slot, so the
  // aggregated value has ~dim/stride nonzeros. 1 = fully dense (the
  // pre-sparse behavior); larger strides exercise the compressed ring and
  // its adaptive dense<->sparse switching.
  int stride = 1;
};

Config draw_config(std::uint64_t seed) {
  sim::Rng rng(seed);
  Config c;
  c.seed = seed;
  c.num_nodes = 2 + static_cast<int>(rng.next_below(16));       // 2..17
  c.parallelism = 1 + static_cast<int>(rng.next_below(8));      // 1..8
  c.num_partitions =
      1 + static_cast<int>(rng.next_below(
              static_cast<std::uint64_t>(3 * c.num_nodes)));    // 1..3N
  c.dim = 1 + static_cast<int>(rng.next_below(48));             // 1..48
  c.rows_per_part.resize(static_cast<std::size_t>(c.num_partitions));
  for (auto& r : c.rows_per_part) {
    r = static_cast<int>(rng.next_below(12));                   // 0..11
  }
  const int num_stragglers = static_cast<int>(
      rng.next_below(static_cast<std::uint64_t>(c.num_nodes / 2 + 1)));
  for (int i = 0; i < num_stragglers; ++i) {
    const int exec = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(c.num_nodes)));
    c.stragglers.slowdown[exec] =
        2.0 + static_cast<double>(rng.next_below(7));           // 2x..8x
  }
  c.speculation = rng.bernoulli(0.5);
  c.heartbeats = rng.bernoulli(0.25);
  c.quarantine = rng.bernoulli(0.25);
  static constexpr comm::AlgoId kAlgos[] = {
      comm::AlgoId::kAuto,     comm::AlgoId::kRing,
      comm::AlgoId::kHalving,  comm::AlgoId::kPairwise,
      comm::AlgoId::kDriverFunnel, comm::AlgoId::kSparseRing};
  c.algo = kAlgos[rng.next_below(6)];
  c.kill = rng.bernoulli(0.3);
  c.kill_exec =
      1 + static_cast<int>(rng.next_below(
              static_cast<std::uint64_t>(c.num_nodes - 1)));  // never exec 0
  c.kill_pct = 10 + static_cast<int>(rng.next_below(81));     // 10..90
  c.delay = rng.bernoulli(0.2);
  c.degrade = rng.bernoulli(0.2);
  c.chan_src = static_cast<int>(
      rng.next_below(static_cast<std::uint64_t>(c.num_nodes)));
  c.chan_dst = (c.chan_src + 1 +
                static_cast<int>(rng.next_below(
                    static_cast<std::uint64_t>(c.num_nodes - 1)))) %
               c.num_nodes;
  c.stride = 1 << rng.next_below(6);  // density 1, 1/2, ..., 1/32
  return c;
}

// Row data is a pure function of (seed, pid, i): regenerable, uneven,
// occasionally empty partitions.
std::function<Vec(int)> seeded_rows(const Config& c) {
  const std::uint64_t seed = c.seed;
  const std::vector<int> rows = c.rows_per_part;
  return [seed, rows](int pid) {
    sim::Rng part = sim::Rng(seed).split(static_cast<std::uint64_t>(pid) + 1);
    Vec out(static_cast<std::size_t>(rows[static_cast<std::size_t>(pid)]));
    for (auto& v : out) {
      v = static_cast<std::int64_t>(part.next_below(100000));
    }
    return out;
  };
}

TreeAggSpec<std::int64_t, Vec> sum_spec(int dim, int stride = 1) {
  TreeAggSpec<std::int64_t, Vec> spec;
  spec.zero = Vec(static_cast<std::size_t>(dim), 0);
  spec.seq_op = [dim, stride](Vec& u, const std::int64_t& row) {
    for (int i = 0; i < dim; i += stride) {
      u[static_cast<std::size_t>(i)] += row * (i + 1);
    }
  };
  spec.comb_op = bench::vec_sai::add;
  spec.bytes = [](const Vec& v) { return v.size() * sizeof(std::int64_t); };
  spec.partition_cost = [](int, const std::vector<std::int64_t>& rows) {
    return sim::microseconds(rows.size());
  };
  return spec;
}

SplitAggSpec<std::int64_t, Vec, Vec> split_sum_spec(int dim, int stride = 1) {
  SplitAggSpec<std::int64_t, Vec, Vec> spec;
  spec.base = sum_spec(dim, stride);
  bench::vec_sai::set_callbacks(spec);
  return spec;
}

// The same job with AdaptiveVector segments and the sparse hooks wired —
// what the compressed ring path runs. Values must still be bit-identical
// to the plain dense spec's sequential fold.
SplitAggSpec<std::int64_t, Vec, AVec> sparse_split_spec(int dim, int stride) {
  SplitAggSpec<std::int64_t, Vec, AVec> spec;
  spec.base = sum_spec(dim, stride);
  spec.split_op = [](const Vec& u, int seg, int nseg) {
    return AVec::dense(bench::vec_sai::split(u, seg, nseg));
  };
  spec.reduce_op = [](AVec& a, const AVec& b) { a.add(b); };
  spec.concat_op = [](std::vector<std::pair<int, AVec>>& segs) {
    Vec out;
    for (auto& [idx, v] : segs) {
      Vec d = std::move(v).to_dense();
      out.insert(out.end(), d.begin(), d.end());
    }
    return AVec::dense(std::move(out));
  };
  spec.v_bytes = [](const AVec& v) { return v.serialized_bytes(); };
  spec.density_op = [](const Vec& u) {
    std::size_t nnz = 0;
    for (auto x : u) nnz += x != 0;
    return u.empty() ? 1.0
                     : static_cast<double>(nnz) /
                           static_cast<double>(u.size());
  };
  spec.encode_op = [](AVec v) { return AVec::encode(std::move(v).to_dense()); };
  spec.is_sparse_op = [](const AVec& v) { return v.is_sparse(); };
  return spec;
}

// The executable sequential specification: partition-wise seqOp folds
// combined left to right.
Vec sequential_reference(const Config& c) {
  auto spec = sum_spec(c.dim, c.stride);
  auto gen = seeded_rows(c);
  Vec acc = spec.zero;
  for (int p = 0; p < c.num_partitions; ++p) {
    Vec part_agg = spec.zero;
    for (auto r : gen(p)) spec.seq_op(part_agg, r);
    spec.comb_op(acc, part_agg);
  }
  return acc;
}

net::ClusterSpec spec_for(const Config& c) {
  net::ClusterSpec s = net::ClusterSpec::bic(c.num_nodes);
  s.executors_per_node = 1;
  s.cores_per_executor = 2;
  s.fabric.gc.enabled = false;
  return s;
}

EngineConfig engine_config(const Config& c, AggMode mode) {
  EngineConfig cfg;
  cfg.agg_mode = mode;
  cfg.sai_parallelism = c.parallelism;
  cfg.collective_algo = c.algo;
  cfg.stragglers = c.stragglers;
  cfg.health.speculation = c.speculation;
  cfg.health.heartbeats = c.heartbeats;
  cfg.health.quarantine = c.quarantine;
  // Partition costs here are microseconds, so monitor at that scale too —
  // otherwise the stage ends before the first speculation check.
  cfg.health.speculation_interval = sim::microseconds(500);
  // Fault-injection runs need timeouts at the harness's (tiny) time scale;
  // fault-free runs never hit either knob.
  cfg.collective_timeout = sim::milliseconds(400);
  cfg.stage_retry_backoff = sim::milliseconds(10);
  return cfg;
}

Vec run_tree(const Config& c, AggMode mode) {
  Simulator sim;
  Cluster cl(sim, spec_for(c), engine_config(c, mode));
  CachedRdd<std::int64_t> rdd(c.num_partitions, cl.num_executors(),
                              seeded_rows(c));
  auto spec = sum_spec(c.dim, c.stride);
  auto job = [&]() -> Task<Vec> {
    co_return co_await tree_aggregate(cl, rdd, spec);
  };
  return sim.run_task(job());
}

Vec run_split(const Config& c, const FaultSchedule& schedule = {},
              AggMetrics* m = nullptr) {
  Simulator sim;
  EngineConfig cfg = engine_config(c, AggMode::kSplit);
  cfg.fault_schedule = schedule;
  Cluster cl(sim, spec_for(c), cfg);
  CachedRdd<std::int64_t> rdd(c.num_partitions, cl.num_executors(),
                              seeded_rows(c));
  auto spec = split_sum_spec(c.dim, c.stride);
  auto job = [&]() -> Task<Vec> {
    co_return co_await split_aggregate(cl, rdd, spec, m);
  };
  return sim.run_task(job());
}

// The compressed ring: forced kSparseRing with the sparse-hooks spec.
Vec run_split_sparse(const Config& c, const FaultSchedule& schedule = {},
                     AggMetrics* m = nullptr) {
  Simulator sim;
  EngineConfig cfg = engine_config(c, AggMode::kSplit);
  cfg.collective_algo = comm::AlgoId::kSparseRing;
  cfg.fault_schedule = schedule;
  Cluster cl(sim, spec_for(c), cfg);
  CachedRdd<std::int64_t> rdd(c.num_partitions, cl.num_executors(),
                              seeded_rows(c));
  auto spec = sparse_split_spec(c.dim, c.stride);
  auto job = [&]() -> Task<Vec> {
    AVec v = co_await split_aggregate(cl, rdd, spec, m);
    co_return std::move(v).to_dense();
  };
  return sim.run_task(job());
}

Vec run_allreduce_sparse(const Config& c, const FaultSchedule& schedule = {}) {
  Simulator sim;
  EngineConfig cfg = engine_config(c, AggMode::kSplit);
  cfg.collective_algo = comm::AlgoId::kSparseRing;
  cfg.fault_schedule = schedule;
  Cluster cl(sim, spec_for(c), cfg);
  CachedRdd<std::int64_t> rdd(c.num_partitions, cl.num_executors(),
                              seeded_rows(c));
  auto spec = sparse_split_spec(c.dim, c.stride);
  auto job = [&]() -> Task<Vec> {
    AVec v = co_await split_allreduce(cl, rdd, spec);
    co_return std::move(v).to_dense();
  };
  return sim.run_task(job());
}

Vec run_allreduce(const Config& c, const FaultSchedule& schedule = {}) {
  Simulator sim;
  EngineConfig cfg = engine_config(c, AggMode::kSplit);
  cfg.fault_schedule = schedule;
  Cluster cl(sim, spec_for(c), cfg);
  CachedRdd<std::int64_t> rdd(c.num_partitions, cl.num_executors(),
                              seeded_rows(c));
  auto spec = split_sum_spec(c.dim, c.stride);
  auto job = [&]() -> Task<Vec> {
    co_return co_await split_allreduce(cl, rdd, spec);
  };
  return sim.run_task(job());
}

// The config's drawn fabric faults, with the kill placed inside the clean
// run's reduce window.
FaultSchedule drawn_faults(const Config& c, const AggMetrics& clean) {
  FaultSchedule schedule;
  schedule.seed = c.seed;
  if (c.delay) {
    schedule.delay_channel(0, c.chan_src, c.chan_dst, /*channel=*/-1,
                           sim::microseconds(50));
  }
  if (c.degrade) {
    schedule.degrade_channel(0, c.chan_src, c.chan_dst, /*channel=*/-1,
                             /*factor=*/4.0);
  }
  if (c.kill) {
    const sim::Time t =
        clean.compute_done + (clean.end - clean.compute_done) *
                                 static_cast<sim::Time>(c.kill_pct) / 100;
    schedule.kill_executor(t, c.kill_exec);
  }
  return schedule;
}

void check_config(std::uint64_t seed) {
  const Config c = draw_config(seed);
  SCOPED_TRACE(::testing::Message()
               << "seed=" << seed << " N=" << c.num_nodes
               << " P=" << c.parallelism << " parts=" << c.num_partitions
               << " dim=" << c.dim << " algo=" << comm::to_string(c.algo)
               << " stragglers=" << c.stragglers.slowdown.size()
               << " spec=" << c.speculation << " hb=" << c.heartbeats
               << " quar=" << c.quarantine << " kill=" << c.kill
               << " delay=" << c.delay << " degrade=" << c.degrade
               << " stride=" << c.stride);
  const Vec want = sequential_reference(c);
  EXPECT_EQ(run_tree(c, AggMode::kTree), want) << "tree";
  EXPECT_EQ(run_tree(c, AggMode::kTreeImm), want) << "tree+IMM";
  AggMetrics clean;
  EXPECT_EQ(run_split(c, {}, &clean), want) << "split";
  EXPECT_EQ(run_allreduce(c), want) << "allreduce";
  AggMetrics clean_sparse;
  EXPECT_EQ(run_split_sparse(c, {}, &clean_sparse), want) << "sparse ring";
  EXPECT_EQ(run_allreduce_sparse(c), want) << "sparse allreduce";
  if (c.kill || c.delay || c.degrade) {
    const FaultSchedule schedule = drawn_faults(c, clean);
    EXPECT_EQ(run_split(c, schedule), want) << "split+faults";
    EXPECT_EQ(run_allreduce(c, schedule), want) << "allreduce+faults";
    const FaultSchedule sparse_schedule = drawn_faults(c, clean_sparse);
    EXPECT_EQ(run_split_sparse(c, sparse_schedule), want)
        << "sparse ring+faults";
    EXPECT_EQ(run_allreduce_sparse(c, sparse_schedule), want)
        << "sparse allreduce+faults";
  }
}

// ~200 configurations, sharded so a failure names a narrow seed range.
class AggregationEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(AggregationEquivalence, AllPathsMatchSequentialSpec) {
  const int shard = GetParam();
  for (int i = 0; i < 50; ++i) {
    check_config(0xabcd0000ull + static_cast<std::uint64_t>(shard) * 50 +
                 static_cast<std::uint64_t>(i));
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, AggregationEquivalence,
                         ::testing::Values(0, 1, 2, 3));

// Degenerate shapes the random draw may visit rarely get pinned explicitly.
TEST(AggregationEquivalence, ZeroLengthSegmentsEverywhere) {
  // dim 1 with N up to 17 and P up to 8: nearly all of the P*N segments
  // are empty; the collective must still route and concat them correctly.
  Config c;
  c.seed = 7;
  c.num_nodes = 13;
  c.parallelism = 8;
  c.num_partitions = 5;
  c.dim = 1;
  c.rows_per_part = {3, 0, 7, 0, 1};
  const Vec want = sequential_reference(c);
  EXPECT_EQ(run_split(c), want);
  EXPECT_EQ(run_tree(c, AggMode::kTreeImm), want);
}

// Every selectable algorithm — the full enum, since canonical aliasing maps
// ring<->rabenseifner across the two collective ops — must agree bit-for-bit
// with the sequential fold on both split paths, clean and with an executor
// killed mid-reduce.
TEST(AggregationEquivalence, EveryAlgorithmCleanAndFaulted) {
  Config base;
  base.seed = 11;
  base.num_nodes = 6;
  base.parallelism = 3;
  base.num_partitions = 9;
  base.dim = 17;
  base.rows_per_part = {4, 0, 2, 9, 1, 0, 5, 3, 7};
  const Vec want = sequential_reference(base);
  for (comm::AlgoId algo :
       {comm::AlgoId::kAuto, comm::AlgoId::kRing, comm::AlgoId::kHalving,
        comm::AlgoId::kPairwise, comm::AlgoId::kRabenseifner,
        comm::AlgoId::kDriverFunnel, comm::AlgoId::kSparseRing}) {
    SCOPED_TRACE(::testing::Message() << "algo=" << comm::to_string(algo));
    Config c = base;
    c.algo = algo;
    AggMetrics clean;
    EXPECT_EQ(run_split(c, {}, &clean), want) << "clean split";
    EXPECT_EQ(run_allreduce(c), want) << "clean allreduce";
    c.kill = true;
    c.kill_exec = 2;
    c.kill_pct = 50;
    const FaultSchedule schedule = drawn_faults(c, clean);
    EXPECT_EQ(run_split(c, schedule), want) << "faulted split";
    EXPECT_EQ(run_allreduce(c, schedule), want) << "faulted allreduce";
  }
}

// The compressed ring under membership churn: a decommission mid-compute
// and a rejoin mid-campaign must not change any job's value, with segments
// moving (and stream-summing) in sparse form throughout.
TEST(AggregationEquivalence, SparseRingSurvivesChurn) {
  Config c;
  c.seed = 21;
  c.num_nodes = 8;
  c.parallelism = 3;
  c.num_partitions = 10;
  c.dim = 40;
  c.stride = 8;  // ~12% density: sparse wins every hop.
  c.rows_per_part = {4, 0, 2, 9, 1, 0, 5, 3, 7, 2};
  const Vec want = sequential_reference(c);

  // Clean run sizes the windows the churn events land in.
  AggMetrics clean;
  ASSERT_EQ(run_split_sparse(c, {}, &clean), want);
  const sim::Duration t_job = clean.end - clean.start;
  const sim::Duration t_compute = clean.compute_done - clean.start;

  Simulator sim;
  EngineConfig cfg = engine_config(c, AggMode::kSplit);
  cfg.collective_algo = comm::AlgoId::kSparseRing;
  cfg.membership.decommission(t_compute / 2, 5).join(2 * t_job, 5);
  Cluster cl(sim, spec_for(c), cfg);
  CachedRdd<std::int64_t> rdd(c.num_partitions, cl.num_executors(),
                              seeded_rows(c));
  auto spec = sparse_split_spec(c.dim, c.stride);
  std::vector<Vec> got;
  auto campaign = [&]() -> Task<void> {
    for (int j = 0; j < 4; ++j) {
      AVec v = co_await split_aggregate(cl, rdd, spec);
      got.push_back(std::move(v).to_dense());
    }
  };
  sim.run_task(campaign());
  ASSERT_EQ(got.size(), 4u);
  for (std::size_t j = 0; j < got.size(); ++j) {
    EXPECT_EQ(got[j], want) << "churn job " << j;
  }
}

TEST(AggregationEquivalence, AllPartitionsEmpty) {
  Config c;
  c.seed = 9;
  c.num_nodes = 4;
  c.parallelism = 2;
  c.num_partitions = 6;
  c.dim = 5;
  c.rows_per_part = {0, 0, 0, 0, 0, 0};
  const Vec want = sequential_reference(c);  // the zero vector
  EXPECT_EQ(run_split(c), want);
  EXPECT_EQ(run_tree(c, AggMode::kTree), want);
  EXPECT_EQ(run_tree(c, AggMode::kTreeImm), want);
}

}  // namespace
}  // namespace sparker::engine
