// Fault-injection tests for the deterministic fault fabric.
//
// Comm layer: executor death and link severance are injected at randomized
// (but seeded) simulated times inside each collective; the run must either
// complete with the exact sequential-reference value or fail cleanly with
// CollectiveFailed — never hang, never return a wrong value — and identical
// seeds must replay identical outcomes and end times.
//
// Engine layer: killing an executor mid-`ring_reduce_scatter` makes
// `split_aggregate` recompute the lost partials, rebuild the communicator
// over the survivors, and re-run the ring stage; the final value equals the
// fault-free run's, deterministically under a fixed seed. Permanent faults
// fail cleanly after `max_stage_attempts`.

#include <gtest/gtest.h>

#include <any>
#include <cstdint>
#include <memory>
#include <numeric>
#include <vector>

#include "bench_util/vec_sai.hpp"
#include "comm/collectives.hpp"
#include "comm/communicator.hpp"
#include "comm/registry.hpp"
#include "engine/aggregate.hpp"
#include "engine/cluster.hpp"
#include "engine/config.hpp"
#include "engine/rdd.hpp"
#include "net/cluster.hpp"
#include "net/fault.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace sparker {
namespace {

using sim::Duration;
using sim::Simulator;
using sim::Task;
using sim::Time;
using Vec = std::vector<std::int64_t>;

// ===========================================================================
// Comm-layer fault sweeps
// ===========================================================================

struct World {
  explicit World(int n, int parallelism = 1) {
    std::vector<int> rank_to_host(static_cast<std::size_t>(n));
    std::iota(rank_to_host.begin(), rank_to_host.end(), 0);
    net::FabricParams fp;
    fp.gc.enabled = false;
    sim = std::make_unique<Simulator>();
    fabric = std::make_unique<net::Fabric>(*sim, fp, n);
    c = std::make_unique<comm::Communicator>(*fabric,
                                             std::move(rank_to_host),
                                             net::LinkParams{}, parallelism);
    c->set_recv_timeout(sim::milliseconds(50));
  }
  std::unique_ptr<Simulator> sim;
  std::unique_ptr<net::Fabric> fabric;
  std::unique_ptr<comm::Communicator> c;
};

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

// vec_sai's SegOps, with a reduceOp that also checks the sizes match.
comm::SegOps vec_ops(const Vec& local) {
  comm::SegOps ops = bench::vec_sai::seg_ops(local);
  ops.reduce_into = [](std::any& dst, const std::any& src) {
    Vec& d = std::any_cast<Vec&>(dst);
    const Vec& s = std::any_cast<const Vec&>(src);
    ASSERT_EQ(d.size(), s.size());
    bench::vec_sai::add(d, s);
  };
  return ops;
}

enum class Coll { kRingRS, kAllreduce, kBinomial, kHalving, kPairwise };

const char* coll_name(Coll c) {
  switch (c) {
    case Coll::kRingRS: return "ring_reduce_scatter";
    case Coll::kAllreduce: return "allreduce(rabenseifner)";
    case Coll::kBinomial: return "binomial_reduce";
    case Coll::kHalving: return "halving_reduce_scatter";
    case Coll::kPairwise: return "pairwise_reduce_scatter";
  }
  return "?";
}

struct Outcome {
  bool failed = false;
  Time end = 0;     ///< simulated time after the run fully drains.
  Vec assembled;    ///< reduced vector digest (valid only if !failed).
};

// Runs one collective over n ranks; if `fault` is set, it is applied to the
// world's FaultFabric before the clock starts.
Outcome run_collective(Coll coll, int n, int p, int len,
                       const std::function<void(net::FaultFabric&)>& fault) {
  World w(n, coll == Coll::kRingRS || coll == Coll::kAllreduce ? p : 1);
  if (fault) fault(w.fabric->faults());
  std::vector<Vec> locals;
  for (int r = 0; r < n; ++r) locals.push_back(make_value(r, len));

  Outcome out;
  std::vector<std::vector<comm::Seg>> seg_results(
      static_cast<std::size_t>(n));
  std::vector<std::optional<Vec>> whole_results(static_cast<std::size_t>(n));

  auto body = [&](int rank) -> Task<void> {
    auto ops = vec_ops(locals[static_cast<std::size_t>(rank)]);
    switch (coll) {
      case Coll::kRingRS:
        seg_results[static_cast<std::size_t>(rank)] =
            co_await comm::ring_reduce_scatter(*w.c, rank, ops);
        break;
      case Coll::kAllreduce:
        whole_results[static_cast<std::size_t>(rank)] =
            std::any_cast<Vec>(co_await comm::allreduce(
                comm::AlgoId::kRabenseifner, *w.c, rank, ops));
        break;
      case Coll::kBinomial: {
        auto whole = co_await comm::binomial_reduce(
            *w.c, rank, Vec(locals[static_cast<std::size_t>(rank)]), ops);
        if (whole) {
          whole_results[static_cast<std::size_t>(rank)] =
              std::any_cast<Vec>(std::move(*whole));
        }
        break;
      }
      case Coll::kHalving: {
        auto seg = co_await comm::halving_reduce_scatter(*w.c, rank, ops);
        if (seg) {
          seg_results[static_cast<std::size_t>(rank)].push_back(
              std::move(*seg));
        }
        break;
      }
      case Coll::kPairwise: {
        auto seg = co_await comm::pairwise_reduce_scatter(*w.c, rank, ops);
        seg_results[static_cast<std::size_t>(rank)].push_back(std::move(seg));
        break;
      }
    }
  };
  try {
    w.sim->run_task(comm::run_all_ranks(*w.c, body));
  } catch (const comm::CollectiveFailed&) {
    out.failed = true;
  }
  out.end = w.sim->now();
  if (out.failed) return out;

  // Assemble a digest: the reduced vector, reconstructed from whatever form
  // the collective leaves its outputs in.
  switch (coll) {
    case Coll::kRingRS:
    case Coll::kHalving:
    case Coll::kPairwise: {
      std::size_t segs = 0;
      for (const auto& per_rank : seg_results) segs += per_rank.size();
      EXPECT_EQ(segs, static_cast<std::size_t>(coll == Coll::kRingRS ? p * n
                                                                     : n));
      out.assembled = bench::vec_sai::gather(seg_results);
      break;
    }
    case Coll::kAllreduce: {
      for (int r = 0; r < n; ++r) {
        EXPECT_TRUE(whole_results[static_cast<std::size_t>(r)].has_value());
        if (r > 0) {
          EXPECT_EQ(whole_results[static_cast<std::size_t>(r)],
                    whole_results[0]);
        }
      }
      out.assembled = *whole_results[0];
      break;
    }
    case Coll::kBinomial:
      EXPECT_TRUE(whole_results[0].has_value());
      out.assembled = *whole_results[0];
      break;
  }
  return out;
}

class CollectiveFaultSweep : public ::testing::TestWithParam<Coll> {};

TEST_P(CollectiveFaultSweep, RandomKillCompletesCorrectlyOrFailsCleanly) {
  const Coll coll = GetParam();
  const int n = 6, p = 2, len = 64;
  const Vec want = expected_sum(n, len);
  // Fault-free window: faults are placed somewhere inside it.
  const Outcome clean = run_collective(coll, n, p, len, nullptr);
  ASSERT_FALSE(clean.failed) << coll_name(coll);
  ASSERT_EQ(clean.assembled, want) << coll_name(coll);

  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    sim::Rng rng(seed * 977 + static_cast<std::uint64_t>(coll));
    const int victim = static_cast<int>(rng.next_below(n));
    const Time t = rng.next_below(clean.end + 1);
    auto fault = [victim, t](net::FaultFabric& f) {
      f.kill_node_at(t, victim);
    };
    const Outcome a = run_collective(coll, n, p, len, fault);
    SCOPED_TRACE(::testing::Message() << coll_name(coll) << " seed=" << seed
                                      << " victim=" << victim << " t=" << t);
    if (!a.failed) {
      EXPECT_EQ(a.assembled, want);
    }
    // Identical seed => identical recovery trace (outcome and end time).
    const Outcome b = run_collective(coll, n, p, len, fault);
    EXPECT_EQ(a.failed, b.failed);
    EXPECT_EQ(a.end, b.end);
    if (!a.failed) {
      EXPECT_EQ(a.assembled, b.assembled);
    }
  }
}

TEST_P(CollectiveFaultSweep, RandomSeverCompletesCorrectlyOrFailsCleanly) {
  const Coll coll = GetParam();
  const int n = 5, p = 2, len = 48;
  const Vec want = expected_sum(n, len);
  const Outcome clean = run_collective(coll, n, p, len, nullptr);
  ASSERT_FALSE(clean.failed);

  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    sim::Rng rng(seed * 1289 + static_cast<std::uint64_t>(coll));
    const int src = static_cast<int>(rng.next_below(n));
    const int dst = static_cast<int>(rng.next_below(n));
    const int channel =
        rng.bernoulli(0.5) ? -1 : static_cast<int>(rng.next_below(p));
    const Time t = rng.next_below(clean.end + 1);
    auto fault = [=](net::FaultFabric& f) {
      f.sever_channel_at(t, src, dst, channel);
    };
    const Outcome a = run_collective(coll, n, p, len, fault);
    SCOPED_TRACE(::testing::Message()
                 << coll_name(coll) << " seed=" << seed << " sever " << src
                 << "->" << dst << " ch=" << channel << " t=" << t);
    if (!a.failed) {
      EXPECT_EQ(a.assembled, want);
    }
    const Outcome b = run_collective(coll, n, p, len, fault);
    EXPECT_EQ(a.failed, b.failed);
    EXPECT_EQ(a.end, b.end);
  }
}

// Delay and degrade faults must never corrupt a collective: the run
// completes with the exact reference value, merely later. (A fault drawn on
// a channel the collective never crosses legitimately costs nothing, hence
// >= rather than > here; strict slowdown is pinned on a known-used channel
// below.)
TEST_P(CollectiveFaultSweep, RandomSlowChannelIsSlowerNotWrong) {
  const Coll coll = GetParam();
  const int n = 5, p = 2, len = 48;
  const Vec want = expected_sum(n, len);
  const Outcome clean = run_collective(coll, n, p, len, nullptr);
  ASSERT_FALSE(clean.failed);
  ASSERT_EQ(clean.assembled, want);

  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    sim::Rng rng(seed * 3391 + static_cast<std::uint64_t>(coll));
    const int src = static_cast<int>(rng.next_below(n));
    const int dst = static_cast<int>(rng.next_below(n));
    const int channel =
        rng.bernoulli(0.5) ? -1 : static_cast<int>(rng.next_below(p));
    const bool degrade = rng.bernoulli(0.5);
    auto fault = [=](net::FaultFabric& f) {
      if (degrade) {
        f.degrade_channel(src, dst, channel, 6.0);
      } else {
        f.delay_channel(src, dst, channel, sim::milliseconds(3));
      }
    };
    const Outcome a = run_collective(coll, n, p, len, fault);
    SCOPED_TRACE(::testing::Message()
                 << coll_name(coll) << " seed=" << seed
                 << (degrade ? " degrade " : " delay ") << src << "->" << dst
                 << " ch=" << channel);
    ASSERT_FALSE(a.failed) << "slow channels must not abort collectives";
    EXPECT_EQ(a.assembled, want);
    EXPECT_GE(a.end, clean.end);
    const Outcome b = run_collective(coll, n, p, len, fault);
    EXPECT_EQ(a.end, b.end);
    EXPECT_EQ(a.assembled, b.assembled);
  }
}

INSTANTIATE_TEST_SUITE_P(AllCollectives, CollectiveFaultSweep,
                         ::testing::Values(Coll::kRingRS, Coll::kAllreduce,
                                           Coll::kBinomial, Coll::kHalving,
                                           Coll::kPairwise));

// Runs one ring_reduce_scatter in an existing world, returning (duration,
// assembled value). Used to show a degraded channel slows the ring and a
// healed one restores baseline timing within the same world.
std::pair<Duration, Vec> ring_once(World& w, int n, int len) {
  std::vector<Vec> locals;
  for (int r = 0; r < n; ++r) locals.push_back(make_value(r, len));
  std::vector<std::vector<comm::Seg>> seg_results(
      static_cast<std::size_t>(n));
  const Time start = w.sim->now();
  auto body = [&](int rank) -> Task<void> {
    auto ops = vec_ops(locals[static_cast<std::size_t>(rank)]);
    seg_results[static_cast<std::size_t>(rank)] =
        co_await comm::ring_reduce_scatter(*w.c, rank, ops);
  };
  w.sim->run_task(comm::run_all_ranks(*w.c, body));
  return {w.sim->now() - start, bench::vec_sai::gather(seg_results)};
}

TEST(ChannelFaults, DegradedRingChannelIsStrictlySlowerAndMonotonic) {
  const int n = 5, p = 2, len = 48;
  const Vec want = expected_sum(n, len);
  World baseline(n, p);
  const auto [clean_dur, clean_val] = ring_once(baseline, n, len);
  ASSERT_EQ(clean_val, want);

  // The 0 -> 1 hop is on every ring pass: degrading it must slow the whole
  // collective, monotonically in the degradation factor.
  Duration prev = clean_dur;
  for (double factor : {2.0, 4.0, 8.0}) {
    World w(n, p);
    w.fabric->faults().degrade_channel(0, 1, -1, factor);
    const auto [dur, val] = ring_once(w, n, len);
    SCOPED_TRACE(::testing::Message() << "factor=" << factor);
    EXPECT_EQ(val, want);
    EXPECT_GT(dur, prev);
    prev = dur;
  }
}

TEST(ChannelFaults, HealedChannelRestoresBaselineTiming) {
  const int n = 5, p = 2, len = 48;
  const Vec want = expected_sum(n, len);
  World baseline(n, p);
  const auto [clean_dur, clean_val] = ring_once(baseline, n, len);
  ASSERT_EQ(clean_val, want);

  World w(n, p);
  w.fabric->faults().degrade_channel(0, 1, -1, 8.0);
  const auto [slow_dur, slow_val] = ring_once(w, n, len);
  EXPECT_EQ(slow_val, want);
  EXPECT_GT(slow_dur, clean_dur);

  // Heal (restore the bandwidth multiplier to 1x) and rerun in the same
  // world: the ring's duration returns exactly to the fault-free baseline.
  w.fabric->faults().degrade_channel(0, 1, -1, 1.0);
  const auto [healed_dur, healed_val] = ring_once(w, n, len);
  EXPECT_EQ(healed_val, want);
  EXPECT_EQ(healed_dur, clean_dur);
}

TEST(CollectiveTimeout, HungRecvRaisesCollectiveFailed) {
  World w(2);
  // Nothing is ever sent: the recv must time out rather than deadlock.
  auto body = [&]() -> Task<int> {
    (void)co_await w.c->recv(1, 0, 0);
    co_return 1;
  };
  EXPECT_THROW(w.sim->run_task(body()), comm::CollectiveFailed);
  // The timeout consumed exactly the configured deadline.
  EXPECT_EQ(w.sim->now(), sim::milliseconds(50));
}

TEST(CollectiveTimeout, MessageBeatsDeadline) {
  World w(2);
  net::Message m;
  m.bytes = 64;
  m.payload = std::make_shared<int>(5);
  w.c->post(0, 1, 0, std::move(m));
  auto body = [&]() -> Task<int> {
    net::Message in = co_await w.c->recv(1, 0, 0);
    co_return *std::static_pointer_cast<int>(in.payload);
  };
  EXPECT_EQ(w.sim->run_task(body()), 5);
}

// ===========================================================================
// Engine-level stage retry
// ===========================================================================

namespace e = sparker::engine;

net::ClusterSpec fault_spec(int nodes) {
  net::ClusterSpec s = net::ClusterSpec::bic(nodes);
  s.executors_per_node = 1;
  s.cores_per_executor = 2;
  s.fabric.gc.enabled = false;
  return s;
}

// Aggregator dimensioned + byte-scaled so the ring stage is long enough to
// hit mid-flight: dim real elements model `scale`x their real wire size.
e::SplitAggSpec<std::int64_t, Vec, Vec> big_split_spec(int dim,
                                                      std::uint64_t scale) {
  e::SplitAggSpec<std::int64_t, Vec, Vec> spec;
  spec.base.zero = Vec(static_cast<std::size_t>(dim), 0);
  spec.base.seq_op = [dim](Vec& u, const std::int64_t& row) {
    for (int i = 0; i < dim; ++i) {
      u[static_cast<std::size_t>(i)] += row * (i + 1);
    }
  };
  spec.base.comb_op = bench::vec_sai::add;
  spec.base.bytes = bench::vec_sai::bytes(scale);
  spec.base.partition_cost = [](int, const std::vector<std::int64_t>& rows) {
    return sim::milliseconds(rows.size());
  };
  bench::vec_sai::set_callbacks(spec);
  return spec;
}

std::function<Vec(int)> rows_gen(int rows_per_part) {
  return [rows_per_part](int pid) {
    Vec rows(static_cast<std::size_t>(rows_per_part));
    for (int i = 0; i < rows_per_part; ++i) {
      rows[static_cast<std::size_t>(i)] = pid * 1000 + i;
    }
    return rows;
  };
}

struct SplitRun {
  bool failed = false;
  Vec value;
  e::AggMetrics stats;
};

// Runs split_aggregate on a fresh cluster under `schedule`; dim/scale make
// the modeled aggregator ~4 MiB so the ring phase spans real simulated time.
SplitRun run_split_with_schedule(const e::FaultSchedule& schedule,
                                 int nodes = 4, int parts = 8,
                                 int max_stage_attempts = 4) {
  e::EngineConfig cfg;
  cfg.agg_mode = e::AggMode::kSplit;
  cfg.sai_parallelism = 2;
  cfg.collective_timeout = sim::milliseconds(400);
  cfg.stage_retry_backoff = sim::milliseconds(10);
  cfg.max_stage_attempts = max_stage_attempts;
  cfg.fault_schedule = schedule;
  Simulator sim;
  e::Cluster cl(sim, fault_spec(nodes), cfg);
  e::CachedRdd<std::int64_t> rdd(parts, cl.num_executors(), rows_gen(6));
  auto spec = big_split_spec(/*dim=*/64, /*scale=*/8192);  // ~4 MiB modeled
  SplitRun out;
  auto job = [&]() -> Task<Vec> {
    co_return co_await e::split_aggregate(cl, rdd, spec, &out.stats);
  };
  try {
    out.value = sim.run_task(job());
  } catch (const std::runtime_error&) {
    out.failed = true;
  }
  return out;
}

TEST(SplitAggregateFaults, KillExecutorMidRingRetriesAndMatchesFaultFree) {
  // Fault-free reference run: value plus the ring-stage window.
  const SplitRun clean = run_split_with_schedule({});
  ASSERT_FALSE(clean.failed);
  ASSERT_EQ(clean.stats.ring_stage_attempts, 1);
  const Time ring_lo = clean.stats.compute_done;
  const Time ring_hi = clean.stats.end;
  ASSERT_GT(ring_hi, ring_lo);

  // Sweep kill times across the ring window; every run must still produce
  // the fault-free value, and at least one must actually exercise retry.
  bool saw_retry = false;
  for (int pct : {25, 40, 55, 70, 85}) {
    const Time t =
        ring_lo + (ring_hi - ring_lo) * static_cast<Time>(pct) / 100;
    e::FaultSchedule schedule;
    schedule.seed = 42;
    schedule.kill_executor(t, /*executor=*/2);
    const SplitRun run = run_split_with_schedule(schedule);
    SCOPED_TRACE(::testing::Message() << "kill at " << pct << "% of ring");
    ASSERT_FALSE(run.failed);
    EXPECT_EQ(run.value, clean.value);
    EXPECT_GE(run.stats.ring_stage_attempts, 1);
    if (run.stats.ring_stage_attempts > 1) {
      saw_retry = true;
      EXPECT_GT(run.stats.recovery_time, 0u);
      EXPECT_GT(run.stats.stage_restarts, 0);
    }
  }
  EXPECT_TRUE(saw_retry);
}

TEST(SplitAggregateFaults, IdenticalSeedsReplayIdenticalRecoveryTraces) {
  const SplitRun clean = run_split_with_schedule({});
  const Time t =
      clean.stats.compute_done +
      (clean.stats.end - clean.stats.compute_done) / 2;
  e::FaultSchedule schedule;
  schedule.seed = 7;
  schedule.kill_executor(t, 1);

  const SplitRun a = run_split_with_schedule(schedule);
  const SplitRun b = run_split_with_schedule(schedule);
  ASSERT_FALSE(a.failed);
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(a.stats.end, b.stats.end);
  EXPECT_EQ(a.stats.compute_done, b.stats.compute_done);
  EXPECT_EQ(a.stats.ring_stage_attempts, b.stats.ring_stage_attempts);
  EXPECT_EQ(a.stats.recovery_time, b.stats.recovery_time);
  EXPECT_EQ(a.stats.stage_restarts, b.stats.stage_restarts);
}

TEST(SplitAggregateFaults, TransientSeverHealsAndRetrySucceeds) {
  const SplitRun clean = run_split_with_schedule({});
  const Time mid =
      clean.stats.compute_done +
      (clean.stats.end - clean.stats.compute_done) / 2;
  // Sever the 1 -> 2 ring hop (all channels) mid-ring; heal shortly after
  // the timeout fires, so the retry runs on the original (healed) ring.
  e::FaultSchedule schedule;
  schedule.sever_channel(mid, /*src=*/1, /*dst=*/2, /*channel=*/-1,
                         /*heal_after=*/sim::milliseconds(500));
  const SplitRun run = run_split_with_schedule(schedule);
  ASSERT_FALSE(run.failed);
  EXPECT_EQ(run.value, clean.value);
  EXPECT_GE(run.stats.ring_stage_attempts, 2);
  EXPECT_GT(run.stats.recovery_time, 0u);
}

TEST(SplitAggregateFaults, PermanentSeverFailsCleanlyAfterMaxAttempts) {
  const SplitRun clean = run_split_with_schedule({});
  const Time mid =
      clean.stats.compute_done +
      (clean.stats.end - clean.stats.compute_done) / 2;
  // A permanently severed ring link with no executor loss: the topology
  // never changes, so every attempt fails, and the job must abort after
  // max_stage_attempts instead of looping forever.
  e::FaultSchedule schedule;
  schedule.sever_channel(mid, /*src=*/1, /*dst=*/2, /*channel=*/-1);
  const SplitRun run =
      run_split_with_schedule(schedule, 4, 8, /*max_stage_attempts=*/2);
  EXPECT_TRUE(run.failed);
  EXPECT_EQ(run.stats.ring_stage_attempts, 2);
}

TEST(SplitAggregateFaults, KillDuringComputeStageRestartsAndStaysCorrect) {
  const SplitRun clean = run_split_with_schedule({});
  // Strike while compute tasks are still running: shortly before the clean
  // run's compute stage finished, so executor 3 has run (or is running)
  // tasks when it dies and its merged partials are lost.
  ASSERT_GT(clean.stats.compute_done, sim::milliseconds(3));
  const Time t = clean.stats.compute_done - sim::milliseconds(3);
  ASSERT_GT(t, clean.stats.start);
  e::FaultSchedule schedule;
  schedule.kill_executor(t, 3);
  const SplitRun run = run_split_with_schedule(schedule);
  ASSERT_FALSE(run.failed);
  EXPECT_EQ(run.value, clean.value);
  // The death either failed a running task or stranded merged partials:
  // both surface as a compute-stage restart (IMM semantics).
  EXPECT_GE(run.stats.stage_restarts + run.stats.task_retries, 1);
}

TEST(SplitAggregateFaults, DelayedChannelSlowsRingButStaysCorrect) {
  const SplitRun clean = run_split_with_schedule({});
  e::FaultSchedule schedule;
  schedule.delay_channel(/*at=*/0, /*src=*/0, /*dst=*/1, /*channel=*/-1,
                         /*delay=*/sim::milliseconds(2));
  const SplitRun run = run_split_with_schedule(schedule);
  ASSERT_FALSE(run.failed);
  EXPECT_EQ(run.value, clean.value);
  EXPECT_EQ(run.stats.ring_stage_attempts, 1);   // slow, not broken
  EXPECT_GT(run.stats.end, clean.stats.end);     // ...but measurably slow
}

TEST(SplitAggregateFaults, DegradedChannelSlowsRingButStaysCorrect) {
  const SplitRun clean = run_split_with_schedule({});
  e::FaultSchedule schedule;
  schedule.degrade_channel(/*at=*/0, /*src=*/0, /*dst=*/1, /*channel=*/-1,
                           /*factor=*/8.0);
  const SplitRun run = run_split_with_schedule(schedule);
  ASSERT_FALSE(run.failed);
  EXPECT_EQ(run.value, clean.value);
  EXPECT_EQ(run.stats.ring_stage_attempts, 1);   // degraded, not broken
  EXPECT_GT(run.stats.end, clean.stats.end);
}

// ===========================================================================
// split_allreduce fault tolerance
// ===========================================================================

// Same cluster/spec as run_split_with_schedule, but through the allreduce
// path: every surviving executor must hold the full reduced vector.
SplitRun run_allreduce_with_schedule(const e::FaultSchedule& schedule,
                                     int nodes = 4, int parts = 8,
                                     int max_stage_attempts = 4) {
  e::EngineConfig cfg;
  cfg.agg_mode = e::AggMode::kSplit;
  cfg.sai_parallelism = 2;
  cfg.collective_timeout = sim::milliseconds(400);
  cfg.stage_retry_backoff = sim::milliseconds(10);
  cfg.max_stage_attempts = max_stage_attempts;
  cfg.fault_schedule = schedule;
  Simulator sim;
  e::Cluster cl(sim, fault_spec(nodes), cfg);
  e::CachedRdd<std::int64_t> rdd(parts, cl.num_executors(), rows_gen(6));
  auto spec = big_split_spec(/*dim=*/64, /*scale=*/8192);
  SplitRun out;
  auto job = [&]() -> Task<Vec> {
    co_return co_await e::split_allreduce(cl, rdd, spec, &out.stats);
  };
  try {
    out.value = sim.run_task(job());
  } catch (const std::runtime_error&) {
    out.failed = true;
  }
  return out;
}

TEST(AllreduceFaults, KillExecutorMidAllreduceRetriesAndMatchesFaultFree) {
  const SplitRun clean = run_allreduce_with_schedule({});
  ASSERT_FALSE(clean.failed);
  ASSERT_EQ(clean.stats.ring_stage_attempts, 1);
  // The allreduce result is the fully reduced vector: identical to the
  // split-aggregate path's value over the same data.
  const SplitRun split_clean = run_split_with_schedule({});
  ASSERT_EQ(clean.value, split_clean.value);

  const Time lo = clean.stats.compute_done;
  const Time hi = clean.stats.end;
  ASSERT_GT(hi, lo);
  // Before this stage carried its own retry loop, a mid-allreduce death left
  // AllreduceTask::go without a catch and the job hung forever. Every kill
  // in this sweep must now complete — with the fault-free value.
  bool saw_retry = false;
  for (int pct : {25, 40, 55, 70, 85}) {
    const Time t = lo + (hi - lo) * static_cast<Time>(pct) / 100;
    e::FaultSchedule schedule;
    schedule.seed = 42;
    schedule.kill_executor(t, /*executor=*/2);
    const SplitRun run = run_allreduce_with_schedule(schedule);
    SCOPED_TRACE(::testing::Message() << "kill at " << pct << "% of window");
    ASSERT_FALSE(run.failed);
    EXPECT_EQ(run.value, clean.value);
    if (run.stats.ring_stage_attempts > 1) {
      saw_retry = true;
      EXPECT_GT(run.stats.recovery_time, 0u);
    }
  }
  EXPECT_TRUE(saw_retry);
}

TEST(AllreduceFaults, IdenticalSeedsReplayIdenticalRecoveryTraces) {
  const SplitRun clean = run_allreduce_with_schedule({});
  const Time t = clean.stats.compute_done +
                 (clean.stats.end - clean.stats.compute_done) / 2;
  e::FaultSchedule schedule;
  schedule.seed = 7;
  schedule.kill_executor(t, 1);

  const SplitRun a = run_allreduce_with_schedule(schedule);
  const SplitRun b = run_allreduce_with_schedule(schedule);
  ASSERT_FALSE(a.failed);
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(a.stats.end, b.stats.end);
  EXPECT_EQ(a.stats.ring_stage_attempts, b.stats.ring_stage_attempts);
  EXPECT_EQ(a.stats.recovery_time, b.stats.recovery_time);
}

TEST(AllreduceFaults, PermanentSeverFailsCleanlyAfterMaxAttempts) {
  const SplitRun clean = run_allreduce_with_schedule({});
  const Time mid = clean.stats.compute_done +
                   (clean.stats.end - clean.stats.compute_done) / 2;
  e::FaultSchedule schedule;
  schedule.sever_channel(mid, /*src=*/1, /*dst=*/2, /*channel=*/-1);
  const SplitRun run =
      run_allreduce_with_schedule(schedule, 4, 8, /*max_stage_attempts=*/2);
  EXPECT_TRUE(run.failed);
  EXPECT_EQ(run.stats.ring_stage_attempts, 2);
}

TEST(FaultFabric, ScheduledEventsApplyAtTheirTime) {
  Simulator sim;
  net::Fabric fabric(sim, {}, 2);
  auto& f = fabric.faults();
  f.kill_node_at(sim::seconds(1), 0);
  f.sever_channel_at(sim::seconds(2), 0, 1, -1, sim::seconds(1));
  EXPECT_TRUE(f.node_alive(0));
  EXPECT_TRUE(f.channel_state(0, 1, 0).up);
  auto probe = [&](Time t, auto fn) {
    sim.call_at(t, fn);
  };
  probe(sim::milliseconds(1500), [&] {
    EXPECT_FALSE(f.node_alive(0));
    EXPECT_TRUE(f.channel_state(0, 1, 0).up);
  });
  probe(sim::milliseconds(2500), [&] {
    EXPECT_FALSE(f.channel_state(0, 1, 3).up);  // -1 severs every channel
  });
  probe(sim::milliseconds(3500), [&] {
    EXPECT_TRUE(f.channel_state(0, 1, 0).up);  // healed
  });
  sim.run();
}

TEST(FaultFabric, ChannelStateCombinesChannelAndPairFaults) {
  Simulator sim;
  net::Fabric fabric(sim, {}, 2);
  auto& f = fabric.faults();
  f.delay_channel(0, 1, 2, 30, sim::seconds(2));
  f.delay_channel(0, 1, -1, 4);
  f.degrade_channel(0, 1, 2, 3.0);
  f.degrade_channel(0, 1, -1, 1.5, sim::seconds(1));
  const auto both = f.channel_state(0, 1, 2);
  EXPECT_TRUE(both.up);
  EXPECT_EQ(both.delay, 34);
  EXPECT_EQ(both.degrade, 4.5);
  const auto pair_only = f.channel_state(0, 1, 0);
  EXPECT_EQ(pair_only.delay, 4);
  EXPECT_EQ(pair_only.degrade, 1.5);
  const auto other_pair = f.channel_state(1, 0, 2);
  EXPECT_TRUE(other_pair.up);
  EXPECT_EQ(other_pair.delay, 0);
  EXPECT_EQ(other_pair.degrade, 1.0);
  sim.call_at(sim::milliseconds(1500), [&] {
    const auto later = f.channel_state(0, 1, 2);
    EXPECT_EQ(later.delay, 34);
    EXPECT_EQ(later.degrade, 3.0);  // the pair's degrade healed
    f.sever_channel(0, 1, 2, sim::seconds(3));
    EXPECT_FALSE(f.channel_state(0, 1, 2).up);
    EXPECT_TRUE(f.channel_state(0, 1, 1).up);
  });
  sim.call_at(sim::milliseconds(2500), [&] {
    EXPECT_EQ(f.channel_state(0, 1, 2).delay, 4);  // its own delay healed
  });
  sim.run();
}

}  // namespace
}  // namespace sparker
