// Ablation: health-aware scheduling — heartbeat detection, speculative
// execution, and executor quarantine. One split aggregation (BIC 4 nodes,
// ~4 MiB modeled aggregator, 1 ms/row compute) is replayed under straggler
// and failure schedules with the health features toggled:
//
//   - a straggling executor with speculation off vs on (first finisher
//     wins; the job must get strictly faster, never different);
//   - an executor killed mid-ring under the omniscient failure view vs
//     heartbeat detection (the detection wait becomes part of recovery);
//   - a flaky executor whose repeated task failures trip quarantine.
//
// Reported per schedule: end-to-end time, speculative launches/wins and the
// win rate, the monitor's measured detection latency, and time charged to
// recovery — printed and written to BENCH_ablation_speculation.json.
//
// Every run records a structured trace. The speculation columns are derived
// from it (counting "spec.launch"/"spec.win" instants) and the recovery
// column from obs::recovery_from_trace; both must equal the engine's ad-hoc
// AggMetrics accounting exactly or the bench aborts. Pass --trace-out <path>
// to dump the heartbeat-detection run's trace.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util/cli.hpp"
#include "bench_util/json.hpp"
#include "bench_util/sim_speed.hpp"
#include "bench_util/table.hpp"
#include "bench_util/vec_sai.hpp"
#include "engine/aggregate.hpp"
#include "engine/cluster.hpp"
#include "engine/config.hpp"
#include "engine/health.hpp"
#include "engine/rdd.hpp"
#include "net/cluster.hpp"
#include "obs/export.hpp"
#include "sim/simulator.hpp"

using namespace sparker;
using Vec = std::vector<std::int64_t>;

namespace {

constexpr int kNodes = 4;
constexpr int kParts = 16;
constexpr int kRows = 20;  // 20 ms of compute per task.
constexpr int kDim = 64;
constexpr std::uint64_t kScale = 8192;  // ~4 MiB modeled aggregator.

engine::SplitAggSpec<std::int64_t, Vec, Vec> split_spec() {
  engine::SplitAggSpec<std::int64_t, Vec, Vec> spec;
  spec.base.zero = Vec(kDim, 0);
  spec.base.seq_op = [](Vec& u, const std::int64_t& row) {
    for (int i = 0; i < kDim; ++i) u[static_cast<std::size_t>(i)] += row + i;
  };
  spec.base.comb_op = bench::vec_sai::add;
  spec.base.bytes = bench::vec_sai::bytes(kScale);
  spec.base.partition_cost = [](int, const std::vector<std::int64_t>& rows) {
    return sim::milliseconds(rows.size());
  };
  bench::vec_sai::set_callbacks(spec);
  return spec;
}

struct Run {
  bool failed = false;
  Vec value;
  engine::AggMetrics stats;
  engine::HealthStats health;
  sim::Duration trace_recovery = 0;    ///< obs::recovery_from_trace
  std::int64_t trace_spec_launch = 0;  ///< "spec.launch" instants
  std::int64_t trace_spec_win = 0;     ///< "spec.win" instants
  bool lint_ok = false;
};

std::int64_t count_instants(const obs::TraceSink& sink, const char* name) {
  std::int64_t n = 0;
  for (const auto& ev : sink.events()) {
    if (ev.kind == obs::EventKind::kInstant &&
        std::strcmp(ev.name, name) == 0) {
      ++n;
    }
  }
  return n;
}

Run run_with(const engine::EngineConfig& base,
             const std::string& trace_out = "") {
  engine::EngineConfig cfg = base;
  cfg.agg_mode = engine::AggMode::kSplit;
  cfg.sai_parallelism = 2;
  cfg.collective_timeout = sim::milliseconds(500);
  cfg.stage_retry_backoff = sim::milliseconds(10);
  cfg.trace.enabled = true;
  sim::Simulator simulator;
  bench::SimSpeedScope speed(simulator);
  net::ClusterSpec spec = net::ClusterSpec::bic(kNodes);
  spec.executors_per_node = 1;
  spec.cores_per_executor = 2;
  spec.fabric.gc.enabled = false;
  engine::Cluster cluster(simulator, spec, cfg);
  engine::CachedRdd<std::int64_t> rdd(kParts, cluster.num_executors(),
                                      [](int pid) {
                                        Vec rows(kRows);
                                        for (int i = 0; i < kRows; ++i) {
                                          rows[static_cast<std::size_t>(i)] =
                                              pid * 100 + i;
                                        }
                                        return rows;
                                      });
  auto spec_agg = split_spec();
  Run out;
  auto job = [&]() -> sim::Task<Vec> {
    co_return co_await engine::split_aggregate(cluster, rdd, spec_agg,
                                               &out.stats);
  };
  try {
    out.value = simulator.run_task(job());
  } catch (const std::exception&) {
    out.failed = true;
  }
  out.health = cluster.health().stats();
  // Extract trace-derived numbers before the local Cluster (which owns the
  // sink) is destroyed.
  const obs::TraceSink& sink = cluster.trace();
  out.trace_recovery = obs::recovery_from_trace(sink);
  out.trace_spec_launch = count_instants(sink, "spec.launch");
  out.trace_spec_win = count_instants(sink, "spec.win");
  out.lint_ok = obs::lint(sink).ok();
  if (!trace_out.empty()) obs::write_chrome_trace(sink, trace_out);
  return out;
}

engine::HealthConfig speculation_on() {
  engine::HealthConfig h;
  h.speculation = true;
  h.speculation_interval = sim::milliseconds(5);
  return h;
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_out;
  bench::Cli({{"--trace-out", bench::text(&trace_out), "path"}})
      .parse(argc, argv);
  bench::print_banner(
      "Ablation: health-aware scheduling",
      "Split aggregation (BIC 4 nodes, ~4 MiB modeled aggregator) under "
      "straggler/failure schedules; speculation, heartbeats, quarantine");

  const Run clean = run_with({});
  if (clean.failed) {
    std::printf("baseline run failed; aborting\n");
    return 1;
  }
  const double base_s = sim::to_seconds(clean.stats.end - clean.stats.start);
  const sim::Time ring_mid =
      clean.stats.compute_done +
      (clean.stats.end - clean.stats.compute_done) / 4;

  struct Case {
    const char* label;
    engine::EngineConfig cfg;
  };
  std::vector<Case> cases;
  cases.push_back({"fault-free", {}});
  {
    engine::EngineConfig c;
    c.stragglers.slowdown[3] = 8.0;
    cases.push_back({"straggler x8, no speculation", c});
    c.health = speculation_on();
    cases.push_back({"straggler x8, speculation", c});
  }
  {
    engine::EngineConfig c;
    c.stragglers.slowdown[1] = 4.0;
    c.stragglers.slowdown[3] = 8.0;
    c.health = speculation_on();
    cases.push_back({"stragglers x4+x8, speculation", c});
  }
  {
    engine::EngineConfig c;
    c.fault_schedule.kill_executor(ring_mid, /*executor=*/2);
    cases.push_back({"kill mid-ring, omniscient", c});
    c.health.heartbeats = true;  // 100ms beat, dead after 800ms silence
    cases.push_back({"kill mid-ring, heartbeats", c});
  }
  {
    engine::EngineConfig c;
    // Executor 1 fails every compute task it is given in the first two
    // stage attempts; quarantine benches it, and the third attempt runs on
    // the remaining three executors.
    c.faults.should_fail = [](const engine::TaskId& id) {
      return id.stage == 0 && id.attempt < 2 && id.task % kNodes == 1;
    };
    c.health.quarantine = true;
    c.health.quarantine_max_failures = 2;
    cases.push_back({"flaky executor, quarantine", c});
  }

  bench::Table t({"schedule", "total (s)", "spec launch", "spec win",
                  "win rate", "detect (ms)", "recovery (s)", "overhead"});
  bench::JsonReport report("ablation_speculation");
  report.set("nodes", kNodes)
      .set("partitions", kParts)
      .set("rows_per_partition", kRows)
      .set("aggregator_bytes", static_cast<std::uint64_t>(kDim) * 8 * kScale)
      .set("baseline_s", base_s);

  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto& c = cases[i];
    // Dump the heartbeat-detection run's Chrome trace (index 5: kill
    // mid-ring with heartbeats) when --trace-out was given.
    const Run r = run_with(c.cfg, i == 5 ? trace_out : std::string());
    if (r.failed) {
      t.add_row({c.label, "failed", "-", "-", "-", "-", "-", "-"});
      continue;
    }
    if (r.value != clean.value) {
      std::printf("BUG: schedule '%s' changed the result\n", c.label);
      return 1;
    }
    if (!r.lint_ok) {
      std::printf("BUG: schedule '%s' produced a malformed trace\n", c.label);
      return 1;
    }
    // The speculation and recovery columns come from the trace; they must
    // match the engine's ad-hoc counters exactly.
    if (r.trace_spec_launch != r.stats.speculative_launches ||
        r.trace_spec_win != r.stats.speculative_wins) {
      std::printf(
          "BUG: schedule '%s': trace counts %lld/%lld != metrics %lld/%lld\n",
          c.label, static_cast<long long>(r.trace_spec_launch),
          static_cast<long long>(r.trace_spec_win),
          static_cast<long long>(r.stats.speculative_launches),
          static_cast<long long>(r.stats.speculative_wins));
      return 1;
    }
    if (r.trace_recovery != r.stats.recovery_time) {
      std::printf("BUG: schedule '%s': trace recovery %.9fs != metrics %.9fs\n",
                  c.label, sim::to_seconds(r.trace_recovery),
                  sim::to_seconds(r.stats.recovery_time));
      return 1;
    }
    const double total_s = sim::to_seconds(r.stats.end - r.stats.start);
    const double win_rate =
        r.trace_spec_launch
            ? static_cast<double>(r.trace_spec_win) /
                  static_cast<double>(r.trace_spec_launch)
            : 0.0;
    t.add_row({c.label, bench::fmt(total_s, 3),
               std::to_string(r.trace_spec_launch),
               std::to_string(r.trace_spec_win),
               bench::fmt(win_rate, 2),
               bench::fmt(1e3 * sim::to_seconds(r.health.max_detection_latency),
                          1),
               bench::fmt(sim::to_seconds(r.trace_recovery), 3),
               bench::fmt_times(total_s / base_s, 2)});
  }
  t.print();
  report.add_table("results", t).set("speculation_source", "trace").with_sim_speed().write();

  std::printf(
      "\nEvery schedule returns the bit-identical fault-free value. "
      "Speculation converts straggler overhead into one duplicate task; "
      "heartbeat detection adds its measured latency to recovery compared "
      "with the omniscient failure view; quarantine benches the flaky "
      "executor instead of retrying onto it.\n");
  std::printf(
      "verified: trace-derived speculation counts and recovery time equal "
      "the engine's ad-hoc accounting on every schedule\n");
  if (!trace_out.empty()) {
    std::printf("trace written to %s\n", trace_out.c_str());
  }
  return 0;
}
