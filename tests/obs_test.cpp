// Observability subsystem tests.
//
// Sink/registry unit behaviour: disabled sinks record nothing and return
// kNoSpan, span end is idempotent, Scope closes on unwind, histograms
// bucket by bit width, and MetricsRegistry::to_json is byte-stable.
//
// Engine-level properties, exercised over a split aggregation replayed
// under clean, mid-ring-kill, heartbeat-detection, straggler+speculation
// and flaky+quarantine schedules:
//   * determinism — identical runs export byte-identical Chrome traces;
//   * well-formedness — spans balance (none left open), durations are
//     non-negative, and the exported JSON passes the file lint;
//   * zero overhead — a traced run's result, end time and AggMetrics are
//     identical to an untraced run's;
//   * agreement — trace-derived phase/recovery/speculation numbers equal
//     the engine's ad-hoc accounting exactly, and the MetricsRegistry
//     absorbs the per-job AggMetrics fields.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bench_util/vec_sai.hpp"
#include "engine/aggregate.hpp"
#include "engine/cluster.hpp"
#include "engine/config.hpp"
#include "engine/health.hpp"
#include "engine/rdd.hpp"
#include "net/cluster.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"

namespace sparker {
namespace {

using sim::Simulator;
using sim::Task;
using Vec = std::vector<std::int64_t>;

// ===========================================================================
// TraceSink / MetricsRegistry unit behaviour
// ===========================================================================

TEST(TraceSink, DisabledSinkRecordsNothing) {
  Simulator sim;
  obs::TraceSink sink(sim, /*enabled=*/false);
  EXPECT_FALSE(sink.enabled());
  const obs::SpanId id = sink.begin("cat", "name", 1, 0, {{"k", 7}});
  EXPECT_EQ(id, obs::kNoSpan);
  sink.end(id);
  sink.instant("cat", "i", 1, 0);
  sink.counter("c", 1, 42);
  sink.span_at("cat", "s", 1, 0, 0, 10);
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_EQ(sink.open_spans(), 0u);
  // A disabled sink still exports a loadable (empty) trace.
  const auto r = obs::lint_chrome_trace_text(obs::chrome_trace_json(sink));
  EXPECT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.events, 0u);
}

TEST(TraceSink, SpanLifecycleAndIdempotentEnd) {
  Simulator sim;
  obs::TraceSink sink(sim, /*enabled=*/true);
  auto step = [&](sim::Duration d) {
    auto t = [](Simulator& s, sim::Duration dd) -> Task<void> {
      co_await s.sleep(dd);
    };
    sim.run_task(t(sim, d));
  };
  const obs::SpanId id = sink.begin("cat", "work", 1, 3, {{"k", 7}});
  EXPECT_EQ(sink.open_spans(), 1u);
  step(sim::milliseconds(5));
  sink.end(id, {{"extra", 1}});
  EXPECT_EQ(sink.open_spans(), 0u);
  step(sim::milliseconds(5));
  sink.end(id, {{"extra", 2}});  // idempotent: no effect on a closed span
  const obs::TraceEvent& ev = sink.events().at(0);
  EXPECT_EQ(ev.kind, obs::EventKind::kSpan);
  EXPECT_EQ(ev.duration(), sim::milliseconds(5));
  EXPECT_EQ(ev.arg("k"), 7);
  EXPECT_EQ(ev.arg("extra"), 1);
  EXPECT_FALSE(ev.has_arg("missing"));
  EXPECT_EQ(ev.arg("missing", -9), -9);

  // span_at clamps an inverted interval instead of going negative.
  sink.span_at("cat", "clamped", 1, 0, sim::milliseconds(9),
               sim::milliseconds(3));
  EXPECT_EQ(sink.events().back().duration(), 0u);
  EXPECT_TRUE(obs::lint(sink).ok());
}

TEST(TraceSink, ScopeClosesOnExitUnlessClosed) {
  Simulator sim;
  obs::TraceSink sink(sim, /*enabled=*/true);
  {
    obs::TraceSink::Scope s(sink, sink.begin("cat", "a", 1, 0));
  }
  EXPECT_EQ(sink.open_spans(), 0u);
  {
    obs::TraceSink::Scope s(sink, sink.begin("cat", "b", 1, 0));
    s.close({{"failed", 1}});
  }
  EXPECT_EQ(sink.open_spans(), 0u);
  EXPECT_EQ(sink.events().at(1).arg("failed"), 1);
  // Scope over a disabled sink's kNoSpan is a no-op.
  obs::TraceSink off(sim, /*enabled=*/false);
  {
    obs::TraceSink::Scope s(off, off.begin("cat", "c", 1, 0));
    s.close();
  }
  EXPECT_EQ(off.size(), 0u);
}

TEST(Metrics, HistogramBucketsByBitWidth) {
  obs::Histogram h;
  h.observe(0);    // bucket 0
  h.observe(1);    // bucket 1
  h.observe(5);    // bucket 3
  h.observe(5);
  EXPECT_EQ(h.count, 4u);
  EXPECT_EQ(h.sum, 11);
  EXPECT_EQ(h.min, 0);
  EXPECT_EQ(h.max, 5);
  EXPECT_DOUBLE_EQ(h.mean(), 11.0 / 4.0);
  EXPECT_EQ(h.buckets[0], 1u);
  EXPECT_EQ(h.buckets[1], 1u);
  EXPECT_EQ(h.buckets[3], 2u);
}

TEST(Metrics, RegistryAndDeterministicJson) {
  auto fill = [](obs::MetricsRegistry& reg) {
    std::int64_t& c = reg.counter("b.count");
    c += 3;
    reg.add("a.count", 2);
    reg.set_gauge("g.load", 0.5);
    reg.histogram("h.lat").observe(1000);
    reg.histogram("h.lat").observe(3000);
  };
  obs::MetricsRegistry r1, r2;
  fill(r1);
  fill(r2);
  EXPECT_EQ(r1.counter_value("b.count"), 3);
  EXPECT_EQ(r1.counter_value("a.count"), 2);
  EXPECT_EQ(r1.counter_value("absent"), 0);
  EXPECT_DOUBLE_EQ(r1.gauge_value("g.load"), 0.5);
  ASSERT_NE(r1.find_histogram("h.lat"), nullptr);
  EXPECT_EQ(r1.find_histogram("h.lat")->count, 2u);
  EXPECT_EQ(r1.find_histogram("absent"), nullptr);
  EXPECT_EQ(r1.to_json(), r2.to_json());
  // Sorted iteration: "a.count" precedes "b.count" in the snapshot.
  const std::string j = r1.to_json();
  EXPECT_LT(j.find("a.count"), j.find("b.count"));
  r1.clear();
  EXPECT_EQ(r1.counters().size(), 0u);
}

// ===========================================================================
// File lint verdicts (lint_chrome_trace_text)
// ===========================================================================

// Pins the file lint's verdict on each kind of malformed input and each
// span-shape defect. Rows marked `tightened` are non-RFC 8259 inputs the
// hand-written validator used to accept; the strict reader rejects them.
TEST(TraceLint, VerdictTable) {
  struct Case {
    const char* label;
    std::string text;
    bool parsed = false;
    bool ok = false;
    std::size_t events = 0, spans = 0, unclosed = 0, missing_dur = 0,
                negative = 0, collective = 0, missing_algo = 0;
  };
  const auto wrap = [](const std::string& events) {
    return "{\"traceEvents\":[" + events + "]}";
  };
  // `n` nested arrays; the innermost sits at depth n - 1 (the root is 0).
  const auto nested = [](int n) {
    return std::string(static_cast<std::size_t>(n), '[') +
           std::string(static_cast<std::size_t>(n), ']');
  };
  const Case cases[] = {
      // Malformed input never parses.
      {"empty input", ""},
      {"trailing data", wrap("") + " x"},
      {"trailing comma in object", "{\"traceEvents\":[],}"},
      {"trailing comma in array", wrap("1,")},
      {"unterminated string", "{\"traceEvents\":[{\"ph\":\"X"},
      {"raw control character", wrap("{\"name\":\"a\x01z\"}")},
      {"\\x escape", wrap("{\"name\":\"\\x41\"}")},
      {"truncated \\u12", wrap("{\"name\":\"\\u12\"}")},
      {"value at depth 65", nested(66)},
      {"depth 64 still parses", nested(65), true, true},
      {"exponent without digits", wrap("{\"dur\":1e}")},
      {"minus inside a number", wrap("{\"dur\":1-2}")},
      {"tightened: leading '.'", wrap("{\"dur\":.5}")},
      {"tightened: hex number", wrap("{\"dur\":0x1F}")},
      {"tightened: inf", wrap("{\"dur\":inf}")},
      {"tightened: leading '+'", wrap("{\"dur\":+3}")},
      {"tightened: \\uZZZZ", wrap("{\"name\":\"\\uZZZZ\"}")},
      // Span shape.
      {"X without dur", wrap(R"({"ph":"X","name":"a"})"), true, false, 1, 1,
       0, 1},
      {"negative dur", wrap(R"({"ph":"X","dur":-1.5})"), true, false, 1, 1, 0,
       0, 1},
      // The hand-written validator failed to parse a non-numeric dur.
      {"changed: string dur", wrap(R"({"ph":"X","dur":"1"})"), true, false, 1,
       1, 0, 1},
      {"unclosed inside args",
       wrap(R"({"ph":"X","dur":1,"args":{"unclosed":1}})"), true, false, 1, 1,
       1},
      {"collective with algo in args",
       wrap(R"({"ph":"X","cat":"collective","dur":1,"args":{"algo":1}})"),
       true, true, 1, 1, 0, 0, 0, 1, 0},
      {"collective without algo",
       wrap(R"({"ph":"X","cat":"collective","dur":1,"args":{"job":0}})"),
       true, false, 1, 1, 0, 0, 0, 1, 1},
      {"traceEvents not at the root",
       R"({"meta":{"traceEvents":[{"ph":"X"}]},"traceEvents":[]})", true,
       true},
      {"only object entries are events",
       wrap(R"(1,"x",{"ph":"M"},{"ph":"i","ts":2},{"ph":"X","dur":0.5})"),
       true, true, 3, 1},
  };
  for (const Case& c : cases) {
    const obs::FileLintResult r = obs::lint_chrome_trace_text(c.text);
    EXPECT_EQ(r.parsed, c.parsed) << c.label << ": " << r.error;
    EXPECT_EQ(r.error.empty(), c.parsed) << c.label;
    EXPECT_EQ(r.ok(), c.ok) << c.label;
    EXPECT_EQ(r.events, c.events) << c.label;
    EXPECT_EQ(r.spans, c.spans) << c.label;
    EXPECT_EQ(r.unclosed, c.unclosed) << c.label;
    EXPECT_EQ(r.spans_missing_dur, c.missing_dur) << c.label;
    EXPECT_EQ(r.negative_durations, c.negative) << c.label;
    EXPECT_EQ(r.collective_spans, c.collective) << c.label;
    EXPECT_EQ(r.collective_spans_missing_algo, c.missing_algo) << c.label;
  }
}

// ===========================================================================
// Engine scenarios: a split aggregation under fault/straggler schedules
// ===========================================================================

constexpr int kNodes = 4;
constexpr int kParts = 8;
constexpr int kRows = 10;  // 10 ms of compute per task
constexpr int kDim = 32;
constexpr std::uint64_t kScale = 8192;

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

struct ScenarioResult {
  Vec value;
  sim::Time end_time = 0;
  engine::AggMetrics stats;
  std::string trace_json;  // empty when untraced
  obs::SinkLintResult lint;
  std::size_t open_spans = 0;
  obs::PhaseBreakdown phases;
  sim::Duration trace_recovery = 0;
  std::int64_t spec_launches = 0;
  std::int64_t spec_wins = 0;
  std::set<std::string> names;
  /// Distinct `algo` arg values stamped on cat-"collective" spans.
  std::set<std::int64_t> collective_algos;
  std::size_t collective_spans = 0;
  /// [ts, end] of every ring worker span ("ring.rs" / "ring.ag").
  std::vector<std::pair<sim::Time, sim::Time>> ring_spans;
  std::map<std::string, std::int64_t> counters;
  std::uint64_t task_duration_samples = 0;
  std::string metrics_json;
};

template <typename Mutate>
ScenarioResult run_scenario(Mutate&& mutate, bool traced) {
  engine::EngineConfig cfg;
  cfg.agg_mode = engine::AggMode::kSplit;
  cfg.sai_parallelism = 2;
  cfg.collective_timeout = sim::milliseconds(500);
  cfg.stage_retry_backoff = sim::milliseconds(10);
  mutate(cfg);
  cfg.trace.enabled = traced;
  Simulator simulator;
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
  ScenarioResult out;
  auto job = [&]() -> Task<Vec> {
    co_return co_await engine::split_aggregate(cluster, rdd, spec_agg,
                                               &out.stats);
  };
  out.value = simulator.run_task(job());
  out.end_time = simulator.now();
  const obs::TraceSink& sink = cluster.trace();
  if (traced) {
    out.trace_json = obs::chrome_trace_json(sink);
    out.lint = obs::lint(sink);
    out.open_spans = sink.open_spans();
    out.phases = obs::phase_breakdown(sink);
    out.trace_recovery = obs::recovery_from_trace(sink);
    for (const obs::TraceEvent& ev : sink.events()) {
      out.names.insert(ev.name);
      if (ev.kind == obs::EventKind::kInstant) {
        if (std::strcmp(ev.name, "spec.launch") == 0) ++out.spec_launches;
        if (std::strcmp(ev.name, "spec.win") == 0) ++out.spec_wins;
      }
      if (ev.kind == obs::EventKind::kSpan && !ev.is_open_span() &&
          std::strncmp(ev.name, "ring.", 5) == 0) {
        out.ring_spans.emplace_back(ev.ts, ev.end);
      }
      if (ev.kind == obs::EventKind::kSpan &&
          std::strcmp(ev.cat, "collective") == 0) {
        ++out.collective_spans;
        out.collective_algos.insert(ev.arg("algo", -1));
      }
    }
  } else {
    EXPECT_EQ(sink.size(), 0u);
  }
  out.counters = cluster.metrics().counters();
  if (const obs::Histogram* h =
          cluster.metrics().find_histogram("task.duration_ns")) {
    out.task_duration_samples = h->count;
  }
  out.metrics_json = cluster.metrics().to_json();
  return out;
}

// The schedules. The mid-ring kill time is the midpoint of the clean run's
// ring-collective span interval, read from its own trace — so the kill
// lands while the collective is genuinely in flight and the attempt fails
// (a kill during the pre-collective scheduler delay would be absorbed by a
// refold inside a successful attempt, and one after the last ring worker
// finishes would go unnoticed by the job).
sim::Time mid_ring_time() {
  static const sim::Time t = [] {
    const ScenarioResult clean =
        run_scenario([](engine::EngineConfig&) {}, /*traced=*/true);
    sim::Time lo = sim::kTimeNever, hi = 0;
    for (const auto& [ts, end] : clean.ring_spans) {
      lo = std::min(lo, ts);
      hi = std::max(hi, end);
    }
    return lo + (hi - lo) / 2;
  }();
  return t;
}

void clean_schedule(engine::EngineConfig&) {}

void kill_schedule(engine::EngineConfig& c) {
  c.fault_schedule.kill_executor(mid_ring_time(), /*executor=*/2);
}

void heartbeat_schedule(engine::EngineConfig& c) {
  kill_schedule(c);
  c.health.heartbeats = true;
}

void speculation_schedule(engine::EngineConfig& c) {
  c.stragglers.slowdown[3] = 8.0;
  c.health.speculation = true;
  c.health.speculation_interval = sim::milliseconds(5);
}

void quarantine_schedule(engine::EngineConfig& c) {
  c.faults.should_fail = [](const engine::TaskId& id) {
    return id.stage == 0 && id.attempt < 2 && id.task % kNodes == 1;
  };
  c.health.quarantine = true;
  c.health.quarantine_max_failures = 2;
}

using Schedule = void (*)(engine::EngineConfig&);
const std::vector<std::pair<const char*, Schedule>>& schedules() {
  static const std::vector<std::pair<const char*, Schedule>> s = {
      {"clean", clean_schedule},
      {"kill-mid-ring", kill_schedule},
      {"kill-mid-ring+heartbeats", heartbeat_schedule},
      {"straggler+speculation", speculation_schedule},
      {"flaky+quarantine", quarantine_schedule},
  };
  return s;
}

TEST(ObsEngine, TracesAreDeterministic) {
  for (const auto& [label, mut] : schedules()) {
    const ScenarioResult a = run_scenario(mut, /*traced=*/true);
    const ScenarioResult b = run_scenario(mut, /*traced=*/true);
    EXPECT_GT(a.trace_json.size(), 0u) << label;
    EXPECT_EQ(a.trace_json, b.trace_json)
        << label << ": identical runs must export byte-identical traces";
    EXPECT_EQ(a.metrics_json, b.metrics_json) << label;
  }
}

TEST(ObsEngine, TracesAreWellFormedUnderFaults) {
  for (const auto& [label, mut] : schedules()) {
    const ScenarioResult r = run_scenario(mut, /*traced=*/true);
    EXPECT_EQ(r.open_spans, 0u) << label << ": every begin() needs an end()";
    EXPECT_TRUE(r.lint.ok())
        << label << ": " << r.lint.open_spans << " open, "
        << r.lint.negative_durations << " negative";
    const auto file = obs::lint_chrome_trace_text(r.trace_json);
    EXPECT_TRUE(file.ok()) << label << ": " << file.error;
    EXPECT_EQ(file.spans, r.lint.spans) << label;
    // The taxonomy's core events are present in every schedule.
    for (const char* name :
         {"job.split_aggregate", "stage.ring", "ring.rs", "task",
          "ser.result", "agg_compute", "agg_reduce"}) {
      EXPECT_TRUE(r.names.count(name)) << label << " missing " << name;
    }
  }
}

TEST(ObsEngine, KillScheduleEmitsRecoveryEvents) {
  const ScenarioResult r = run_scenario(kill_schedule, /*traced=*/true);
  EXPECT_GE(r.stats.ring_stage_attempts, 2);
  for (const char* name : {"detect.settle", "recover.backoff",
                           "recover.refold"}) {
    EXPECT_TRUE(r.names.count(name)) << "missing " << name;
  }
}

TEST(ObsEngine, TracingHasZeroSimulationOverhead) {
  for (const auto& [label, mut] : schedules()) {
    const ScenarioResult on = run_scenario(mut, /*traced=*/true);
    const ScenarioResult off = run_scenario(mut, /*traced=*/false);
    EXPECT_EQ(on.value, off.value) << label;
    EXPECT_EQ(on.end_time, off.end_time) << label;
    EXPECT_EQ(on.stats.start, off.stats.start) << label;
    EXPECT_EQ(on.stats.compute_done, off.stats.compute_done) << label;
    EXPECT_EQ(on.stats.end, off.stats.end) << label;
    EXPECT_EQ(on.stats.task_retries, off.stats.task_retries) << label;
    EXPECT_EQ(on.stats.stage_restarts, off.stats.stage_restarts) << label;
    EXPECT_EQ(on.stats.ring_stage_attempts, off.stats.ring_stage_attempts)
        << label;
    EXPECT_EQ(on.stats.recovery_time, off.stats.recovery_time) << label;
    EXPECT_EQ(on.stats.speculative_launches, off.stats.speculative_launches)
        << label;
    EXPECT_EQ(on.stats.speculative_wins, off.stats.speculative_wins) << label;
    // The registry (always on) is identical too.
    EXPECT_EQ(on.metrics_json, off.metrics_json) << label;
  }
}

TEST(ObsEngine, PhaseBreakdownMatchesAdHocAccountingExactly) {
  for (const auto& [label, mut] : schedules()) {
    const ScenarioResult r = run_scenario(mut, /*traced=*/true);
    EXPECT_EQ(r.phases.agg_compute, r.stats.compute_time()) << label;
    EXPECT_EQ(r.phases.agg_reduce, r.stats.reduce_time()) << label;
    // A bare aggregation has no driver / non-agg phases.
    EXPECT_EQ(r.phases.driver, 0u) << label;
    EXPECT_EQ(r.phases.non_agg, 0u) << label;
  }
}

TEST(ObsEngine, RecoveryFromTraceMatchesMetricsExactly) {
  for (const auto& [label, mut] : schedules()) {
    const ScenarioResult r = run_scenario(mut, /*traced=*/true);
    EXPECT_EQ(r.trace_recovery, r.stats.recovery_time) << label;
  }
  const ScenarioResult kill = run_scenario(kill_schedule, /*traced=*/true);
  EXPECT_GT(kill.trace_recovery, 0u);
}

TEST(ObsEngine, SpeculationInstantsMatchMetrics) {
  const ScenarioResult r = run_scenario(speculation_schedule, /*traced=*/true);
  EXPECT_GT(r.stats.speculative_launches, 0);
  EXPECT_EQ(r.spec_launches, r.stats.speculative_launches);
  EXPECT_EQ(r.spec_wins, r.stats.speculative_wins);
}

TEST(ObsEngine, CollectiveSpansCarryTheResolvedAlgorithm) {
  // Every collective span the registry opens must be stamped with the
  // algorithm that actually ran — including under kAuto, where the span
  // must carry the tuner's pick, never the kAuto sentinel. Both lints
  // (sink-level and file-level) enforce the same invariant.
  for (comm::AlgoId algo :
       {comm::AlgoId::kRing, comm::AlgoId::kHalving, comm::AlgoId::kPairwise,
        comm::AlgoId::kDriverFunnel, comm::AlgoId::kAuto}) {
    const ScenarioResult r = run_scenario(
        [algo](engine::EngineConfig& c) { c.collective_algo = algo; },
        /*traced=*/true);
    const char* label = comm::to_string(algo);
    ASSERT_GT(r.collective_spans, 0u) << label;
    EXPECT_EQ(r.lint.collective_spans, r.collective_spans) << label;
    EXPECT_EQ(r.lint.collective_spans_missing_algo, 0u) << label;
    const auto file = obs::lint_chrome_trace_text(r.trace_json);
    EXPECT_EQ(file.collective_spans, r.collective_spans) << label;
    EXPECT_EQ(file.collective_spans_missing_algo, 0u) << label;
    ASSERT_EQ(r.collective_algos.size(), 1u)
        << label << ": one algorithm per clean run";
    const auto stamped =
        static_cast<comm::AlgoId>(*r.collective_algos.begin());
    if (algo == comm::AlgoId::kAuto) {
      EXPECT_NE(stamped, comm::AlgoId::kAuto) << label;
    } else {
      EXPECT_EQ(stamped, algo) << label;
    }
  }
}

TEST(ObsEngine, TracesAreDeterministicPerAlgorithm) {
  // Byte-identical exports for identical runs, for every selectable
  // algorithm (the schedule-matrix determinism test only covers the
  // default ring).
  for (comm::AlgoId algo :
       {comm::AlgoId::kHalving, comm::AlgoId::kPairwise,
        comm::AlgoId::kDriverFunnel, comm::AlgoId::kAuto}) {
    auto mutate = [algo](engine::EngineConfig& c) {
      c.collective_algo = algo;
    };
    const ScenarioResult a = run_scenario(mutate, /*traced=*/true);
    const ScenarioResult b = run_scenario(mutate, /*traced=*/true);
    EXPECT_GT(a.trace_json.size(), 0u) << comm::to_string(algo);
    EXPECT_EQ(a.trace_json, b.trace_json) << comm::to_string(algo);
    EXPECT_EQ(a.metrics_json, b.metrics_json) << comm::to_string(algo);
  }
}

TEST(ObsEngine, RegistryAbsorbsJobMetrics) {
  for (const auto& [label, mut] : schedules()) {
    const ScenarioResult r = run_scenario(mut, /*traced=*/false);
    auto counter = [&](const char* name) {
      auto it = r.counters.find(name);
      return it == r.counters.end() ? std::int64_t{0} : it->second;
    };
    EXPECT_EQ(counter("agg.jobs"), 1) << label;
    EXPECT_EQ(counter("agg.jobs.split"), 1) << label;
    EXPECT_EQ(counter("agg.task_retries"), r.stats.task_retries) << label;
    EXPECT_EQ(counter("agg.stage_restarts"), r.stats.stage_restarts) << label;
    EXPECT_EQ(counter("agg.ring_stage_attempts"),
              r.stats.ring_stage_attempts)
        << label;
    EXPECT_EQ(counter("agg.recovery_time_ns"),
              static_cast<std::int64_t>(r.stats.recovery_time))
        << label;
    EXPECT_EQ(counter("agg.speculative_launches"),
              r.stats.speculative_launches)
        << label;
    EXPECT_EQ(counter("agg.speculative_wins"), r.stats.speculative_wins)
        << label;
    // Every successful task attempt lands a duration sample; retries and
    // speculative duplicates can only add to the partition count.
    EXPECT_GE(r.task_duration_samples, static_cast<std::uint64_t>(kParts))
        << label;
  }
}

}  // namespace
}  // namespace sparker
