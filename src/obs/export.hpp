#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "sim/types.hpp"

/// \file export.hpp
/// Consumers of a recorded TraceSink: the Chrome `trace_event` JSON
/// exporter (loadable in Perfetto / chrome://tracing), well-formedness
/// lints, and the trace-derived time breakdowns that replace the benches'
/// ad-hoc accounting.

namespace sparker::obs {

/// Renders the sink as Chrome trace_event JSON ("X" complete spans, "i"
/// instants, "C" counters, "M" process-name metadata). Timestamps are
/// emitted in microseconds with nanosecond precision ("%llu.%03llu"), so
/// identical sinks render byte-identically. Spans still open at export time
/// are closed at the trace's maximum timestamp and tagged with an
/// `"unclosed": 1` arg, which the lint flags.
std::string chrome_trace_json(const TraceSink& sink);

/// Writes chrome_trace_json() to `path`; false (with a stderr warning) on
/// I/O failure.
bool write_chrome_trace(const TraceSink& sink, const std::string& path);

/// In-memory well-formedness check of a recorded sink.
struct SinkLintResult {
  std::size_t events = 0;
  std::size_t spans = 0;
  std::size_t open_spans = 0;           ///< begun but never ended
  std::size_t negative_durations = 0;   ///< end < ts (impossible by design)
  std::size_t collective_spans = 0;     ///< cat "collective"
  /// Collective spans without an `algo` arg: every registry dispatch must
  /// stamp which algorithm ran, so breakdown tools can group by it.
  std::size_t collective_spans_missing_algo = 0;
  bool ok() const {
    return open_spans == 0 && negative_durations == 0 &&
           collective_spans_missing_algo == 0;
  }
};
SinkLintResult lint(const TraceSink& sink);

/// File-level lint of an exported trace: the text must be strict JSON
/// (obs::json::parse), every "X" span in the root's `traceEvents` must
/// carry a non-negative numeric dur, no span may be tagged unclosed, and
/// every collective span must name its algo. Used by the `trace_lint` tool
/// and CI.
struct FileLintResult {
  bool parsed = false;       ///< text is strict RFC 8259 JSON
  std::string error;         ///< parse error description when !parsed
  std::size_t events = 0;    ///< traceEvents entries
  std::size_t spans = 0;     ///< "ph":"X" entries
  std::size_t unclosed = 0;  ///< spans the exporter had to auto-close
  std::size_t spans_missing_dur = 0;
  std::size_t negative_durations = 0;
  std::size_t collective_spans = 0;  ///< "cat":"collective" spans
  std::size_t collective_spans_missing_algo = 0;  ///< ...without an algo arg
  bool ok() const {
    return parsed && unclosed == 0 && spans_missing_dur == 0 &&
           negative_durations == 0 && collective_spans_missing_algo == 0;
  }
};
FileLintResult lint_chrome_trace_text(const std::string& text);

/// The paper's Fig. 2 phases of an ML job, plus the broadcast share of
/// non_agg. Each names one PhaseBreakdown bucket and the category-"phase"
/// span that records it; the names live in one table in export.cpp.
enum class Phase { kDriver, kNonAgg, kAggCompute, kAggReduce, kBroadcast };

/// Wall-clock attribution to the phases. The ML drivers fill one through
/// record_phase(); phase_breakdown() sums one from a trace's phase spans,
/// and the two agree to the nanosecond.
struct PhaseBreakdown {
  sim::Duration driver = 0;       ///< non-scalable driver computation.
  sim::Duration non_agg = 0;      ///< broadcast & other scalable non-agg.
  sim::Duration agg_compute = 0;  ///< first stage of each aggregation.
  sim::Duration agg_reduce = 0;   ///< subsequent stages of each aggregation.
  /// Model-shipping share of `non_agg` ("broadcast" phase spans are nested
  /// inside the same interval as their "non_agg" span). Not part of
  /// total(): the time is already counted in non_agg.
  sim::Duration broadcast = 0;
  sim::Duration total() const {
    return driver + non_agg + agg_compute + agg_reduce;
  }
  /// Adds `d` to the bucket of phase `p`.
  void add(Phase p, sim::Duration d);
  bool operator==(const PhaseBreakdown&) const = default;
};

/// Emits the "phase" span of `p` over [from, to) on the driver track.
void phase_span(TraceSink& sink, Phase p, sim::Time from, sim::Time to,
                std::initializer_list<Arg> args);

/// Records [from, to) as phase `p`: adds it to `b`'s bucket and emits its
/// phase span with `args`.
void record_phase(TraceSink& sink, PhaseBreakdown& b, Phase p, sim::Time from,
                  sim::Time to, std::initializer_list<Arg> args);

/// Sums the sink's closed "phase" spans into their buckets.
PhaseBreakdown phase_breakdown(const TraceSink& sink);

/// Busy-time drill-down per category. These are sums of span durations, not
/// a partition of wall-clock: work overlaps across executors, and "ser"
/// spans nested inside ring/combine tasks are also counted in "reduce".
/// Spans tagged `failed: 1` (attempts aborted by a fault) are excluded —
/// their duration is dominated by waiting on a dead peer, which the
/// recovery accounting already covers.
struct StageBreakdown {
  sim::Duration compute = 0;       ///< task attempts (cat "compute")
  sim::Duration reduce = 0;        ///< ring/combine/driver reduce (cat "reduce")
  sim::Duration ser = 0;           ///< (de)serialization (cat "ser")
  sim::Duration driver_fetch = 0;  ///< result fetches into the driver
  sim::Duration detect = 0;        ///< failure-detection waits (cat "detect")
  sim::Duration recover = 0;       ///< refold + retry backoff (cat "recover")
  sim::Duration comp = 0;          ///< sparse encode/decode scans (cat "comp")
};
struct DetailReport {
  StageBreakdown total;
  /// Keyed by the "job" arg engine spans carry; spans without one are only
  /// in `total`.
  std::map<std::int64_t, StageBreakdown> per_job;
};
DetailReport detail_report(const TraceSink& sink);
std::string format_detail_report(const DetailReport& report);

/// Trace-derived total recovery time: failed collective-stage attempts plus
/// detection waits plus retry backoffs. Matches AggMetrics::recovery_time
/// exactly (those three intervals are contiguous in the retry loop). With
/// overlapped recovery (`EngineConfig::overlap_recovery`) the detect/backoff
/// spans run *inside* a `recover.overlap` wrapper span; the wrapper's
/// duration is counted instead of its contents, so the identity with
/// AggMetrics::recovery_time holds in both modes.
sim::Duration recovery_from_trace(const TraceSink& sink);

/// Per-executor wall-clock timeline derived from the trace: `busy` is the
/// union of the executor's closed, non-failed spans; `blocked` is time
/// provably spent waiting on a peer (ring.recv wait intervals plus failed
/// attempt spans), which takes precedence where the two overlap; `idle` is
/// the remainder of the observation window. busy + blocked + idle ==
/// window_end - window_start for every executor.
struct ExecutorTimeline {
  int executor = -1;
  sim::Duration busy = 0;
  sim::Duration blocked = 0;
  sim::Duration idle = 0;
};
struct FlameReport {
  sim::Time window_start = 0;
  sim::Time window_end = 0;
  std::vector<ExecutorTimeline> executors;
};
FlameReport flame_report(const TraceSink& sink);
std::string format_flame_report(const FlameReport& report);

/// Elastic-membership activity derived from the trace's "membership"
/// category: event counts plus time-to-stable-ring — for each
/// ring-impacting event (admission or decommission), the gap until the
/// next `membership.ring_formed` instant.
struct MembershipTimeline {
  int joins_announced = 0;    ///< membership.join instants
  int joins_admitted = 0;     ///< membership.active instants
  int decommissions = 0;      ///< membership.decommission instants
  int departures = 0;         ///< membership.left instants
  int migrations = 0;         ///< membership.migrate spans
  int ring_rebuilds = 0;      ///< membership.ring_formed instants
  int stabilized_events = 0;  ///< ring-impacting events with a later rebuild
  sim::Duration max_time_to_stable = 0;
  sim::Duration total_time_to_stable = 0;
};
MembershipTimeline membership_report(const TraceSink& sink);

}  // namespace sparker::obs
