#include "obs/export.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <optional>
#include <set>
#include <string_view>

#include "obs/json.hpp"

namespace sparker::obs {

namespace {

// ns -> µs with nanosecond precision, deterministic formatting.
void append_us(std::string& out, sim::Time t) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                static_cast<unsigned long long>(t / 1000),
                static_cast<unsigned long long>(t % 1000));
  out += buf;
}

void append_args(std::string& out, const TraceEvent& ev, bool unclosed) {
  out += "\"args\":{";
  bool first = true;
  for (const Arg& a : ev.args) {
    if (!first) out.push_back(',');
    first = false;
    json::append_quoted(out, a.key);
    out.push_back(':');
    out += std::to_string(a.value);
  }
  if (unclosed) {
    if (!first) out.push_back(',');
    out += "\"unclosed\":1";
  }
  out.push_back('}');
}

std::string process_name(int pid) {
  if (pid == kDriverPid) return "driver";
  if (pid == kSimPid) return "sim kernel";
  if (pid == kNetPid) return "network";
  if (pid >= kExecPidBase) {
    return "executor " + std::to_string(pid - kExecPidBase);
  }
  return "pid " + std::to_string(pid);
}

}  // namespace

std::string chrome_trace_json(const TraceSink& sink) {
  const std::vector<TraceEvent>& events = sink.events();

  // Open spans are closed at the trace's maximum timestamp so the file is
  // always loadable; the lint still flags them via the "unclosed" arg.
  sim::Time max_ts = 0;
  std::set<int> pids;
  for (const TraceEvent& ev : events) {
    max_ts = std::max(max_ts, ev.ts);
    if (ev.kind == EventKind::kSpan && !ev.is_open_span()) {
      max_ts = std::max(max_ts, ev.end);
    }
    pids.insert(ev.pid);
  }

  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) out.push_back(',');
    first = false;
    out += "\n";
  };

  for (int pid : pids) {
    sep();
    out += "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" +
           std::to_string(pid) + ",\"tid\":0,\"args\":{\"name\":";
    json::append_quoted(out, process_name(pid));
    out += "}}";
    sep();
    out += "{\"ph\":\"M\",\"name\":\"process_sort_index\",\"pid\":" +
           std::to_string(pid) + ",\"tid\":0,\"args\":{\"sort_index\":" +
           std::to_string(pid) + "}}";
  }

  for (const TraceEvent& ev : events) {
    sep();
    switch (ev.kind) {
      case EventKind::kSpan: {
        const bool unclosed = ev.is_open_span();
        const sim::Time end =
            unclosed ? std::max(max_ts, ev.ts) : std::max(ev.end, ev.ts);
        out += "{\"ph\":\"X\",\"name\":";
        json::append_quoted(out, ev.name);
        out += ",\"cat\":";
        json::append_quoted(out, ev.cat);
        out += ",\"pid\":" + std::to_string(ev.pid) +
               ",\"tid\":" + std::to_string(ev.tid) + ",\"ts\":";
        append_us(out, ev.ts);
        out += ",\"dur\":";
        append_us(out, end - ev.ts);
        out.push_back(',');
        append_args(out, ev, unclosed);
        out.push_back('}');
        break;
      }
      case EventKind::kInstant: {
        out += "{\"ph\":\"i\",\"s\":\"t\",\"name\":";
        json::append_quoted(out, ev.name);
        out += ",\"cat\":";
        json::append_quoted(out, ev.cat);
        out += ",\"pid\":" + std::to_string(ev.pid) +
               ",\"tid\":" + std::to_string(ev.tid) + ",\"ts\":";
        append_us(out, ev.ts);
        out.push_back(',');
        append_args(out, ev, false);
        out.push_back('}');
        break;
      }
      case EventKind::kCounter: {
        out += "{\"ph\":\"C\",\"name\":";
        json::append_quoted(out, ev.name);
        out += ",\"pid\":" + std::to_string(ev.pid) + ",\"tid\":0,\"ts\":";
        append_us(out, ev.ts);
        out += ",\"args\":{\"value\":" + std::to_string(ev.value) + "}}";
        break;
      }
    }
  }
  out += "\n]}\n";
  return out;
}

bool write_chrome_trace(const TraceSink& sink, const std::string& path) {
  const std::string json = chrome_trace_json(sink);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "warning: cannot write trace to %s\n", path.c_str());
    return false;
  }
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  std::fclose(f);
  if (!ok) std::fprintf(stderr, "warning: short write to %s\n", path.c_str());
  return ok;
}

SinkLintResult lint(const TraceSink& sink) {
  SinkLintResult r;
  r.events = sink.size();
  for (const TraceEvent& ev : sink.events()) {
    if (ev.kind != EventKind::kSpan) continue;
    ++r.spans;
    if (ev.is_open_span()) {
      ++r.open_spans;
    } else if (ev.end < ev.ts) {
      ++r.negative_durations;
    }
    if (std::strcmp(ev.cat, "collective") == 0) {
      ++r.collective_spans;
      if (ev.arg("algo", -1) < 0) ++r.collective_spans_missing_algo;
    }
  }
  return r;
}

namespace {

/// True if an object anywhere inside `v` (`v` included) has a `key` member.
bool has_key(const json::Value& v, std::string_view key) {
  for (const auto& [k, item] : v.fields) {
    if (k == key || has_key(item, key)) return true;
  }
  for (const json::Value& item : v.items) {
    if (has_key(item, key)) return true;
  }
  return false;
}

}  // namespace

FileLintResult lint_chrome_trace_text(const std::string& text) {
  FileLintResult r;
  const std::optional<json::Value> doc = json::parse(text, r.error);
  r.parsed = doc.has_value();
  if (!doc) return r;
  for (const auto& [root_key, list] : doc->fields) {
    if (root_key != "traceEvents") continue;
    for (const json::Value& ev : list.items) {
      if (ev.kind != json::Value::Kind::kObject) continue;
      ++r.events;
      bool span = false, collective = false;
      const json::Value* dur = nullptr;
      for (const auto& [key, v] : ev.fields) {
        // Only a string value has a non-empty str.
        if (key == "ph" && v.str == "X") span = true;
        if (key == "cat" && v.str == "collective") collective = true;
        if (key == "dur") dur = &v;
      }
      if (!span) continue;
      ++r.spans;
      if (!dur || dur->kind != json::Value::Kind::kNumber) {
        ++r.spans_missing_dur;
      } else if (dur->num < 0) {
        ++r.negative_durations;
      }
      // The exporter tags auto-closed spans in args; the key counts at any
      // depth inside the event, as does the collective's algo.
      if (has_key(ev, "unclosed")) ++r.unclosed;
      if (collective) {
        ++r.collective_spans;
        if (!has_key(ev, "algo")) ++r.collective_spans_missing_algo;
      }
    }
  }
  return r;
}

namespace {

constexpr const char* kPhaseCat = "phase";

/// Span name and bucket of each Phase, indexed by it.
struct PhaseRow {
  const char* name;
  sim::Duration PhaseBreakdown::*bucket;
};
constexpr PhaseRow kPhases[] = {
    {"driver", &PhaseBreakdown::driver},
    {"non_agg", &PhaseBreakdown::non_agg},
    {"agg_compute", &PhaseBreakdown::agg_compute},
    {"agg_reduce", &PhaseBreakdown::agg_reduce},
    {"broadcast", &PhaseBreakdown::broadcast},
};

const PhaseRow& row_of(Phase p) {
  return kPhases[static_cast<std::size_t>(p)];
}

}  // namespace

void PhaseBreakdown::add(Phase p, sim::Duration d) {
  this->*row_of(p).bucket += d;
}

void phase_span(TraceSink& sink, Phase p, sim::Time from, sim::Time to,
                std::initializer_list<Arg> args) {
  sink.span_at(kPhaseCat, row_of(p).name, kDriverPid, 0, from, to, args);
}

void record_phase(TraceSink& sink, PhaseBreakdown& b, Phase p, sim::Time from,
                  sim::Time to, std::initializer_list<Arg> args) {
  b.add(p, to - from);
  phase_span(sink, p, from, to, args);
}

PhaseBreakdown phase_breakdown(const TraceSink& sink) {
  PhaseBreakdown b;
  for (const TraceEvent& ev : sink.events()) {
    if (ev.kind != EventKind::kSpan || ev.is_open_span()) continue;
    if (std::strcmp(ev.cat, kPhaseCat) != 0) continue;
    for (const PhaseRow& row : kPhases) {
      if (std::strcmp(ev.name, row.name) == 0) b.*row.bucket += ev.duration();
    }
  }
  return b;
}

DetailReport detail_report(const TraceSink& sink) {
  DetailReport report;
  auto bump = [](StageBreakdown& b, const TraceEvent& ev, sim::Duration d) {
    if (std::strcmp(ev.cat, "compute") == 0) {
      b.compute += d;
    } else if (std::strcmp(ev.cat, "reduce") == 0) {
      b.reduce += d;
    } else if (std::strcmp(ev.cat, "ser") == 0) {
      b.ser += d;
    } else if (std::strcmp(ev.cat, "fetch") == 0) {
      if (std::strcmp(ev.name, "fetch.driver") == 0) b.driver_fetch += d;
    } else if (std::strcmp(ev.cat, "detect") == 0) {
      b.detect += d;
    } else if (std::strcmp(ev.cat, "recover") == 0) {
      b.recover += d;
    } else if (std::strcmp(ev.cat, "comp") == 0) {
      b.comp += d;
    }
  };
  for (const TraceEvent& ev : sink.events()) {
    if (ev.kind != EventKind::kSpan || ev.is_open_span()) continue;
    // Spans from failed attempts are mostly time spent blocked on a peer
    // that will never answer (hang-until-timeout); that interval is already
    // attributed to recovery via the failed stage span, so counting it as
    // busy work would double-book it and dwarf the real numbers.
    if (ev.arg("failed", 0) == 1) continue;
    const sim::Duration d = ev.duration();
    bump(report.total, ev, d);
    const std::int64_t job = ev.arg("job", -1);
    if (job >= 0) bump(report.per_job[job], ev, d);
  }
  return report;
}

std::string format_detail_report(const DetailReport& report) {
  std::string out =
      "trace breakdown (busy seconds by category; overlapping executors, so "
      "columns need not sum to wall-clock):\n";
  char buf[256];
  std::snprintf(buf, sizeof(buf), "  %8s %10s %10s %10s %12s %10s %10s %10s\n",
                "job", "compute", "reduce", "ser", "driver-fetch", "detect",
                "recover", "comp");
  out += buf;
  auto row = [&](const std::string& label, const StageBreakdown& b) {
    std::snprintf(buf, sizeof(buf),
                  "  %8s %10.4f %10.4f %10.4f %12.4f %10.4f %10.4f %10.4f\n",
                  label.c_str(), sim::to_seconds(b.compute),
                  sim::to_seconds(b.reduce), sim::to_seconds(b.ser),
                  sim::to_seconds(b.driver_fetch), sim::to_seconds(b.detect),
                  sim::to_seconds(b.recover), sim::to_seconds(b.comp));
    out += buf;
  };
  for (const auto& [job, b] : report.per_job) row(std::to_string(job), b);
  row("all", report.total);
  return out;
}

sim::Duration recovery_from_trace(const TraceSink& sink) {
  // Overlapped recovery wraps the settle/backoff branch in a
  // `recover.overlap` span; its duration *is* the between-attempt recovery
  // interval, so the detect/backoff spans inside it must not be counted
  // again. Collect the wrapper intervals first, then skip contained spans.
  std::vector<std::pair<sim::Time, sim::Time>> overlaps;
  for (const TraceEvent& ev : sink.events()) {
    if (ev.kind != EventKind::kSpan || ev.is_open_span()) continue;
    if (std::strcmp(ev.cat, "recover") == 0 &&
        std::strcmp(ev.name, "recover.overlap") == 0) {
      overlaps.emplace_back(ev.ts, ev.end);
    }
  }
  auto contained = [&](const TraceEvent& ev) {
    for (const auto& [lo, hi] : overlaps) {
      if (lo <= ev.ts && ev.end <= hi) return true;
    }
    return false;
  };
  sim::Duration total = 0;
  for (const TraceEvent& ev : sink.events()) {
    if (ev.kind != EventKind::kSpan || ev.is_open_span()) continue;
    if (std::strcmp(ev.cat, "stage") == 0 &&
        std::strncmp(ev.name, "stage.", 6) == 0 &&
        std::strcmp(ev.name, "stage.compute") != 0 && ev.arg("failed") == 1) {
      total += ev.duration();
    } else if (std::strcmp(ev.cat, "detect") == 0) {
      if (!contained(ev)) total += ev.duration();
    } else if (std::strcmp(ev.cat, "recover") == 0) {
      if (std::strcmp(ev.name, "recover.overlap") == 0) {
        total += ev.duration();
      } else if (std::strcmp(ev.name, "recover.backoff") == 0 &&
                 !contained(ev)) {
        total += ev.duration();
      }
    }
  }
  return total;
}

namespace {

/// Total covered length of a set of [lo, hi) intervals.
sim::Duration union_length(std::vector<std::pair<sim::Time, sim::Time>>& iv) {
  std::sort(iv.begin(), iv.end());
  sim::Duration total = 0;
  sim::Time cur_lo = 0, cur_hi = 0;
  bool open = false;
  for (const auto& [lo, hi] : iv) {
    if (hi <= lo) continue;
    if (!open || lo > cur_hi) {
      if (open) total += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    } else {
      cur_hi = std::max(cur_hi, hi);
    }
  }
  if (open) total += cur_hi - cur_lo;
  return total;
}

}  // namespace

FlameReport flame_report(const TraceSink& sink) {
  FlameReport r;
  const std::vector<TraceEvent>& events = sink.events();
  if (events.empty()) return r;
  // Observation window: the full extent of the trace, shared by every
  // executor so the timelines are comparable.
  bool any = false;
  for (const TraceEvent& ev : events) {
    if (!any) {
      r.window_start = ev.ts;
      any = true;
    }
    r.window_start = std::min(r.window_start, ev.ts);
    sim::Time end = ev.ts;
    if (ev.kind == EventKind::kSpan && !ev.is_open_span()) end = ev.end;
    r.window_end = std::max(r.window_end, end);
  }
  // Per-executor interval sets.
  std::map<int, std::vector<std::pair<sim::Time, sim::Time>>> busy;
  std::map<int, std::vector<std::pair<sim::Time, sim::Time>>> blocked;
  for (const TraceEvent& ev : events) {
    if (ev.pid < kExecPidBase) continue;
    const int e = ev.pid - kExecPidBase;
    if (ev.kind == EventKind::kSpan && !ev.is_open_span()) {
      if (ev.arg("failed", 0) == 1) {
        // A failed attempt is time spent blocked on a dead peer.
        blocked[e].emplace_back(ev.ts, ev.end);
      } else {
        busy[e].emplace_back(ev.ts, ev.end);
      }
    } else if (ev.kind == EventKind::kInstant &&
               std::strcmp(ev.name, "ring.recv") == 0) {
      // ring.recv instants mark the end of a wait of `wait_ns`.
      const std::int64_t wait = ev.arg("wait_ns", 0);
      if (wait > 0) {
        const sim::Time lo =
            ev.ts >= static_cast<sim::Time>(wait)
                ? ev.ts - static_cast<sim::Time>(wait)
                : 0;
        blocked[e].emplace_back(lo, ev.ts);
      }
    }
  }
  std::set<int> execs;
  for (const auto& [e, _] : busy) execs.insert(e);
  for (const auto& [e, _] : blocked) execs.insert(e);
  const sim::Duration window = r.window_end - r.window_start;
  for (int e : execs) {
    ExecutorTimeline tl;
    tl.executor = e;
    auto blk = blocked[e];
    tl.blocked = union_length(blk);
    // |busy \ blocked| = |busy U blocked| - |blocked|: blocked wins where
    // a wait interval sits inside an enclosing task span.
    auto both = busy[e];
    auto blk2 = blocked[e];
    both.insert(both.end(), blk2.begin(), blk2.end());
    const sim::Duration covered = union_length(both);
    tl.busy = covered - tl.blocked;
    tl.idle = window - covered;
    r.executors.push_back(tl);
  }
  return r;
}

std::string format_flame_report(const FlameReport& report) {
  std::string out = "per-executor timeline (seconds over the trace window):\n";
  char buf[160];
  std::snprintf(buf, sizeof(buf), "  %8s %10s %10s %10s %7s\n", "executor",
                "busy", "blocked", "idle", "busy%");
  out += buf;
  const double window =
      sim::to_seconds(report.window_end - report.window_start);
  for (const ExecutorTimeline& tl : report.executors) {
    const double busy_s = sim::to_seconds(tl.busy);
    std::snprintf(buf, sizeof(buf), "  %8d %10.4f %10.4f %10.4f %6.1f%%\n",
                  tl.executor, busy_s, sim::to_seconds(tl.blocked),
                  sim::to_seconds(tl.idle),
                  window > 0 ? 100.0 * busy_s / window : 0.0);
    out += buf;
  }
  return out;
}

MembershipTimeline membership_report(const TraceSink& sink) {
  MembershipTimeline r;
  std::vector<sim::Time> rebuilds;
  std::vector<sim::Time> impacting;  // admissions + decommissions
  for (const TraceEvent& ev : sink.events()) {
    if (std::strcmp(ev.cat, "membership") != 0) continue;
    if (ev.kind == EventKind::kInstant) {
      if (std::strcmp(ev.name, "membership.join") == 0) {
        ++r.joins_announced;
      } else if (std::strcmp(ev.name, "membership.active") == 0) {
        ++r.joins_admitted;
        impacting.push_back(ev.ts);
      } else if (std::strcmp(ev.name, "membership.decommission") == 0) {
        ++r.decommissions;
        impacting.push_back(ev.ts);
      } else if (std::strcmp(ev.name, "membership.left") == 0) {
        ++r.departures;
      } else if (std::strcmp(ev.name, "membership.ring_formed") == 0) {
        ++r.ring_rebuilds;
        rebuilds.push_back(ev.ts);
      }
    } else if (ev.kind == EventKind::kSpan &&
               std::strcmp(ev.name, "membership.migrate") == 0) {
      ++r.migrations;
    }
  }
  std::sort(rebuilds.begin(), rebuilds.end());
  for (sim::Time t : impacting) {
    auto it = std::lower_bound(rebuilds.begin(), rebuilds.end(), t);
    if (it == rebuilds.end()) continue;  // never re-stabilized in-trace
    const sim::Duration gap = *it - t;
    ++r.stabilized_events;
    r.total_time_to_stable += gap;
    r.max_time_to_stable = std::max(r.max_time_to_stable, gap);
  }
  return r;
}

}  // namespace sparker::obs
