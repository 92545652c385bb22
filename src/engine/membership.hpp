#pragma once

#include <cstdint>
#include <vector>

#include "engine/config.hpp"
#include "net/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "sim/types.hpp"

/// \file membership.hpp
/// Elastic cluster membership: executors join and leave *mid-campaign*.
///
/// The paper's evaluation assumes a static executor set; under spot-instance
/// churn the ring must re-form online instead of restarting the campaign.
/// MembershipManager layers a small per-executor state machine on top of the
/// HealthMonitor's failure detection:
///
///     joining ──(arrive + stage boundary)──> warming ──(state transfer)──> active
///        │                                      │                            │
///        └───────(decommission cancels)─────────┴──> left <──(drain done)── draining
///
///  * **joining** — announced (or provisioned-but-not-launched). The executor
///    is outside the cluster: never scheduled, never in the ring, never
///    health-monitored. Once its process is up (FaultFabric::node_joined) it
///    becomes *admittable* and is admitted at the next stage boundary.
///  * **warming** — admitted; the driver is transferring resident broadcast
///    state so the newcomer can take tasks without a cold fetch per task.
///  * **active** — a full member (`active()`): takes new tasks, holds a
///    rank in the next ring formation, monitored.
///  * **draining** — a planned decommission is in progress. The executor
///    takes no *new* work but finishes in-flight tasks; at the next ring
///    boundary its reduce-scatter partials migrate to its ring successor
///    (instead of being recomputed) and it leaves.
///  * **left** — gone. A later join event readmits it (spot rejoin).
///
/// Unplanned death is orthogonal and stays with HealthMonitor/FaultFabric:
/// a dead draining executor simply loses the handoff (its partials refold
/// onto survivors, the pre-elastic path), and a dead joiner is never
/// admitted. With an empty schedule every executor is active and every hook
/// here is a no-op, so static-cluster runs are bit-identical to before.
///
/// The *ring epoch* increments on every membership change that alters ring
/// eligibility; each ring formation is stamped with it. Whether a ring must
/// re-form is decided by comparing member lists (JobRing::view).

namespace sparker::engine {

using sim::Duration;
using sim::Time;

/// Campaign-lifetime membership statistics.
struct MembershipStats {
  int joins_announced = 0;    ///< join events seen (incl. rejoins).
  int joins_admitted = 0;     ///< joiners that finished warm-up.
  int decommissions = 0;      ///< decommission events against members.
  int drains_completed = 0;   ///< graceful departures (incl. trivial ones).
  int partials_migrated = 0;  ///< partition partials handed to a successor.
  Duration total_warmup_time = 0;  ///< sum over admitted joiners.
  Duration total_admit_latency = 0;  ///< arrival -> active, summed.
};

class MembershipManager {
 public:
  enum class State { kJoining, kWarming, kActive, kDraining, kLeft };

  /// Executors whose *first* scheduled event is a join start kJoining (and
  /// are declared pending on the fabric by the caller) — they are outside
  /// the cluster until that event fires. An executor that is decommissioned
  /// first and rejoins later starts kActive like everyone else. Events are
  /// armed by the owning Cluster via
  /// FaultFabric::join_node_at/decommission_node_at; the fabric's
  /// membership listener must forward to on_fabric_event.
  MembershipManager(sim::Simulator& sim, const MembershipSchedule& schedule,
                    int num_executors, net::FaultFabric& faults,
                    obs::TraceSink* trace = nullptr,
                    obs::MetricsRegistry* metrics = nullptr)
      : sim_(&sim),
        faults_(&faults),
        trace_(trace),
        metrics_(metrics),
        execs_(static_cast<std::size_t>(num_executors)) {
    std::vector<const MembershipEvent*> first(
        static_cast<std::size_t>(num_executors), nullptr);
    for (const MembershipEvent& ev : schedule.events) {
      const MembershipEvent*& f = first.at(static_cast<std::size_t>(ev.executor));
      if (!f || ev.at < f->at) f = &ev;
    }
    for (int e = 0; e < num_executors; ++e) {
      const MembershipEvent* f = first[static_cast<std::size_t>(e)];
      if (f && f->kind == MembershipEvent::Kind::kJoin) {
        execs_[static_cast<std::size_t>(e)].state = State::kJoining;
      }
    }
  }
  MembershipManager(const MembershipManager&) = delete;
  MembershipManager& operator=(const MembershipManager&) = delete;

  // ---- queries -------------------------------------------------------------

  State state(int e) const {
    return execs_.at(static_cast<std::size_t>(e)).state;
  }
  /// Part of the cluster as far as health monitoring goes (heartbeats are
  /// expected from draining members until they actually leave).
  bool member(int e) const {
    const State s = state(e);
    return s == State::kActive || s == State::kDraining;
  }
  /// A full member: may take *new* tasks and hold a rank in the next ring
  /// formation. Draining executors only finish in-flight work.
  bool active(int e) const { return state(e) == State::kActive; }
  bool draining(int e) const { return state(e) == State::kDraining; }

  /// Joiners whose process has arrived: ready to be admitted (warm-up) at
  /// the next stage boundary.
  std::vector<int> admittable_joiners() const {
    std::vector<int> out;
    for (int e = 0; e < num_executors(); ++e) {
      if (state(e) == State::kJoining && faults_->node_joined(e) &&
          faults_->node_alive(e)) {
        out.push_back(e);
      }
    }
    return out;
  }

  /// True when a stage boundary has membership work to do (admissions or
  /// drain completions). Cheap enough to poll per stage.
  bool boundary_work_pending() const {
    for (int e = 0; e < num_executors(); ++e) {
      const State s = state(e);
      if (s == State::kDraining) return true;
      if (s == State::kJoining && faults_->node_joined(e) &&
          faults_->node_alive(e)) {
        return true;
      }
    }
    return false;
  }

  /// Monotonic counter bumped on every ring-eligibility change.
  std::int64_t epoch() const noexcept { return epoch_; }

  int num_executors() const noexcept { return static_cast<int>(execs_.size()); }
  const MembershipStats& stats() const noexcept { return stats_; }

  // ---- transitions (driven by the fabric listener + stage boundaries) ------

  /// Fabric callback: a membership event fired at simulated time `t`.
  void on_fabric_event(Time t, int e, net::FaultFabric::MembershipEventKind k) {
    ExecState& st = execs_.at(static_cast<std::size_t>(e));
    if (k == net::FaultFabric::MembershipEventKind::kJoin) {
      if (st.state != State::kJoining && st.state != State::kLeft) return;
      st.state = State::kJoining;
      st.announced_at = t;
      ++stats_.joins_announced;
      if (metrics_) metrics_->add("membership.joins_announced", 1);
      if (trace_) {
        trace_->instant("membership", "membership.join", obs::exec_pid(e), 0,
                        {{"executor", e}});
      }
    } else {  // kDecommission
      if (st.state == State::kActive) {
        st.state = State::kDraining;
        ++stats_.decommissions;
        ++epoch_;
        if (metrics_) metrics_->add("membership.decommissions", 1);
        if (trace_) {
          trace_->instant("membership", "membership.decommission",
                          obs::exec_pid(e), 0, {{"executor", e}});
        }
      } else if (st.state == State::kJoining || st.state == State::kWarming) {
        // Decommission of a not-yet-admitted joiner cancels the join.
        st.state = State::kLeft;
        if (trace_) {
          trace_->instant("membership", "membership.left", obs::exec_pid(e), 0,
                          {{"executor", e}});
        }
      }
      // kDraining / kLeft: duplicate decommission, no-op.
    }
  }

  /// Stage boundary admits an arrived joiner: warm-up transfer begins.
  void begin_warmup(int e) {
    ExecState& st = execs_.at(static_cast<std::size_t>(e));
    if (st.state != State::kJoining) return;
    st.state = State::kWarming;
    st.warmup_start = sim_->now();
  }

  /// Warm-up transfer finished: the joiner is a full member.
  void complete_warmup(int e) {
    ExecState& st = execs_.at(static_cast<std::size_t>(e));
    if (st.state != State::kWarming) return;
    st.state = State::kActive;
    ++stats_.joins_admitted;
    ++epoch_;
    const Time now = sim_->now();
    stats_.total_warmup_time += now - st.warmup_start;
    stats_.total_admit_latency += now - st.announced_at;
    if (metrics_) {
      metrics_->add("membership.joins_admitted", 1);
      metrics_->histogram("membership.admit_latency_ns")
          .observe(static_cast<std::int64_t>(now - st.announced_at));
    }
    if (trace_) {
      trace_->instant("membership", "membership.active", obs::exec_pid(e), 0,
                      {{"executor", e}});
    }
  }

  /// Drain finished (partials handed off, or nothing to hand off, or the
  /// executor died and the refold path took over): the executor leaves.
  void complete_drain(int e) {
    ExecState& st = execs_.at(static_cast<std::size_t>(e));
    if (st.state != State::kDraining) return;
    st.state = State::kLeft;
    ++stats_.drains_completed;
    ++epoch_;
    if (metrics_) metrics_->add("membership.drains_completed", 1);
    if (trace_) {
      trace_->instant("membership", "membership.left", obs::exec_pid(e), 0,
                      {{"executor", e}});
    }
  }

  /// Bookkeeping for a successful partial handoff (for stats/metrics).
  void note_migration(int partitions) {
    stats_.partials_migrated += partitions;
    if (metrics_) metrics_->add("membership.partials_migrated", partitions);
  }

 private:
  struct ExecState {
    State state = State::kActive;
    Time announced_at = 0;
    Time warmup_start = 0;
  };

  sim::Simulator* sim_;
  net::FaultFabric* faults_;
  obs::TraceSink* trace_;
  obs::MetricsRegistry* metrics_;
  std::vector<ExecState> execs_;
  MembershipStats stats_;
  std::int64_t epoch_ = 0;
};

}  // namespace sparker::engine
