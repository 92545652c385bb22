#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "comm/registry.hpp"
#include "sim/types.hpp"

/// \file config.hpp
/// Engine-level configuration: aggregation mode, collective algorithm
/// selection, fault injection and straggler plans.

namespace sparker::engine {

/// Thrown when a modeled memory requirement exceeds the configured JVM
/// heap (the paper's Table 2 notes LR on kdd12 "runs out of memory under
/// both of our configurations" — the L-BFGS history alone exceeds the
/// driver heap at 54.7M features).
struct OomError : std::runtime_error {
  explicit OomError(const std::string& what) : std::runtime_error(what) {}
};

/// Identifies one task attempt for fault-injection decisions.
struct TaskId {
  int job = 0;      ///< job sequence number within the cluster's lifetime.
  int stage = 0;    ///< stage index within the job (0 = compute stage).
  int task = 0;     ///< task index within the stage.
  int attempt = 0;  ///< 0 for the first run.
};

/// Decides which task attempts fail (for fault-tolerance tests). The
/// default plan never fails anything.
struct FaultPlan {
  std::function<bool(const TaskId&)> should_fail;
  bool fails(const TaskId& id) const {
    return should_fail ? should_fail(id) : false;
  }
};

/// One scheduled fabric-level fault. Unlike FaultPlan (which fails task
/// *attempts* at the task boundary), these strike at a simulated *time*:
/// an executor process dies, or a specific ring channel between two
/// executors is severed / delayed / degraded — possibly mid-collective.
struct FaultEvent {
  enum class Kind {
    kKillExecutor,    ///< executor `a` dies at `at` and never recovers.
    kSeverChannel,    ///< channel a->b (one ring channel, or all) drops.
    kDelayChannel,    ///< channel a->b gains `delay` per message.
    kDegradeChannel,  ///< channel a->b serializes `factor`x slower.
  };
  Kind kind = Kind::kKillExecutor;
  sim::Time at = 0;         ///< simulated time the fault strikes.
  int a = 0;                ///< executor id (kill) or source executor.
  int b = 0;                ///< destination executor (channel faults).
  int channel = -1;         ///< parallel-channel index; -1 = all channels.
  sim::Duration heal_after = 0;  ///< 0 = permanent.
  double factor = 1.0;      ///< degrade multiplier.
  sim::Duration delay = 0;  ///< extra per-message delay.
};

/// A reproducible fabric fault schedule: a seed (for any randomized draws
/// the test makes while composing it) plus the ordered event list. The
/// cluster arms it onto the net::FaultFabric at construction, so identical
/// schedules replay identical recovery traces bit for bit.
struct FaultSchedule {
  std::uint64_t seed = 0;
  std::vector<FaultEvent> events;

  bool empty() const noexcept { return events.empty(); }

  FaultSchedule& kill_executor(sim::Time at, int executor) {
    events.push_back({FaultEvent::Kind::kKillExecutor, at, executor});
    return *this;
  }
  FaultSchedule& sever_channel(sim::Time at, int src, int dst,
                               int channel = -1,
                               sim::Duration heal_after = 0) {
    FaultEvent e{FaultEvent::Kind::kSeverChannel, at, src, dst, channel};
    e.heal_after = heal_after;
    events.push_back(e);
    return *this;
  }
  FaultSchedule& delay_channel(sim::Time at, int src, int dst, int channel,
                               sim::Duration delay,
                               sim::Duration heal_after = 0) {
    FaultEvent e{FaultEvent::Kind::kDelayChannel, at, src, dst, channel};
    e.delay = delay;
    e.heal_after = heal_after;
    events.push_back(e);
    return *this;
  }
  FaultSchedule& degrade_channel(sim::Time at, int src, int dst, int channel,
                                 double factor, sim::Duration heal_after = 0) {
    FaultEvent e{FaultEvent::Kind::kDegradeChannel, at, src, dst, channel};
    e.factor = factor;
    e.heal_after = heal_after;
    events.push_back(e);
    return *this;
  }
};

/// One scheduled membership event. Unlike FaultEvents these are
/// *cooperative*: a new executor announces itself and is admitted at the
/// next stage boundary (after warm-up state transfer), or a running
/// executor is asked to decommission — it finishes in-flight work, hands
/// its partials to its ring successor, and leaves.
struct MembershipEvent {
  enum class Kind {
    kJoin,          ///< executor `executor` comes up at `at`.
    kDecommission,  ///< executor `executor` starts draining at `at`.
  };
  Kind kind = Kind::kJoin;
  sim::Time at = 0;
  int executor = 0;
};

/// A reproducible membership-churn schedule, armed onto the FaultFabric at
/// cluster construction like FaultSchedule. Executors named in a join event
/// start *outside* the cluster (not schedulable, not in the ring, not
/// health-monitored) until the event fires and they are admitted at a stage
/// boundary.
struct MembershipSchedule {
  std::vector<MembershipEvent> events;

  bool empty() const noexcept { return events.empty(); }

  MembershipSchedule& join(sim::Time at, int executor) {
    events.push_back({MembershipEvent::Kind::kJoin, at, executor});
    return *this;
  }
  MembershipSchedule& decommission(sim::Time at, int executor) {
    events.push_back({MembershipEvent::Kind::kDecommission, at, executor});
    return *this;
  }
};

/// Health-aware scheduling knobs: heartbeat failure detection, speculative
/// execution, and executor quarantine (blacklisting). All three default off,
/// mirroring Spark (`spark.speculation` and blacklisting are opt-in, and the
/// omniscient fault view is the zero-latency limit of heartbeat detection).
struct HealthConfig {
  /// Heartbeat-based failure detection. Off: the driver's health view
  /// mirrors the fault fabric instantly (pre-PR-3 omniscient behaviour).
  /// On: executors heartbeat the driver every `heartbeat_interval`; an
  /// executor whose last heartbeat is older than `heartbeat_timeout` is
  /// *suspect*, older than `executor_timeout` is *dead* — and detection
  /// latency becomes a real component of recovery time.
  bool heartbeats = false;
  sim::Duration heartbeat_interval = sim::milliseconds(100);
  sim::Duration heartbeat_timeout = sim::milliseconds(300);
  sim::Duration executor_timeout = sim::milliseconds(800);

  /// Speculative execution: when a compute task has run (timed from its
  /// core slot) longer than `speculation_multiplier` x the running median
  /// of completed task run times (and at least `speculation_quantile` of
  /// the stage's tasks have completed), a duplicate attempt launches on a
  /// free core of a healthy executor and the first finisher wins. Jobs
  /// reject a multiplier below 1 and a quantile outside (0, 1].
  bool speculation = false;
  double speculation_multiplier = 1.5;
  double speculation_quantile = 0.5;
  sim::Duration speculation_interval = sim::milliseconds(20);

  /// Executor quarantine: an executor accumulating `quarantine_max_failures`
  /// task failures or `quarantine_max_straggles` lost speculation races is
  /// excluded from scheduling and ring membership for `quarantine_duration`,
  /// then rejoins.
  bool quarantine = false;
  int quarantine_max_failures = 2;
  int quarantine_max_straggles = 2;
  sim::Duration quarantine_duration = sim::seconds(10);
};

/// Observability knobs. Tracing is recording-only — it never schedules sim
/// events or charges simulated time, so enabling it cannot change results
/// — but it does allocate per event, hence off by default. An enabled trace
/// records every category, per-message network transmits and sim-kernel
/// queue-depth counters included.
struct TraceConfig {
  bool enabled = false;
};

/// Per-executor compute slowdown multipliers (straggler model); executors
/// not present run at speed 1.
struct StragglerPlan {
  std::unordered_map<int, double> slowdown;
  double factor(int executor) const {
    auto it = slowdown.find(executor);
    return it == slowdown.end() ? 1.0 : it->second;
  }
};

/// Aggregation execution mode (what the benchmarks compare).
enum class AggMode {
  kTree,        ///< vanilla Spark treeAggregate.
  kTreeImm,     ///< treeAggregate with In-Memory Merge in the first stage.
  kSplit,       ///< Sparker split aggregation (IMM + ring reduce-scatter).
};

const char* to_string(AggMode m);

struct EngineConfig {
  AggMode agg_mode = AggMode::kTree;
  int tree_depth = 2;          ///< Spark treeAggregate depth.
  int sai_parallelism = 4;     ///< P: parallel ring channels (paper: 4).
  /// Collective algorithm for split aggregation / allreduce, dispatched
  /// through comm::CollectiveRegistry. kRing is the paper's algorithm (for
  /// allreduce it aliases to its Rabenseifner composition); kAuto lets the
  /// cost-model tuner pick per stage attempt from the live topology.
  comm::AlgoId collective_algo = comm::AlgoId::kRing;
  bool topology_aware = true;  ///< sort executors by hostname for the ring.
  int max_task_attempts = 4;   ///< task retries before the job fails.
  int max_stage_attempts = 4;  ///< stage (collective) retries before failing.
  /// A collective recv hung past this deadline raises CollectiveFailed;
  /// must be > 0 (jobs reject anything else at start). The default sits far
  /// above any legitimate recv wait in the modeled clusters, so fault-free
  /// runs never time out.
  sim::Duration collective_timeout = sim::seconds(30);
  /// Base pause before re-running a failed ring stage; doubles per attempt.
  sim::Duration stage_retry_backoff = sim::milliseconds(50);
  /// Overlapped recovery: refold lost partials concurrently with the
  /// post-failure heartbeat settle instead of sequentially after it. Only
  /// changes *when* recovery work happens (results are bit-identical); the
  /// overlap is attributed via the `recover.overlap` trace span.
  bool overlap_recovery = true;
  /// Publish per-job metric series (`job.<id>.*`) from JobMetricsGuard in
  /// addition to the cluster-lifetime aggregates. Keyed by the cluster's
  /// unique job id, so concurrent or back-to-back jobs never collide. Off
  /// by default to keep metric cardinality flat for solo campaigns; the
  /// multi-tenant scheduler turns it on for accounting.
  bool per_job_metrics = false;
  FaultPlan faults{};
  FaultSchedule fault_schedule{};
  MembershipSchedule membership{};
  StragglerPlan stragglers{};
  HealthConfig health{};
  TraceConfig trace{};
};

}  // namespace sparker::engine
