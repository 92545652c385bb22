#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "comm/collectives.hpp"
#include "engine/cluster.hpp"
#include "engine/rdd.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

/// \file aggregate.hpp
/// The aggregation paths the paper compares (Figure 16):
///
///  * `tree_aggregate`  — Spark's RDD.treeAggregate: a compute stage (one
///    task per partition, each result serialized), zero or more shuffle
///    combine rounds following Spark's exact partition-count schedule, and
///    a final serial reduce at the driver.
///  * the same with In-Memory Merge — the compute stage becomes a
///    *reduced-result stage*: task results merge into a shared per-executor
///    value before any serialization (paper Section 3.2), and the tree then
///    reduces one value per executor.
///  * `split_aggregate` — the paper's contribution (Section 3.1): a
///    reduced-result stage, then a SpawnRDD stage running ring
///    reduce-scatter over the scalable communicator, then a driver-side
///    collect + concatOp.
///
/// All paths execute the *real* user callbacks over real data; only time is
/// modeled. `bytes` callbacks return the modeled (paper-scale) wire size.

namespace sparker::engine {

/// User spec for tree aggregation (mirrors treeAggregate's callbacks, in
/// mutating form for C++ efficiency).
template <typename T, typename U>
struct TreeAggSpec {
  U zero{};
  /// seqOp: folds one row into a task aggregator that starts from `zero`.
  /// The engine folds a partition only for the attempt that delivers its
  /// result, at the point that result is merged or shipped (under IMM,
  /// inside the executor's merge lock); losing speculative duplicates and
  /// failed attempts never fold. It must therefore be pure — a function of
  /// the aggregator and the row only — as CachedRdd generators must be.
  std::function<void(U&, const T&)> seq_op;
  std::function<void(U&, const U&)> comb_op;
  /// Modeled serialized size of an aggregator.
  std::function<std::uint64_t(const U&)> bytes;
  /// Modeled compute time of folding one partition (the workload model).
  std::function<Duration(int pid, const std::vector<T>&)> partition_cost;
};

/// Additional callbacks for split aggregation (the SAI of Figure 6).
template <typename T, typename U, typename V>
struct SplitAggSpec {
  TreeAggSpec<T, U> base;
  /// splitOp: segment `i` of `n` from an aggregator. Collectives split on
  /// demand (see comm::SegOps::split), so it must be pure.
  std::function<V(const U&, int i, int n)> split_op;
  /// reduceOp on segments.
  std::function<void(V&, const V&)> reduce_op;
  /// concatOp: segments sorted by index -> whole result.
  std::function<V(std::vector<std::pair<int, V>>&)> concat_op;
  /// Modeled serialized size of a segment.
  std::function<std::uint64_t(const V&)> v_bytes;

  // Optional compression hooks (src/comp): all three absent = the dense
  // path, byte-for-byte as before. With them, the tuner prices the
  // compressed ring (comm::AlgoId::kSparseRing) against the dense
  // algorithms, and when the sparse ring is dispatched the stage re-encodes
  // each freshly split segment density-optimally. The sparse path runs
  // inside the same stage loops, so it inherits fault retry, membership
  // boundaries and residual refold unchanged.
  /// Estimated nonzero fraction of an aggregator (the tuner's density
  /// input). Absent: density 1.0, which keeps kSparseRing dominated.
  std::function<double(const U&)> density_op;
  /// Re-encodes a split segment into its cheapest representation. Absent:
  /// segments ship exactly as split_op produced them, even on kSparseRing.
  std::function<V(V)> encode_op;
  /// Representation probe, for comp.switch trace attribution.
  std::function<bool(const V&)> is_sparse_op;
};

/// Timing/fault bookkeeping for one aggregation job.
struct AggMetrics {
  Time start = 0;
  Time compute_done = 0;  ///< end of the first (compute) stage.
  Time end = 0;
  int task_retries = 0;    ///< task-level retries (non-IMM path).
  int stage_restarts = 0;  ///< whole-stage restarts (IMM + ring stages).
  /// Attempts the SpawnRDD ring stage took (1 = fault-free).
  int ring_stage_attempts = 0;
  /// Simulated time lost to failed ring-stage attempts: wasted collective
  /// work, lost-partial recomputation, detection wait, backoff, and
  /// rescheduling.
  Duration recovery_time = 0;
  /// Speculative execution: duplicate attempts launched for straggling
  /// tasks, and how many of those duplicates finished before the original.
  int speculative_launches = 0;
  int speculative_wins = 0;

  Duration compute_time() const { return compute_done - start; }
  Duration reduce_time() const { return end - compute_done; }
  Duration total() const { return end - start; }
};

namespace detail {

/// Thrown inside a task attempt when the fault plan injects a failure.
struct TaskFailed {};

/// Publishes a job's AggMetrics into the cluster's MetricsRegistry on scope
/// exit (normal return or abort), so cluster-lifetime counters absorb the
/// per-job fields. Declare *after* the job's AggMetrics locals: the guard
/// reads them in its destructor. Under `EngineConfig::per_job_metrics` it
/// additionally publishes a `job.<id>.*` series keyed by the cluster-unique
/// job id — so concurrent or back-to-back jobs can never collide on a
/// metric name (the aggregate counters alone made interleaved jobs
/// indistinguishable).
struct JobMetricsGuard {
  Cluster* cl;
  const AggMetrics* m;
  const char* kind_counter;  ///< e.g. "agg.jobs.split".
  int job = -1;              ///< cluster-unique job id (next_job_id()).
  int tenant = -1;           ///< scheduler tenant, -1 for solo jobs.

  ~JobMetricsGuard() {
    obs::MetricsRegistry& reg = cl->metrics();
    reg.add("agg.jobs", 1);
    reg.add(kind_counter, 1);
    reg.add("agg.task_retries", m->task_retries);
    reg.add("agg.stage_restarts", m->stage_restarts);
    reg.add("agg.ring_stage_attempts", m->ring_stage_attempts);
    reg.add("agg.recovery_time_ns",
            static_cast<std::int64_t>(m->recovery_time));
    reg.add("agg.speculative_launches", m->speculative_launches);
    reg.add("agg.speculative_wins", m->speculative_wins);
    // An aborted job never sets `end`; only completed jobs land in the
    // duration histogram.
    if (m->end > m->start) {
      reg.histogram("agg.job_duration_ns")
          .observe(static_cast<std::int64_t>(m->end - m->start));
    }
    if (cl->config().per_job_metrics && job >= 0) {
      const std::string prefix = "job." + std::to_string(job) + ".";
      reg.add(prefix + "task_retries", m->task_retries);
      reg.add(prefix + "stage_restarts", m->stage_restarts);
      reg.add(prefix + "ring_stage_attempts", m->ring_stage_attempts);
      reg.add(prefix + "recovery_time_ns",
              static_cast<std::int64_t>(m->recovery_time));
      if (m->end > m->start) {
        reg.add(prefix + "duration_ns",
                static_cast<std::int64_t>(m->end - m->start));
      }
      if (tenant >= 0) reg.set_gauge(prefix + "tenant", tenant);
    }
  }
};

/// An aggregator sitting at an executor. Plain-stage results are already
/// serialized (Spark serializes every task result on completion); IMM
/// results stay live in the mutable object manager and pay their
/// serialization cost lazily, when first fetched.
template <typename U>
struct Blob {
  std::shared_ptr<U> value;
  std::uint64_t bytes = 0;
  int executor = 0;
  bool serialized = true;
};

/// Spark sends task results below this size inline with the status update;
/// larger results go through the BlockManager (spark.task.maxDirectResultSize
/// defaults to 1 MiB).
inline constexpr std::uint64_t kDirectResultLimit = 1ull << 20;

/// TaskId::attempt value marking speculative duplicates, far above any real
/// retry count so fault plans keyed on attempt numbers stay inert for them.
inline constexpr int kSpeculativeAttempt = 1 << 20;

/// Modeled size of the aggregator a split-stage collective will move: the
/// first stage-1 value present (every executor's aggregator shares the
/// spec's shape), or the zero aggregator when no partition produced one.
/// Deterministic, so every stage attempt feeds the tuner the same bytes.
template <typename T, typename U, typename V>
std::uint64_t aggregator_bytes(
    const SplitAggSpec<T, U, V>& spec,
    const std::vector<std::shared_ptr<U>>& per_exec) {
  for (const auto& v : per_exec) {
    if (v) return spec.base.bytes(*v);
  }
  return spec.base.bytes(spec.base.zero);
}

/// Estimated aggregator density for the tuner, sampled the same way as
/// aggregator_bytes (first stage-1 value present; the zero aggregator only
/// when no partition produced one). 1.0 without a density_op — the dense
/// specs never price the sparse ring as a win.
template <typename T, typename U, typename V>
double aggregator_density(const SplitAggSpec<T, U, V>& spec,
                          const std::vector<std::shared_ptr<U>>& per_exec) {
  if (!spec.density_op) return 1.0;
  for (const auto& v : per_exec) {
    if (v) return spec.density_op(*v);
  }
  return spec.density_op(spec.base.zero);
}

/// Builds the SegOps a split-stage collective runs over, wiring in the
/// compression hooks when `algo` is the sparse ring: split re-encodes each
/// segment density-optimally, and reduce_into probes the representation
/// around each merge so dense<->sparse flips land in the trace as
/// "comp.switch" instants (fill-in growing past the byte crossover is
/// exactly when they fire). Because the representation lives inside V,
/// v_bytes already reports the compressed size — hop transport and merge
/// sleeps get cheaper with no further plumbing.
template <typename T, typename U, typename V>
comm::SegOps<V> make_seg_ops(Cluster& cl, int job, comm::AlgoId algo,
                             int exec_id, int rank,
                             const SplitAggSpec<T, U, V>& spec,
                             const std::shared_ptr<U>& local) {
  const bool comp_on =
      algo == comm::AlgoId::kSparseRing && static_cast<bool>(spec.encode_op);
  comm::SegOps<V> ops;
  // `split` reads `*local` for the whole collective, because the ring
  // algorithms split each segment when they first send or reduce into it.
  // Nothing replaces or mutates a rank's local value while its collective
  // workers are live: the stage awaits every rank task, and each rank task
  // awaits all of its channel workers (as comm::run_all_ranks does), before
  // a failure is rethrown. Refold, migration and overlapped recovery — the
  // only paths that comb_op into or reset per-executor values — run after
  // that, between attempts.
  if (comp_on) {
    ops.split = [&spec, &local](int seg, int nseg) {
      return spec.encode_op(spec.split_op(*local, seg, nseg));
    };
  } else {
    ops.split = [&spec, &local](int seg, int nseg) {
      return spec.split_op(*local, seg, nseg);
    };
  }
  if (comp_on && spec.is_sparse_op) {
    ops.reduce_into = [&cl, &spec, job, exec_id, rank](V& a, const V& b) {
      const bool was = spec.is_sparse_op(a);
      spec.reduce_op(a, b);
      const bool now = spec.is_sparse_op(a);
      if (was != now) {
        cl.trace().instant("comp", "comp.switch", obs::exec_pid(exec_id),
                           rank, {{"job", job}, {"sparse", now ? 1 : 0}});
      }
    };
  } else {
    ops.reduce_into = spec.reduce_op;
  }
  ops.bytes = spec.v_bytes;
  ops.merge_time = [&cl](std::uint64_t b) { return cl.merge_cost(b); };
  return ops;
}

/// The encode pass of the sparse ring: one streaming scan over the local
/// aggregator gathering nonzeros into index+value segments, priced at the
/// codec scan bandwidth and attributed to the "comp" trace category
/// (fig02-style breakdowns report it in its own column). The scan emits the
/// P*N encoded segments directly, so it subsumes the dense split pass —
/// callers run this *instead of* the split sleep when compression is on.
/// No-op on dense dispatches.
template <typename T, typename U, typename V>
sim::Task<void> comp_encode_pass(Cluster& cl, int job, comm::AlgoId algo,
                                 int exec_id, int rank,
                                 const SplitAggSpec<T, U, V>& spec,
                                 const U& local) {
  if (algo != comm::AlgoId::kSparseRing || !spec.encode_op) co_return;
  const std::uint64_t bytes = spec.base.bytes(local);
  const obs::SpanId span = cl.trace().begin(
      "comp", "comp.encode", obs::exec_pid(exec_id), rank,
      {{"job", job}, {"bytes", static_cast<std::int64_t>(bytes)}});
  co_await cl.simulator().sleep(cl.codec_cost(bytes));
  cl.trace().end(span);
}

/// Picks the executor a task actually runs on: the preferred one, or — if
/// the driver's health view rules it out (believed dead, or quarantined) —
/// the next usable executor in a deterministic scan (Spark reschedules lost
/// tasks on surviving executors). Note this consults the *health view*, not
/// the omniscient fault fabric: with heartbeats enabled a dead-but-undetected
/// executor still gets tasks, which then fail and retry — detection latency
/// costs real simulated time, as it does in Spark.
inline int schedule_executor(Cluster& cl, int preferred) {
  if (cl.executor_usable(preferred)) return preferred;
  const int n = cl.num_executors();
  for (int i = 1; i < n; ++i) {
    const int cand = (preferred + i) % n;
    if (cl.executor_usable(cand)) return cand;
  }
  throw std::runtime_error("no usable executor to schedule task on");
}

/// One modeled task attempt: dispatch + control hop + core slot + task
/// setup, then the partition's modeled compute time. It models time and
/// faults only — the real seqOp fold is fold_partition, which each consumer
/// runs where it needs the value. Throws TaskFailed per the fault plan, or
/// when the fault fabric kills the executor before the task result is
/// reported (that check is deliberately omniscient: a lost result is a
/// physical fact, not a belief). If `ran_on` is non-null it receives the
/// executor the task runs on as soon as it is scheduled; `force_exec >= 0`
/// pins the attempt to one executor (speculative duplicates bypass locality
/// preference).
template <typename T, typename U>
sim::Task<void> compute_attempt(Cluster& cl, CachedRdd<T>& rdd,
                                const TreeAggSpec<T, U>& spec, TaskId id,
                                int* ran_on = nullptr, int force_exec = -1) {
  const int exec_id =
      force_exec >= 0 ? force_exec
                      : schedule_executor(cl, rdd.preferred_executor(id.task));
  if (ran_on) *ran_on = exec_id;
  Executor& ex = cl.executor(exec_id);
  obs::TraceSink& tr = cl.trace();
  const Time attempt_start = cl.simulator().now();
  const obs::SpanId span =
      tr.begin("compute", "task", obs::exec_pid(exec_id), id.task,
               {{"job", id.job},
                {"stage", id.stage},
                {"task", id.task},
                {"attempt", id.attempt}});
  const Time dispatched =
      cl.driver_loop().enqueue(cl.spec().rates.task_dispatch);
  co_await cl.simulator().sleep_until(dispatched);
  co_await cl.simulator().sleep(cl.control_latency(exec_id));
  co_await ex.cores().acquire();
  sim::SemaphoreGuard slot(ex.cores());
  co_await cl.simulator().sleep(cl.spec().rates.task_overhead);
  Duration cost = spec.partition_cost
                      ? spec.partition_cost(id.task, rdd.partition(id.task))
                      : Duration{0};
  cost = static_cast<Duration>(static_cast<double>(cost) *
                               cl.config().stragglers.factor(exec_id) /
                               cl.spec().rates.core_speed);
  co_await cl.simulator().sleep(cost);
  // Fault-plan failure, or the executor died while this task was running
  // (that check is omniscient: a lost result is a physical fact).
  if (cl.config().faults.fails(id) || !cl.executor_alive(exec_id)) {
    tr.end(span, {{"failed", 1}});
    throw TaskFailed{};
  }
  cl.metrics().histogram("task.duration_ns")
      .observe(static_cast<std::int64_t>(cl.simulator().now() - attempt_start));
  tr.end(span);
}

/// The real work of a task: seqOp over partition `pid`, from `spec.zero`.
/// Consumers call it at the point they merge or ship the result — after
/// their attempt has won, and under IMM inside the executor's merge lock —
/// so only the delivering attempt of a task folds, and a task aggregator
/// lives from its fold to its merge. Real folds cost no simulated time;
/// compute_attempt charges the modeled time.
template <typename T, typename U>
U fold_partition(CachedRdd<T>& rdd, const TreeAggSpec<T, U>& spec, int pid) {
  U agg = spec.zero;
  for (const T& row : rdd.partition(pid)) spec.seq_op(agg, row);
  return agg;
}

/// Task-level retry loop (vanilla Spark semantics: failed tasks rerun
/// individually) around compute_attempt; the caller folds the partition
/// once this returns. `stage` distinguishes recomputation of lost partials
/// (stage 1) from the original compute stage for FaultPlan rules. If
/// `ran_on` is non-null it receives the executor the successful attempt ran
/// on.
template <typename T, typename U>
sim::Task<void> compute_with_retry(Cluster& cl, CachedRdd<T>& rdd,
                                   const TreeAggSpec<T, U>& spec, int job,
                                   int task, AggMetrics* m, int stage = 0,
                                   int* ran_on = nullptr) {
  for (int attempt = 0;; ++attempt) {
    int exec = -1;
    try {
      co_await compute_attempt(cl, rdd, spec,
                               TaskId{job, stage, task, attempt}, &exec);
      if (ran_on) *ran_on = exec;
      co_return;
    } catch (const TaskFailed&) {
      if (exec >= 0) cl.health().record_failure(exec);
      if (m) ++m->task_retries;
      if (attempt + 1 >= cl.config().max_task_attempts) {
        throw std::runtime_error("task exceeded max attempts; job aborted");
      }
    }
  }
}

/// Shared state of one stage's speculation races, shared_ptr-owned because
/// *losing* attempts can outlive the stage (and even the job) coroutine
/// frames: a loser resumes from its final sleep after the stage has moved
/// on, and may touch only this object plus the job-level attempts
/// WaitGroup — never stage-frame state. The first attempt to `claim` a
/// task wins it; everyone else drops out.
struct SpecRace {
  struct TaskState {
    Time launched = 0;      ///< when the stage spawned the primary.
    bool done = false;      ///< some attempt claimed this task.
    bool speculated = false;  ///< a duplicate was launched.
    int primary_exec = -1;  ///< executor the primary attempt landed on.
  };
  std::vector<TaskState> tasks;
  std::vector<Duration> durations;  ///< winners' durations (for the median).
  sim::Simulator::TimerHandle tick{};  ///< armed lazily by the first tick.

  explicit SpecRace(int p) : tasks(static_cast<std::size_t>(p)) {}

  bool claim(int t) {
    TaskState& ts = tasks[static_cast<std::size_t>(t)];
    if (ts.done) return false;
    ts.done = true;
    return true;
  }

  Duration running_median() const {
    std::vector<Duration> d = durations;
    const std::size_t mid = d.size() / 2;
    std::nth_element(d.begin(), d.begin() + static_cast<std::ptrdiff_t>(mid),
                     d.end());
    return d[mid];
  }
};

/// Arms the stage's speculation monitor: every `speculation_interval` it
/// looks for tasks running longer than `speculation_multiplier` x the
/// running median of completed durations (once `speculation_quantile` of
/// the stage has completed) and calls `launch(task, target)` with the first
/// *healthy* executor other than the primary's, in a deterministic scan.
/// `launch` may capture stage-frame state: the tick must be cancelled
/// (`cl.simulator().cancel(race->tick)`) before the stage frame exits, and
/// cancelled events never run (their closures are reclaimed eagerly).
inline void arm_speculation_tick(
    Cluster& cl, std::shared_ptr<SpecRace> race,
    std::shared_ptr<std::function<void(int, int)>> launch, Time at) {
  race->tick = cl.simulator().call_at_cancellable(
      at,
      [&cl, race, launch, at] {
        const HealthConfig& h = cl.config().health;
        const int p = static_cast<int>(race->tasks.size());
        const int need = std::max(
            1, static_cast<int>(std::ceil(h.speculation_quantile *
                                          static_cast<double>(p))));
        if (static_cast<int>(race->durations.size()) >= need) {
          const auto threshold = static_cast<Duration>(
              h.speculation_multiplier *
              static_cast<double>(race->running_median()));
          const Time now = cl.simulator().now();
          for (int t = 0; t < p; ++t) {
            SpecRace::TaskState& ts =
                race->tasks[static_cast<std::size_t>(t)];
            if (ts.done || ts.speculated || ts.primary_exec < 0) continue;
            if (now - ts.launched <= threshold) continue;
            int target = -1;
            for (int e = 0; e < cl.num_executors(); ++e) {
              if (e != ts.primary_exec && cl.health().healthy(e)) {
                target = e;
                break;
              }
            }
            if (target < 0) continue;  // nowhere healthy to duplicate onto.
            ts.speculated = true;
            cl.trace().instant(
                "compute", "spec.launch", obs::exec_pid(target), t,
                {{"task", t}, {"primary_exec", ts.primary_exec}});
            (*launch)(t, target);
          }
        }
        arm_speculation_tick(cl, race, launch, at + h.speculation_interval);
      },
      race->tick);
}

/// Plain compute stage: one serialized result per partition. When
/// speculation is enabled (`attempts_wg` non-null and
/// `health.speculation` on), each task becomes a race: the monitor tick
/// may launch one duplicate attempt on a healthy executor, the first
/// finisher claims the task, and losers drop out touching only the shared
/// race state (the job drains them through `attempts_wg` before its frame
/// dies).
template <typename T, typename U>
sim::Task<std::vector<Blob<U>>> compute_stage_plain(
    Cluster& cl, CachedRdd<T>& rdd, const TreeAggSpec<T, U>& spec, int job,
    AggMetrics* m, sim::WaitGroup* attempts_wg = nullptr) {
  const int p = rdd.num_partitions();
  std::vector<Blob<U>> out(static_cast<std::size_t>(p));
  obs::TraceSink& tr = cl.trace();
  obs::TraceSink::Scope stage_scope(
      tr, tr.begin("stage", "stage.compute", obs::kDriverPid, 0,
                   {{"job", job}, {"tasks", p}, {"imm", 0}}));
  sim::WaitGroup wg(cl.simulator());
  wg.add(p);
  std::exception_ptr error;
  const bool speculate = attempts_wg && cl.config().health.speculation;
  struct Worker {
    static sim::Task<void> go(Cluster& cl, CachedRdd<T>& rdd,
                              const TreeAggSpec<T, U>& spec, int job, int task,
                              Blob<U>& slot, AggMetrics* m, sim::WaitGroup& wg,
                              std::exception_ptr& error) {
      try {
        int exec_id = -1;
        co_await compute_with_retry(cl, rdd, spec, job, task, m, /*stage=*/0,
                                    &exec_id);
        U agg = fold_partition(rdd, spec, task);
        const std::uint64_t nbytes = spec.bytes(agg);
        // Vanilla Spark: each task serializes its result immediately upon
        // completion (exactly the overhead IMM removes).
        const obs::SpanId ser = cl.trace().begin(
            "ser", "ser.result", obs::exec_pid(exec_id), task,
            {{"job", job}, {"bytes", static_cast<std::int64_t>(nbytes)}});
        co_await cl.simulator().sleep(cl.ser_time(nbytes));
        cl.trace().end(ser);
        co_await cl.simulator().sleep(cl.control_latency(exec_id));
        (void)cl.driver_loop().enqueue(sim::microseconds(50));
        slot = Blob<U>{std::make_shared<U>(std::move(agg)), nbytes, exec_id,
                       /*serialized=*/true};
      } catch (...) {
        if (!error) error = std::current_exception();
      }
      wg.done();
    }
  };
  /// One racing attempt (primary or speculative duplicate). Only the
  /// claiming winner folds the partition and touches stage-frame state
  /// (slot, wg, error, m); a loser resumes later — possibly after the stage
  /// frame is gone — and touches only `race` and `attempts`.
  struct RaceWorker {
    static sim::Task<void> go(Cluster& cl, CachedRdd<T>& rdd,
                              const TreeAggSpec<T, U>& spec, int job, int task,
                              int force_exec, std::shared_ptr<SpecRace> race,
                              Blob<U>& slot, AggMetrics* m, sim::WaitGroup& wg,
                              sim::WaitGroup& attempts,
                              std::exception_ptr& error) {
      const bool speculative = force_exec >= 0;
      SpecRace::TaskState& ts = race->tasks[static_cast<std::size_t>(task)];
      bool finished = false;
      int ran_exec = -1;
      if (speculative) {
        try {
          co_await compute_attempt(
              cl, rdd, spec, TaskId{job, 0, task, kSpeculativeAttempt},
              &ran_exec, force_exec);
          finished = true;
        } catch (...) {
          // A failed duplicate loses quietly: the primary is still racing.
        }
      } else {
        for (int attempt = 0;; ++attempt) {
          try {
            co_await compute_attempt(cl, rdd, spec,
                                     TaskId{job, 0, task, attempt},
                                     &ts.primary_exec);
            ran_exec = ts.primary_exec;
            finished = true;
            break;
          } catch (const TaskFailed&) {
            if (ts.done) break;  // the duplicate already won; stop retrying.
            cl.health().record_failure(ts.primary_exec);
            if (m) ++m->task_retries;
            if (attempt + 1 >= cl.config().max_task_attempts) {
              if (race->claim(task)) {
                if (!error) {
                  error = std::make_exception_ptr(std::runtime_error(
                      "task exceeded max attempts; job aborted"));
                }
                wg.done();
              }
              attempts.done();
              co_return;
            }
          } catch (...) {
            // Not a modeled fault (no usable executor): abort the job, as
            // the IMM race does, instead of escaping a detached task.
            if (race->claim(task)) {
              if (!error) error = std::current_exception();
              wg.done();
            }
            attempts.done();
            co_return;
          }
        }
      }
      if (!finished || !race->claim(task)) {
        attempts.done();
        co_return;  // lost the race: never fold.
      }
      race->durations.push_back(cl.simulator().now() - ts.launched);
      if (speculative) {
        if (m) ++m->speculative_wins;
        cl.trace().instant("compute", "spec.win", obs::exec_pid(ran_exec),
                           task, {{"task", task}});
        if (ts.primary_exec >= 0) cl.health().record_straggler(ts.primary_exec);
      }
      try {
        U agg = fold_partition(rdd, spec, task);
        const std::uint64_t nbytes = spec.bytes(agg);
        const obs::SpanId ser = cl.trace().begin(
            "ser", "ser.result", obs::exec_pid(ran_exec), task,
            {{"job", job}, {"bytes", static_cast<std::int64_t>(nbytes)}});
        co_await cl.simulator().sleep(cl.ser_time(nbytes));
        cl.trace().end(ser);
        co_await cl.simulator().sleep(cl.control_latency(ran_exec));
        (void)cl.driver_loop().enqueue(sim::microseconds(50));
        slot = Blob<U>{std::make_shared<U>(std::move(agg)), nbytes, ran_exec,
                       /*serialized=*/true};
      } catch (...) {
        if (!error) error = std::current_exception();
      }
      wg.done();
      attempts.done();
    }
  };
  if (!speculate) {
    for (int t = 0; t < p; ++t) {
      cl.simulator().spawn(Worker::go(cl, rdd, spec, job, t,
                                      out[static_cast<std::size_t>(t)], m, wg,
                                      error));
    }
    co_await wg.wait();
  } else {
    auto race = std::make_shared<SpecRace>(p);
    const Time t0 = cl.simulator().now();
    for (int t = 0; t < p; ++t) {
      race->tasks[static_cast<std::size_t>(t)].launched = t0;
      attempts_wg->add(1);
      cl.simulator().spawn(RaceWorker::go(cl, rdd, spec, job, t, -1, race,
                                          out[static_cast<std::size_t>(t)], m,
                                          wg, *attempts_wg, error));
    }
    auto launch = std::make_shared<std::function<void(int, int)>>(
        [&cl, &rdd, &spec, job, race, &out, m, &wg, attempts_wg,
         &error](int task, int target) {
          if (m) ++m->speculative_launches;
          attempts_wg->add(1);
          cl.simulator().spawn(RaceWorker::go(
              cl, rdd, spec, job, task, target, race,
              out[static_cast<std::size_t>(task)], m, wg, *attempts_wg,
              error));
        });
    arm_speculation_tick(cl, race, launch,
                         t0 + cl.config().health.speculation_interval);
    co_await wg.wait();
    cl.simulator().cancel(race->tick);
    // On an error path, drain all attempts *before* throwing: zombies must
    // not outlive the frames they reference.
    if (error) co_await attempts_wg->wait();
  }
  if (error) {
    stage_scope.close({{"failed", 1}});
    std::rethrow_exception(error);
  }
  stage_scope.close();
  co_return out;
}

/// The IMM merge of one task result, run by the task's delivering attempt
/// while it holds the executor's merge lock: the partition is folded here,
/// merged into the shared value, and the task aggregator is destroyed
/// before the caller's status-update hop. The lock therefore bounds live
/// task aggregators at one per executor, beside the shared value.
template <typename T, typename U>
sim::Task<void> merge_task_result(Cluster& cl, CachedRdd<T>& rdd,
                                  const TreeAggSpec<T, U>& spec, int job,
                                  int task, int exec_id,
                                  Executor::MutableObject& obj) {
  if (!obj.value) obj.value = std::make_shared<U>(spec.zero);
  U agg = fold_partition(rdd, spec, task);
  const std::uint64_t mbytes = spec.bytes(agg);
  const obs::SpanId merge = cl.trace().begin(
      "reduce", "imm.merge", obs::exec_pid(exec_id), task,
      {{"job", job}, {"bytes", static_cast<std::int64_t>(mbytes)}});
  co_await cl.simulator().sleep(cl.merge_cost(mbytes));
  spec.comb_op(*std::static_pointer_cast<U>(obj.value), agg);
  ++obj.merges;
  cl.trace().end(merge);
}

/// Reduced-result stage (In-Memory Merge): task results fold into one
/// shared value per executor, unserialized; any failure — an injected task
/// fault, or an executor dying with partials merged into it — restarts the
/// whole stage after clearing the partials (paper Section 3.2). If
/// `task_exec` is non-null it receives, per partition, the executor whose
/// shared value absorbed that partition (the ring-stage retry uses this to
/// recompute exactly the partials a later death loses).
template <typename T, typename U>
sim::Task<std::vector<Blob<U>>> compute_stage_imm(
    Cluster& cl, CachedRdd<T>& rdd, const TreeAggSpec<T, U>& spec, int job,
    AggMetrics* m, std::vector<int>* task_exec = nullptr,
    sim::WaitGroup* attempts_wg = nullptr) {
  const int p = rdd.num_partitions();
  const bool speculate = attempts_wg && cl.config().health.speculation;
  obs::TraceSink& tr = cl.trace();
  for (int stage_attempt = 0;; ++stage_attempt) {
    obs::TraceSink::Scope stage_scope(
        tr, tr.begin("stage", "stage.compute", obs::kDriverPid, 0,
                     {{"job", job},
                      {"tasks", p},
                      {"imm", 1},
                      {"attempt", stage_attempt}}));
    const std::int64_t key = static_cast<std::int64_t>(job);
    bool failed = false;
    std::exception_ptr error;
    std::vector<int> ran_on(static_cast<std::size_t>(p), -1);
    sim::WaitGroup wg(cl.simulator());
    wg.add(p);
    struct Worker {
      static sim::Task<void> go(Cluster& cl, CachedRdd<T>& rdd,
                                const TreeAggSpec<T, U>& spec, int job,
                                int task, int attempt, std::int64_t key,
                                bool& failed, int& ran_on, sim::WaitGroup& wg,
                                std::exception_ptr& error) {
        int exec_id = -1;
        try {
          co_await compute_attempt(cl, rdd, spec,
                                   TaskId{job, 0, task, attempt}, &exec_id);
          ran_on = exec_id;
          Executor& ex = cl.executor(exec_id);
          auto& obj = ex.mutable_object(key, cl.simulator());
          co_await obj.lock->acquire();
          sim::SemaphoreGuard g(*obj.lock);
          co_await merge_task_result(cl, rdd, spec, job, task, exec_id, obj);
          // Status update carries only (executor id, object id).
          co_await cl.simulator().sleep(cl.control_latency(exec_id));
          (void)cl.driver_loop().enqueue(sim::microseconds(20));
        } catch (const TaskFailed&) {
          failed = true;
          if (exec_id >= 0) cl.health().record_failure(exec_id);
        } catch (...) {
          if (!error) error = std::current_exception();
        }
        wg.done();
      }
    };
    /// Racing IMM attempt. The *claim happens before the merge*: exactly
    /// one attempt per task ever folds and merges into the executor's
    /// shared value, which is what keeps speculation idempotent under IMM.
    /// Losers (and zombies from a previous, failed stage attempt — whose
    /// race object they keep alive) never fold, never merge and never touch
    /// stage-frame state.
    struct RaceWorker {
      static sim::Task<void> go(Cluster& cl, CachedRdd<T>& rdd,
                                const TreeAggSpec<T, U>& spec, int job,
                                int task, int stage_attempt, int force_exec,
                                std::shared_ptr<SpecRace> race,
                                std::int64_t key, bool& failed, int& ran_on,
                                AggMetrics* m, sim::WaitGroup& wg,
                                sim::WaitGroup& attempts,
                                std::exception_ptr& error) {
        const bool speculative = force_exec >= 0;
        SpecRace::TaskState& ts = race->tasks[static_cast<std::size_t>(task)];
        int exec_id = -1;
        const int attempt = speculative ? kSpeculativeAttempt + stage_attempt
                                        : stage_attempt;
        try {
          if (speculative) {
            co_await compute_attempt(cl, rdd, spec,
                                     TaskId{job, 0, task, attempt}, &exec_id,
                                     force_exec);
          } else {
            co_await compute_attempt(cl, rdd, spec,
                                     TaskId{job, 0, task, attempt},
                                     &ts.primary_exec);
            exec_id = ts.primary_exec;
          }
        } catch (const TaskFailed&) {
          // A failed duplicate loses quietly; a failed primary restarts the
          // stage (IMM has no task-level recovery) — unless its duplicate
          // already won, in which case speculation just saved the stage.
          if (!speculative && race->claim(task)) {
            cl.health().record_failure(ts.primary_exec);
            failed = true;
            wg.done();
          }
          attempts.done();
          co_return;
        } catch (...) {
          if (!speculative && race->claim(task)) {
            if (!error) error = std::current_exception();
            wg.done();
          }
          attempts.done();
          co_return;
        }
        if (!race->claim(task)) {
          attempts.done();
          co_return;  // lost the race: never merge.
        }
        race->durations.push_back(cl.simulator().now() - ts.launched);
        if (speculative) {
          if (m) ++m->speculative_wins;
          cl.trace().instant("compute", "spec.win", obs::exec_pid(exec_id),
                             task, {{"task", task}});
          if (ts.primary_exec >= 0) {
            cl.health().record_straggler(ts.primary_exec);
          }
        }
        try {
          Executor& ex = cl.executor(exec_id);
          auto& obj = ex.mutable_object(key, cl.simulator());
          co_await obj.lock->acquire();
          sim::SemaphoreGuard g(*obj.lock);
          co_await merge_task_result(cl, rdd, spec, job, task, exec_id, obj);
          co_await cl.simulator().sleep(cl.control_latency(exec_id));
          (void)cl.driver_loop().enqueue(sim::microseconds(20));
          ran_on = exec_id;
        } catch (...) {
          if (!error) error = std::current_exception();
        }
        wg.done();
        attempts.done();
      }
    };
    std::shared_ptr<SpecRace> race;
    if (!speculate) {
      for (int t = 0; t < p; ++t) {
        cl.simulator().spawn(Worker::go(cl, rdd, spec, job, t, stage_attempt,
                                        key, failed,
                                        ran_on[static_cast<std::size_t>(t)],
                                        wg, error));
      }
    } else {
      race = std::make_shared<SpecRace>(p);
      const Time t0 = cl.simulator().now();
      for (int t = 0; t < p; ++t) {
        race->tasks[static_cast<std::size_t>(t)].launched = t0;
        attempts_wg->add(1);
        cl.simulator().spawn(RaceWorker::go(
            cl, rdd, spec, job, t, stage_attempt, -1, race, key, failed,
            ran_on[static_cast<std::size_t>(t)], m, wg, *attempts_wg, error));
      }
      auto launch = std::make_shared<std::function<void(int, int)>>(
          [&cl, &rdd, &spec, job, stage_attempt, race, key, &failed, &ran_on,
           m, &wg, attempts_wg, &error](int task, int target) {
            if (m) ++m->speculative_launches;
            attempts_wg->add(1);
            cl.simulator().spawn(RaceWorker::go(
                cl, rdd, spec, job, task, stage_attempt, target, race, key,
                failed, ran_on[static_cast<std::size_t>(task)], m, wg,
                *attempts_wg, error));
          });
      arm_speculation_tick(cl, race, launch,
                           t0 + cl.config().health.speculation_interval);
    }
    co_await wg.wait();
    if (race) cl.simulator().cancel(race->tick);
    if (error) {
      if (speculate) co_await attempts_wg->wait();
      stage_scope.close({{"failed", 1}});
      std::rethrow_exception(error);
    }
    if (!failed) {
      // An executor that died after absorbing partials loses them: that is
      // a stage failure too (no task-level recovery under IMM).
      for (int t = 0; t < p; ++t) {
        if (!cl.executor_alive(ran_on[static_cast<std::size_t>(t)])) {
          failed = true;
          break;
        }
      }
    }
    if (!failed) {
      std::vector<Blob<U>> out;
      for (int e = 0; e < cl.num_executors(); ++e) {
        Executor& ex = cl.executor(e);
        auto& obj = ex.mutable_object(key, cl.simulator());
        if (obj.value) {
          auto val = std::static_pointer_cast<U>(obj.value);
          out.push_back(Blob<U>{val, spec.bytes(*val), e,
                                /*serialized=*/false});
        }
        ex.clear_mutable_object(key);
      }
      if (task_exec) *task_exec = std::move(ran_on);
      stage_scope.close();
      co_return out;
    }
    if (m) ++m->stage_restarts;
    stage_scope.close({{"failed", 1}});
    tr.instant("recover", "stage.restart", obs::kDriverPid, 0,
               {{"job", job}, {"attempt", stage_attempt}});
    for (int e = 0; e < cl.num_executors(); ++e) {
      cl.executor(e).clear_mutable_object(key);
    }
    if (stage_attempt + 1 >= cl.config().max_stage_attempts) {
      if (speculate) co_await attempts_wg->wait();
      throw std::runtime_error("stage exceeded max attempts; job aborted");
    }
  }
}

/// One shuffle-combine reduce task: fetch inputs (concurrently),
/// deserialize and merge them, re-serialize the result.
template <typename U>
sim::Task<Blob<U>> reduce_task(Cluster& cl, int job,
                               std::vector<Blob<U>> inputs, int dest_exec,
                               const std::function<void(U&, const U&)>& comb,
                               const std::function<std::uint64_t(const U&)>&
                                   bytes_of) {
  Executor& ex = cl.executor(dest_exec);
  const obs::SpanId span = cl.trace().begin(
      "reduce", "task.combine", obs::exec_pid(dest_exec), 0,
      {{"job", job}, {"inputs", static_cast<std::int64_t>(inputs.size())}});
  const Time dispatched =
      cl.driver_loop().enqueue(cl.spec().rates.task_dispatch);
  co_await cl.simulator().sleep_until(dispatched);
  co_await cl.simulator().sleep(cl.control_latency(dest_exec));
  co_await ex.cores().acquire();
  sim::SemaphoreGuard slot(ex.cores());
  co_await cl.simulator().sleep(cl.spec().rates.task_overhead);
  // Fetch all remote inputs concurrently (Spark pipelines shuffle fetches).
  // IMM results are not yet serialized: the source pays that cost now.
  sim::WaitGroup fetches(cl.simulator());
  for (const auto& in : inputs) {
    if (in.executor == dest_exec && in.serialized) continue;
    fetches.add(1);
    struct Fetch {
      static sim::Task<void> go(Cluster& cl, int from, int to,
                                std::uint64_t b, bool serialized,
                                sim::WaitGroup& wg) {
        if (!serialized) co_await cl.simulator().sleep(cl.ser_time(b));
        if (from != to) co_await cl.fetch_blob(from, to, b);
        wg.done();
      }
    };
    cl.simulator().spawn(Fetch::go(cl, in.executor, dest_exec, in.bytes,
                                   in.serialized, fetches));
  }
  co_await fetches.wait();
  std::optional<U> acc;
  for (auto& in : inputs) {
    co_await cl.simulator().sleep(cl.deser_time(in.bytes));
    if (!acc) {
      acc = *in.value;  // copy: inputs may be shared with other views
    } else {
      co_await cl.simulator().sleep(cl.merge_cost(in.bytes));
      comb(*acc, *in.value);
    }
  }
  const std::uint64_t out_bytes = bytes_of(*acc);
  co_await cl.simulator().sleep(cl.ser_time(out_bytes));
  co_await cl.simulator().sleep(cl.control_latency(dest_exec));
  (void)cl.driver_loop().enqueue(sim::microseconds(50));
  cl.trace().end(span, {{"bytes", static_cast<std::int64_t>(out_bytes)}});
  co_return Blob<U>{std::make_shared<U>(std::move(*acc)), out_bytes,
                    dest_exec};
}

/// Final serial reduce at the driver: results arrive (inline or via
/// BlockManager fetch) and are deserialized + merged one at a time through
/// the driver loop.
template <typename U>
sim::Task<U> driver_reduce(Cluster& cl, int job, std::vector<Blob<U>> inputs,
                           const std::function<void(U&, const U&)>& comb) {
  std::optional<U> acc;
  sim::WaitGroup wg(cl.simulator());
  wg.add(static_cast<std::int64_t>(inputs.size()));
  struct Arrive {
    static sim::Task<void> go(Cluster& cl, int job, Blob<U> in,
                              std::optional<U>& acc,
                              const std::function<void(U&, const U&)>& comb,
                              sim::WaitGroup& wg) {
      co_await cl.simulator().sleep(cl.control_latency(in.executor));
      if (!in.serialized) {
        co_await cl.simulator().sleep(cl.ser_time(in.bytes));
      }
      if (in.bytes > kDirectResultLimit) {
        co_await cl.fetch_blob(in.executor, Cluster::kDriver, in.bytes);
      }
      const Duration work =
          cl.driver_deser_time(in.bytes) + cl.driver_merge_cost(in.bytes);
      const Time done = cl.driver_loop().enqueue(work);
      // The driver loop is busy on this result over [done - work, done]
      // (enqueue may queue it behind other driver work).
      cl.trace().span_at("reduce", "reduce.driver", obs::kDriverPid, 0,
                         done - work, done,
                         {{"job", job},
                          {"from", in.executor},
                          {"bytes", static_cast<std::int64_t>(in.bytes)}});
      co_await cl.simulator().sleep_until(done);
      if (!acc) {
        acc = *in.value;
      } else {
        comb(*acc, *in.value);
      }
      wg.done();
    }
  };
  for (auto& in : inputs) {
    cl.simulator().spawn(Arrive::go(cl, job, in, acc, comb, wg));
  }
  co_await wg.wait();
  co_return std::move(*acc);
}

/// The fixed rank <-> executor picture of one ring-stage attempt, captured
/// immediately after the communicator is (re)built. Every decision the
/// attempt makes — which partials are outside the ring and must refold,
/// which executor holds which rank — reads this snapshot, never the live
/// `rank_of_executor` view: a kill or membership change during the
/// attempt's awaits would otherwise rebuild the communicator mid-attempt
/// and shear rank lookups away from the communicator the tasks run on.
struct RingSnapshot {
  comm::Communicator* sc = nullptr;
  int n = 0;
  std::vector<int> rank_exec;  ///< rank -> executor id.
  std::vector<int> exec_rank;  ///< executor id -> rank, -1 if outside.
};

/// Recomputes partitions whose partials sit outside the attempt's rank set
/// (dead, quarantined, or departed holders), folding them into survivors'
/// shared values — partition data regenerates deterministically, exactly
/// like a Spark recompute. Shared by split_aggregate and split_allreduce.
/// Ownership discipline: each executor's partition list is *moved out*
/// before the first co_await, so no other recovery path (in particular the
/// overlapped eager refold) can claim the same partitions twice.
template <typename T, typename U, typename V>
sim::Task<void> refold_partials(Cluster& cl, CachedRdd<T>& rdd,
                                const SplitAggSpec<T, U, V>& spec, int job,
                                AggMetrics* m, const RingSnapshot& ring,
                                std::vector<std::shared_ptr<U>>& per_exec,
                                std::vector<std::vector<int>>& owned) {
  obs::TraceSink& tr = cl.trace();
  const int num_exec = cl.num_executors();
  for (int e = 0; e < num_exec; ++e) {
    if (ring.exec_rank[static_cast<std::size_t>(e)] >= 0 ||
        owned[static_cast<std::size_t>(e)].empty()) {
      continue;
    }
    const std::vector<int> lost = std::move(owned[static_cast<std::size_t>(e)]);
    owned[static_cast<std::size_t>(e)].clear();
    per_exec[static_cast<std::size_t>(e)].reset();
    obs::TraceSink::Scope refold_scope(
        tr, tr.begin("recover", "recover.refold", obs::kDriverPid, 0,
                     {{"job", job},
                      {"executor", e},
                      {"partitions", static_cast<std::int64_t>(lost.size())}}));
    for (int pid : lost) {
      int ran_on = -1;
      co_await compute_with_retry(cl, rdd, spec.base, job, pid, m,
                                  /*stage=*/1, &ran_on);
      auto& dst = per_exec[static_cast<std::size_t>(ran_on)];
      if (!dst) dst = std::make_shared<U>(spec.base.zero);
      const U agg = fold_partition(rdd, spec.base, pid);
      co_await cl.simulator().sleep(cl.merge_cost(spec.base.bytes(agg)));
      spec.base.comb_op(*dst, agg);
      owned[static_cast<std::size_t>(ran_on)].push_back(pid);
    }
  }
}

/// The stage boundary of one ring attempt, in load-bearing order:
///
///  1. membership sync — arrived joiners are admitted (warm-up transfer)
///     so the new ring can include them;
///  2. partial migration — each *draining* executor's merged partial moves
///     to its ring successor over the data plane (one fetch + one merge)
///     instead of being recomputed, and the drain completes;
///  3. the communicator is (re)built over the resulting membership and the
///     rank picture snapshotted before any further await;
///  4. residual refold — partials still held outside the rank set (dead or
///     otherwise departed holders) are recomputed onto survivors.
///
/// Fixing the rank set before the refold (3 before 4) is the PR-1 TOCTOU
/// fix: checking liveness before the rebuild would let a kill in between
/// slip an executor's partial out of the ring without recovery.
template <typename T, typename U, typename V>
sim::Task<RingSnapshot> ring_boundary(Cluster& cl, CachedRdd<T>& rdd,
                                      const SplitAggSpec<T, U, V>& spec,
                                      int job, AggMetrics* m,
                                      std::vector<std::shared_ptr<U>>& per_exec,
                                      std::vector<std::vector<int>>& owned,
                                      JobRing* job_ring = nullptr) {
  obs::TraceSink& tr = cl.trace();
  co_await cl.sync_membership(/*complete_drains=*/false);
  const int num_exec = cl.num_executors();
  for (int d = 0; d < num_exec; ++d) {
    if (!cl.membership().draining(d)) continue;
    if (owned[static_cast<std::size_t>(d)].empty() || !cl.executor_alive(d)) {
      // Nothing to hand off — or the executor died mid-drain, in which case
      // its partials take the refold path below like any other loss.
      cl.membership().complete_drain(d);
      continue;
    }
    // Claim the partitions before the first co_await (same no-double-count
    // discipline as the refold paths).
    std::vector<int> pids = std::move(owned[static_cast<std::size_t>(d)]);
    owned[static_cast<std::size_t>(d)].clear();
    std::shared_ptr<U> value = std::move(per_exec[static_cast<std::size_t>(d)]);
    per_exec[static_cast<std::size_t>(d)].reset();
    const int succ = cl.ring_successor(d);
    if (succ < 0 || !value) {
      // No live successor to hand off to: fall back to recomputation.
      owned[static_cast<std::size_t>(d)] = std::move(pids);
      cl.membership().complete_drain(d);
      continue;
    }
    const std::uint64_t bytes = spec.base.bytes(*value);
    obs::TraceSink::Scope mig(
        tr, tr.begin("membership", "membership.migrate", obs::kDriverPid, 0,
                     {{"job", job},
                      {"from", d},
                      {"to", succ},
                      {"bytes", static_cast<std::int64_t>(bytes)},
                      {"partitions", static_cast<std::int64_t>(pids.size())}}));
    co_await cl.fetch_blob(d, succ, bytes);
    auto& dst = per_exec[static_cast<std::size_t>(succ)];
    if (!dst) dst = std::make_shared<U>(spec.base.zero);
    co_await cl.simulator().sleep(cl.merge_cost(bytes));
    spec.base.comb_op(*dst, *value);
    for (int pid : pids) {
      owned[static_cast<std::size_t>(succ)].push_back(pid);
    }
    cl.membership().note_migration(static_cast<int>(pids.size()));
    mig.close();
    cl.membership().complete_drain(d);
  }
  auto& sc = cl.ring_comm(job_ring);
  RingSnapshot ring;
  ring.sc = &sc;
  ring.n = sc.size();
  ring.exec_rank.assign(static_cast<std::size_t>(num_exec), -1);
  ring.rank_exec.resize(static_cast<std::size_t>(ring.n));
  for (int r = 0; r < ring.n; ++r) {
    const int e = cl.ring_executor_of_rank(job_ring, r);
    ring.rank_exec[static_cast<std::size_t>(r)] = e;
    ring.exec_rank[static_cast<std::size_t>(e)] = r;
  }
  co_await refold_partials(cl, rdd, spec, job, m, ring, per_exec, owned);
  co_return ring;
}

/// Settle-then-backoff between failed ring-stage attempts, optionally
/// overlapped with an eager refold of partials lost with *physically dead*
/// executors (`EngineConfig::overlap_recovery`).
///
/// Sequential mode reproduces the pre-elastic span structure exactly
/// (detect.settle then recover.backoff, back to back). Overlapped mode
/// wraps both branches in one `recover.overlap` span: branch A waits out
/// heartbeat detection and sleeps the backoff; branch B concurrently
/// recomputes partials whose holders the fault fabric already killed — a
/// lost partial is a physical fact, the same omniscience compute_attempt
/// itself uses — onto executors that are both health-usable and alive.
/// Partitions that cannot be placed yet are pushed back for the next
/// boundary's residual refold; since every claim is a move, a partition is
/// refolded by exactly one path. Results are bit-identical either way;
/// only the timing of the recomputation changes.
template <typename T, typename U, typename V>
sim::Task<void> recover_between_attempts(
    Cluster& cl, CachedRdd<T>& rdd, const SplitAggSpec<T, U, V>& spec, int job,
    int ring_attempt, AggMetrics* m,
    std::vector<std::shared_ptr<U>>& per_exec,
    std::vector<std::vector<int>>& owned) {
  obs::TraceSink& tr = cl.trace();
  const Duration backoff = cl.config().stage_retry_backoff
                           << (ring_attempt - 1);
  if (!cl.config().overlap_recovery) {
    // With heartbeats on, the driver cannot yet tell which member is dead
    // — rebuilding immediately would re-include it and fail again. Wait
    // out detection (bounded by executor_timeout); the wait lands in
    // recovery_time, which is exactly what makes detection latency a
    // measurable recovery component.
    const obs::SpanId detect =
        tr.begin("detect", "detect.settle", obs::kDriverPid, 0,
                 {{"job", job}, {"attempt", ring_attempt}});
    co_await cl.health().await_settled();
    tr.end(detect);
    // Exponential backoff before re-running the stage.
    const obs::SpanId pause =
        tr.begin("recover", "recover.backoff", obs::kDriverPid, 0,
                 {{"job", job},
                  {"attempt", ring_attempt},
                  {"backoff_ns", static_cast<std::int64_t>(backoff)}});
    co_await cl.simulator().sleep(backoff);
    tr.end(pause);
    co_return;
  }

  obs::TraceSink::Scope overlap(
      tr, tr.begin("recover", "recover.overlap", obs::kDriverPid, 0,
                   {{"job", job},
                    {"attempt", ring_attempt},
                    {"backoff_ns", static_cast<std::int64_t>(backoff)}}));
  sim::WaitGroup wg(cl.simulator());
  wg.add(2);
  std::exception_ptr error;

  struct Settle {
    static sim::Task<void> go(Cluster& cl, int job, int ring_attempt,
                              Duration backoff, sim::WaitGroup& wg,
                              std::exception_ptr& error) {
      obs::TraceSink& tr = cl.trace();
      try {
        const obs::SpanId detect =
            tr.begin("detect", "detect.settle", obs::kDriverPid, 0,
                     {{"job", job}, {"attempt", ring_attempt}});
        co_await cl.health().await_settled();
        tr.end(detect);
        const obs::SpanId pause =
            tr.begin("recover", "recover.backoff", obs::kDriverPid, 0,
                     {{"job", job},
                      {"attempt", ring_attempt},
                      {"backoff_ns", static_cast<std::int64_t>(backoff)}});
        co_await cl.simulator().sleep(backoff);
        tr.end(pause);
      } catch (...) {
        if (!error) error = std::current_exception();
      }
      wg.done();
    }
  };

  struct EagerRefold {
    static sim::Task<void> go(Cluster& cl, CachedRdd<T>& rdd,
                              const SplitAggSpec<T, U, V>& spec, int job,
                              AggMetrics* m,
                              std::vector<std::shared_ptr<U>>& per_exec,
                              std::vector<std::vector<int>>& owned,
                              sim::WaitGroup& wg, std::exception_ptr& error) {
      obs::TraceSink& tr = cl.trace();
      try {
        const int num_exec = cl.num_executors();
        for (int e = 0; e < num_exec; ++e) {
          if (cl.executor_alive(e) ||
              owned[static_cast<std::size_t>(e)].empty()) {
            continue;
          }
          std::vector<int> lost =
              std::move(owned[static_cast<std::size_t>(e)]);
          owned[static_cast<std::size_t>(e)].clear();
          per_exec[static_cast<std::size_t>(e)].reset();
          obs::TraceSink::Scope refold_scope(
              tr,
              tr.begin("recover", "recover.refold", obs::kDriverPid, 0,
                       {{"job", job},
                        {"executor", e},
                        {"partitions",
                         static_cast<std::int64_t>(lost.size())}}));
          for (int pid : lost) {
            bool placed = false;
            for (int attempt = 0; !placed; ++attempt) {
              // Target: health-usable AND alive, re-picked per attempt —
              // a dead-but-undetected executor would burn the whole retry
              // budget before the monitor even declares it dead.
              int target = -1;
              const int pref = rdd.preferred_executor(pid);
              for (int i = 0; i < num_exec; ++i) {
                const int cand = (pref + i) % num_exec;
                if (cl.executor_usable(cand) && cl.executor_alive(cand)) {
                  target = cand;
                  break;
                }
              }
              if (target < 0) break;  // nowhere to place it right now.
              try {
                int ran_on = -1;
                co_await compute_attempt(cl, rdd, spec.base,
                                         TaskId{job, 1, pid, attempt},
                                         &ran_on, target);
                auto& dst = per_exec[static_cast<std::size_t>(ran_on)];
                if (!dst) dst = std::make_shared<U>(spec.base.zero);
                const U agg = fold_partition(rdd, spec.base, pid);
                co_await cl.simulator().sleep(
                    cl.merge_cost(spec.base.bytes(agg)));
                spec.base.comb_op(*dst, agg);
                owned[static_cast<std::size_t>(ran_on)].push_back(pid);
                placed = true;
              } catch (const TaskFailed&) {
                cl.health().record_failure(target);
                if (m) ++m->task_retries;
                if (attempt + 1 >= cl.config().max_task_attempts) {
                  throw std::runtime_error(
                      "task exceeded max attempts; job aborted");
                }
              }
            }
            if (!placed) {
              // Hand the partition back for the next boundary's residual
              // refold; ownership moved here and moves back exactly once.
              owned[static_cast<std::size_t>(e)].push_back(pid);
            }
          }
        }
      } catch (...) {
        if (!error) error = std::current_exception();
      }
      wg.done();
    }
  };

  cl.simulator().spawn(
      Settle::go(cl, job, ring_attempt, backoff, wg, error));
  cl.simulator().spawn(EagerRefold::go(cl, rdd, spec, job, m, per_exec,
                                       owned, wg, error));
  co_await wg.wait();
  overlap.close();
  if (error) std::rethrow_exception(error);
}

}  // namespace detail

/// Spark's treeAggregate (optionally with IMM in the compute stage,
/// per `cluster.config().agg_mode`). Returns the fully reduced aggregator.
template <typename T, typename U>
sim::Task<U> tree_aggregate(Cluster& cl, CachedRdd<T>& rdd,
                            const TreeAggSpec<T, U>& spec,
                            AggMetrics* metrics = nullptr,
                            const JobOptions& opt = {}) {
  AggMetrics local;
  AggMetrics* m = metrics ? metrics : &local;
  const int job = cl.next_job_id();
  m->start = cl.simulator().now();
  m->task_retries = 0;
  m->stage_restarts = 0;
  m->ring_stage_attempts = 0;
  m->recovery_time = 0;
  m->speculative_launches = 0;
  m->speculative_wins = 0;
  HealthJobGuard health_guard(cl.health());
  detail::JobMetricsGuard metrics_guard{&cl, m, "agg.jobs.tree", job,
                                        opt.tenant};
  obs::TraceSink& tr = cl.trace();
  obs::TraceSink::Scope job_scope(
      tr, opt.tenant >= 0
              ? tr.begin("job", "job.tree_aggregate", obs::kDriverPid, 0,
                         {{"job", job},
                          {"tenant", opt.tenant},
                          {"sched_job", opt.sched_job}})
              : tr.begin("job", "job.tree_aggregate", obs::kDriverPid, 0,
                         {{"job", job}}));
  // Counts every racing attempt frame; drained before this frame dies so
  // losing speculative attempts never outlive the state they reference.
  sim::WaitGroup spec_attempts(cl.simulator());

  // Job boundary: admit arrived joiners (warm-up transfer) and complete
  // pending drains — a tree job holds no ring state to migrate.
  co_await cl.sync_membership(/*complete_drains=*/true);
  const bool imm = cl.config().agg_mode != AggMode::kTree;
  co_await cl.simulator().sleep(cl.spec().rates.scheduler_delay);
  std::vector<detail::Blob<U>> blobs;
  if (imm) {
    blobs = co_await detail::compute_stage_imm(cl, rdd, spec, job, m, nullptr,
                                               &spec_attempts);
  } else {
    blobs = co_await detail::compute_stage_plain(cl, rdd, spec, job, m,
                                                 &spec_attempts);
  }
  m->compute_done = cl.simulator().now();

  // Spark's reduction schedule: scale = max(ceil(P^(1/depth)), 2); combine
  // rounds shrink the partition count while it stays above
  // scale + ceil(P/scale); then reduce at the driver.
  int num_partitions = static_cast<int>(blobs.size());
  const int depth = std::max(1, cl.config().tree_depth);
  const int scale = std::max(
      2, static_cast<int>(std::ceil(
             std::pow(static_cast<double>(num_partitions), 1.0 / depth))));
  while (num_partitions >
         scale + static_cast<int>(std::ceil(static_cast<double>(num_partitions) /
                                            scale))) {
    num_partitions /= scale;
    std::vector<std::vector<detail::Blob<U>>> groups(
        static_cast<std::size_t>(num_partitions));
    for (std::size_t i = 0; i < blobs.size(); ++i) {
      groups[i % static_cast<std::size_t>(num_partitions)].push_back(
          std::move(blobs[i]));
    }
    co_await cl.simulator().sleep(cl.spec().rates.scheduler_delay);
    std::vector<detail::Blob<U>> next(static_cast<std::size_t>(num_partitions));
    sim::WaitGroup wg(cl.simulator());
    wg.add(num_partitions);
    struct Combine {
      static sim::Task<void> go(Cluster& cl, int job,
                                std::vector<detail::Blob<U>> inputs,
                                int dest_exec, const TreeAggSpec<T, U>& spec,
                                detail::Blob<U>& out, sim::WaitGroup& wg) {
        out = co_await detail::reduce_task<U>(cl, job, std::move(inputs),
                                              dest_exec, spec.comb_op,
                                              spec.bytes);
        wg.done();
      }
    };
    for (int j = 0; j < num_partitions; ++j) {
      const int dest = j % cl.num_executors();
      cl.simulator().spawn(Combine::go(cl, job,
                                       std::move(groups[static_cast<std::size_t>(j)]),
                                       dest, spec,
                                       next[static_cast<std::size_t>(j)], wg));
    }
    co_await wg.wait();
    blobs = std::move(next);
  }

  co_await cl.simulator().sleep(cl.spec().rates.scheduler_delay);
  U result = co_await detail::driver_reduce<U>(cl, job, std::move(blobs),
                                               spec.comb_op);
  m->end = cl.simulator().now();
  tr.span_at("phase", "agg_compute", obs::kDriverPid, 0, m->start,
             m->compute_done, {{"job", job}});
  tr.span_at("phase", "agg_reduce", obs::kDriverPid, 0, m->compute_done,
             m->end, {{"job", job}});
  job_scope.close();
  // Drain losing speculative attempts (m->end is already recorded, so the
  // job's measured time excludes zombies running out their last attempt).
  co_await spec_attempts.wait();
  co_return result;
}

/// Sparker's splitAggregate (paper Figure 6): reduced-result stage, then a
/// statically scheduled SpawnRDD stage running ring reduce-scatter over the
/// scalable communicator, then collect + concatOp at the driver.
///
/// The SpawnRDD stage is fault-tolerant at *stage* granularity: if a
/// collective fails (an executor dies mid-ring, or a severed channel times
/// a recv out), the surviving per-executor merged values from stage 1 are
/// kept, any partials lost with dead executors are recomputed onto
/// survivors, the communicator is rebuilt over the surviving topology, and
/// the whole ring stage re-runs after an exponential backoff — up to
/// `max_stage_attempts` times. Attempt counts and the simulated time lost
/// to recovery land in AggMetrics (and, cluster-lifetime, in the metrics
/// registry).
template <typename T, typename U, typename V>
sim::Task<V> split_aggregate(Cluster& cl, CachedRdd<T>& rdd,
                             const SplitAggSpec<T, U, V>& spec,
                             AggMetrics* metrics = nullptr,
                             const JobOptions& opt = {}) {
  AggMetrics local;
  AggMetrics* m = metrics ? metrics : &local;
  const int job = cl.next_job_id();
  m->start = cl.simulator().now();
  m->task_retries = 0;
  m->stage_restarts = 0;
  m->ring_stage_attempts = 0;
  m->recovery_time = 0;
  m->speculative_launches = 0;
  m->speculative_wins = 0;
  HealthJobGuard health_guard(cl.health());
  detail::JobMetricsGuard metrics_guard{&cl, m, "agg.jobs.split", job,
                                        opt.tenant};
  obs::TraceSink& tr = cl.trace();
  obs::TraceSink::Scope job_scope(
      tr, opt.tenant >= 0
              ? tr.begin("job", "job.split_aggregate", obs::kDriverPid, 0,
                         {{"job", job},
                          {"tenant", opt.tenant},
                          {"sched_job", opt.sched_job}})
              : tr.begin("job", "job.split_aggregate", obs::kDriverPid, 0,
                         {{"job", job}}));
  sim::WaitGroup spec_attempts(cl.simulator());

  // Job boundary: admit arrived joiners before stage 1 so they can take
  // compute tasks; no partials exist yet, so pending drains just complete.
  co_await cl.sync_membership(/*complete_drains=*/true);

  // Stage 1: reduced-result stage; exactly one aggregator per executor.
  co_await cl.simulator().sleep(cl.spec().rates.scheduler_delay);
  std::vector<int> task_exec;
  auto blobs =
      co_await detail::compute_stage_imm(cl, rdd, spec.base, job, m,
                                         &task_exec, &spec_attempts);
  m->compute_done = cl.simulator().now();

  // Per-executor merged values, keyed by *executor id* (stable across
  // communicator rebuilds), plus which partitions fed each value — the
  // recovery bookkeeping for refolding lost partials.
  const int num_exec = cl.num_executors();
  std::vector<std::shared_ptr<U>> per_exec(static_cast<std::size_t>(num_exec));
  std::vector<std::vector<int>> owned(static_cast<std::size_t>(num_exec));
  for (auto& b : blobs) {
    per_exec[static_cast<std::size_t>(b.executor)] = b.value;
  }
  for (int t = 0; t < rdd.num_partitions(); ++t) {
    owned[static_cast<std::size_t>(task_exec[static_cast<std::size_t>(t)])]
        .push_back(t);
  }

  // Stage 2: SpawnRDD — one task pinned to each live executor, retried at
  // stage granularity on collective failure.
  struct RingTask {
    // `rank` is this executor's rank in `sc`, captured when the attempt's
    // communicator was built: re-deriving it here (rank_of_executor) could
    // trigger a mid-attempt rebuild if another executor has died since,
    // leaving rank and communicator inconsistent.
    static sim::Task<void> go(Cluster& cl, int job, comm::Communicator& sc,
                              comm::AlgoId algo, int exec_id, int rank,
                              const SplitAggSpec<T, U, V>& spec,
                              std::shared_ptr<U> local,
                              std::vector<std::pair<int, V>>& all_segs,
                              std::uint64_t& total_v_bytes, sim::WaitGroup& wg,
                              std::exception_ptr& error) {
      try {
        const Time dispatched =
            cl.driver_loop().enqueue(cl.spec().rates.task_dispatch);
        co_await cl.simulator().sleep_until(dispatched);
        co_await cl.simulator().sleep(cl.control_latency(exec_id));
        Executor& ex = cl.executor(exec_id);
        co_await ex.cores().acquire();
        sim::SemaphoreGuard slot(ex.cores());
        co_await cl.simulator().sleep(cl.spec().rates.task_overhead);
        if (algo == comm::AlgoId::kSparseRing && spec.encode_op) {
          // The codec's gather pass emits the encoded segments directly,
          // replacing the dense split pass.
          co_await detail::comp_encode_pass(cl, job, algo, exec_id, rank,
                                            spec, *local);
        } else {
          // Splitting the aggregator into P*N segments is one pass over it.
          co_await cl.simulator().sleep(
              cl.merge_cost(spec.base.bytes(*local)));
        }
        comm::SegOps<V> ops =
            detail::make_seg_ops(cl, job, algo, exec_id, rank, spec, local);
        auto segs = co_await comm::CollectiveRegistry<V>::instance()
                        .reduce_scatter(algo, sc, rank, ops);
        if (!cl.executor_alive(exec_id)) {
          throw comm::CollectiveFailed("executor died after reduce-scatter");
        }
        // Ship this task's P segments to the driver as its task result.
        std::uint64_t nbytes = 0;
        for (auto& [idx, v] : segs) nbytes += spec.v_bytes(v);
        const obs::SpanId ser = cl.trace().begin(
            "ser", "ser.result", obs::exec_pid(exec_id), rank,
            {{"job", job}, {"bytes", static_cast<std::int64_t>(nbytes)}});
        co_await cl.simulator().sleep(cl.ser_time(nbytes));
        cl.trace().end(ser);
        co_await cl.simulator().sleep(cl.control_latency(exec_id));
        if (nbytes > detail::kDirectResultLimit) {
          co_await cl.fetch_blob(exec_id, Cluster::kDriver, nbytes);
        }
        const Time done =
            cl.driver_loop().enqueue(cl.driver_deser_time(nbytes));
        co_await cl.simulator().sleep_until(done);
        for (auto& s : segs) all_segs.push_back(std::move(s));
        total_v_bytes += nbytes;
      } catch (...) {
        if (!error) error = std::current_exception();
      }
      wg.done();
    }
  };

  // The concrete algorithm the previous attempt ran: ring re-formation
  // keeps it (hysteresis in comm::retune_algo) unless the tuner's pick for
  // the new ring size is decisively better. kAuto = no prior attempt.
  comm::AlgoId prev_algo = comm::AlgoId::kAuto;
  for (int ring_attempt = 1;; ++ring_attempt) {
    m->ring_stage_attempts = ring_attempt;
    const Time attempt_start = cl.simulator().now();
    bool attempt_failed = false;
    // The algorithm is resolved once per attempt (inside the try, after the
    // membership snapshot: kAuto depends on the live rank count), so every
    // rank of one collective runs the same algorithm. Declared here so the
    // failure path can stamp it on the closing span too.
    comm::AlgoId algo = cl.config().collective_algo;
    // The attempt span opens at attempt_start and, on failure, closes at
    // the instant the collective failure surfaces — making the failed span
    // plus the recovery spans that follow (detect.settle + recover.backoff,
    // or their recover.overlap wrapper) exactly the contiguous interval
    // recovery_time accrues (obs::recovery_from_trace reconstructs it).
    obs::TraceSink::Scope attempt_scope(
        tr, tr.begin("stage", "stage.ring", obs::kDriverPid, 0,
                     {{"job", job}, {"attempt", ring_attempt}}));
    try {
      co_await cl.simulator().sleep(cl.spec().rates.scheduler_delay);
      // Stage boundary: membership sync, drained-partial migration, ring
      // (re)formation and residual refold, all against one rank snapshot
      // (see ring_boundary for why the ordering is load-bearing).
      const detail::RingSnapshot ring = co_await detail::ring_boundary(
          cl, rdd, spec, job, m, per_exec, owned, opt.ring);
      const int n = ring.n;
      algo = comm::retune_algo(
          comm::CollectiveOp::kReduceScatter, cl.config().collective_algo,
          prev_algo,
          cl.collective_cost_inputs(detail::aggregator_bytes(spec, per_exec),
                                    n,
                                    detail::aggregator_density(spec,
                                                               per_exec)));
      prev_algo = algo;
      cl.metrics().add(std::string("agg.collective.") + comm::to_string(algo),
                       1);
      std::vector<std::pair<int, V>> all_segs;
      std::uint64_t total_v_bytes = 0;
      std::exception_ptr error;
      sim::WaitGroup wg(cl.simulator());
      wg.add(n);
      for (int r = 0; r < n; ++r) {
        const int e = ring.rank_exec[static_cast<std::size_t>(r)];
        auto localv = per_exec[static_cast<std::size_t>(e)];
        // Executors that received no partition contribute a zero aggregator.
        if (!localv) localv = std::make_shared<U>(spec.base.zero);
        cl.simulator().spawn(RingTask::go(cl, job, *ring.sc, algo, e, r, spec,
                                          std::move(localv), all_segs,
                                          total_v_bytes, wg, error));
      }
      co_await wg.wait();
      if (error) std::rethrow_exception(error);

      std::sort(all_segs.begin(), all_segs.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      // Sparse ring only: the driver densifies the compressed segments
      // before concatenation — one codec scatter pass over the dense
      // result (an array codec, not generic JVM folding), attributed to
      // the "comp" category.
      if (algo == comm::AlgoId::kSparseRing && spec.encode_op) {
        const std::uint64_t dense_bytes =
            detail::aggregator_bytes(spec, per_exec);
        const Time t0 = cl.simulator().now();
        const Time decoded =
            cl.driver_loop().enqueue(cl.codec_cost(dense_bytes));
        co_await cl.simulator().sleep_until(decoded);
        tr.span_at("comp", "comp.decode", obs::kDriverPid, 0, t0, decoded,
                   {{"job", job},
                    {"bytes", static_cast<std::int64_t>(dense_bytes)}});
      }
      const Time done =
          cl.driver_loop().enqueue(cl.driver_merge_cost(total_v_bytes));
      co_await cl.simulator().sleep_until(done);
      V result = spec.concat_op(all_segs);
      m->end = cl.simulator().now();
      attempt_scope.close({{"algo", static_cast<std::int64_t>(algo)}});
      tr.span_at("phase", "agg_compute", obs::kDriverPid, 0, m->start,
                 m->compute_done, {{"job", job}});
      tr.span_at("phase", "agg_reduce", obs::kDriverPid, 0, m->compute_done,
                 m->end, {{"job", job}});
      job_scope.close();
      co_await spec_attempts.wait();
      co_return result;
    } catch (const comm::CollectiveFailed&) {
      // Stage-level cleanup: the failed attempt's communicator (with any
      // stale in-flight messages) is retired; the next attempt gets a
      // fresh one over the surviving topology.
      cl.ring_invalidate(opt.ring);
      attempt_scope.close(
          {{"failed", 1}, {"algo", static_cast<std::int64_t>(algo)}});
      attempt_failed = true;
    }
    if (attempt_failed) {
      if (m) ++m->stage_restarts;
      if (ring_attempt >= cl.config().max_stage_attempts) {
        co_await spec_attempts.wait();
        throw std::runtime_error(
            "ring stage exceeded max attempts; job aborted");
      }
      // Settle-then-backoff — overlapped with eager refold of partials
      // lost with dead executors when overlap_recovery is on.
      co_await detail::recover_between_attempts(cl, rdd, spec, job,
                                                ring_attempt, m, per_exec,
                                                owned);
      m->recovery_time += cl.simulator().now() - attempt_start;
    }
  }
}

/// Allreduce-flavoured split aggregation (extension; paper Section 6 notes
/// the driver becomes the new bottleneck once reduction scales — this
/// removes the driver from the data path entirely): a reduced-result
/// stage, then a Rabenseifner allreduce (ring reduce-scatter + ring
/// allgather) over the scalable communicator, leaving the fully reduced
/// value *resident on every executor*. The driver receives only a tiny
/// digest. If `result_key >= 0`, each executor's replica is stored in its
/// mutable object manager under that key so subsequent stages can use it
/// without a broadcast.
template <typename T, typename U, typename V>
sim::Task<V> split_allreduce(Cluster& cl, CachedRdd<T>& rdd,
                             const SplitAggSpec<T, U, V>& spec,
                             AggMetrics* metrics = nullptr,
                             std::int64_t result_key = -1,
                             const JobOptions& opt = {}) {
  AggMetrics local;
  AggMetrics* m = metrics ? metrics : &local;
  const int job = cl.next_job_id();
  m->start = cl.simulator().now();
  m->task_retries = 0;
  m->stage_restarts = 0;
  m->ring_stage_attempts = 0;
  m->recovery_time = 0;
  m->speculative_launches = 0;
  m->speculative_wins = 0;
  HealthJobGuard health_guard(cl.health());
  detail::JobMetricsGuard metrics_guard{&cl, m, "agg.jobs.allreduce", job,
                                        opt.tenant};
  obs::TraceSink& tr = cl.trace();
  obs::TraceSink::Scope job_scope(
      tr, opt.tenant >= 0
              ? tr.begin("job", "job.split_allreduce", obs::kDriverPid, 0,
                         {{"job", job},
                          {"tenant", opt.tenant},
                          {"sched_job", opt.sched_job}})
              : tr.begin("job", "job.split_allreduce", obs::kDriverPid, 0,
                         {{"job", job}}));
  sim::WaitGroup spec_attempts(cl.simulator());

  // Job boundary: admit arrived joiners and complete pending drains (same
  // contract as split_aggregate).
  co_await cl.sync_membership(/*complete_drains=*/true);
  co_await cl.simulator().sleep(cl.spec().rates.scheduler_delay);
  std::vector<int> task_exec;
  auto blobs = co_await detail::compute_stage_imm(cl, rdd, spec.base, job, m,
                                                  &task_exec, &spec_attempts);
  m->compute_done = cl.simulator().now();

  // Same recovery bookkeeping as split_aggregate: per-executor merged
  // values keyed by executor id, plus the partitions that fed each one.
  const int num_exec = cl.num_executors();
  std::vector<std::shared_ptr<U>> per_exec(static_cast<std::size_t>(num_exec));
  std::vector<std::vector<int>> owned(static_cast<std::size_t>(num_exec));
  for (auto& b : blobs) {
    per_exec[static_cast<std::size_t>(b.executor)] = b.value;
  }
  for (int t = 0; t < rdd.num_partitions(); ++t) {
    owned[static_cast<std::size_t>(task_exec[static_cast<std::size_t>(t)])]
        .push_back(t);
  }

  struct AllreduceTask {
    // `rank` is captured from the attempt's communicator build (deriving it
    // here could trigger a mid-attempt rebuild — see RingTask). Any failure
    // lands in `error` and the attempt retries at stage granularity; the
    // catch-all is what keeps the WaitGroup complete (no silent hang) when
    // a fault strikes mid-allreduce.
    static sim::Task<void> go(Cluster& cl, int job, comm::Communicator& sc,
                              comm::AlgoId algo, int exec_id, int rank,
                              const SplitAggSpec<T, U, V>& spec,
                              std::shared_ptr<U> local,
                              std::shared_ptr<V>& result,
                              std::int64_t result_key, sim::WaitGroup& wg,
                              std::exception_ptr& error) {
      try {
        const Time dispatched =
            cl.driver_loop().enqueue(cl.spec().rates.task_dispatch);
        co_await cl.simulator().sleep_until(dispatched);
        co_await cl.simulator().sleep(cl.control_latency(exec_id));
        Executor& ex = cl.executor(exec_id);
        co_await ex.cores().acquire();
        sim::SemaphoreGuard slot(ex.cores());
        co_await cl.simulator().sleep(cl.spec().rates.task_overhead);
        if (algo == comm::AlgoId::kSparseRing && spec.encode_op) {
          // The codec's gather pass emits the encoded segments directly,
          // replacing the dense split pass.
          co_await detail::comp_encode_pass(cl, job, algo, exec_id, rank,
                                            spec, *local);
        } else {
          co_await cl.simulator().sleep(
              cl.merge_cost(spec.base.bytes(*local)));
        }
        comm::SegOps<V> ops =
            detail::make_seg_ops(cl, job, algo, exec_id, rank, spec, local);
        ops.concat = spec.concat_op;
        V full = co_await comm::CollectiveRegistry<V>::instance().allreduce(
            algo, sc, rank, ops);
        if (!cl.executor_alive(exec_id)) {
          throw comm::CollectiveFailed("executor died after allreduce");
        }
        // Sparse ring only: every rank densifies its replica — one codec
        // scatter pass over the dense aggregator, attributed to the "comp"
        // category.
        if (algo == comm::AlgoId::kSparseRing && spec.encode_op) {
          const std::uint64_t dense_bytes = spec.base.bytes(*local);
          const obs::SpanId dec = cl.trace().begin(
              "comp", "comp.decode", obs::exec_pid(exec_id), rank,
              {{"job", job}, {"bytes", static_cast<std::int64_t>(dense_bytes)}});
          co_await cl.simulator().sleep(cl.codec_cost(dense_bytes));
          cl.trace().end(dec);
        }
        // Assembling the replica is one pass over it.
        co_await cl.simulator().sleep(cl.merge_cost(spec.v_bytes(full)));
        // Only a digest (loss/status) travels to the driver.
        co_await cl.simulator().sleep(cl.control_latency(exec_id));
        (void)cl.driver_loop().enqueue(sim::microseconds(20));
        if (rank == 0) result = std::make_shared<V>(full);
        if (result_key >= 0) {
          auto& obj = ex.mutable_object(result_key, cl.simulator());
          obj.value = std::make_shared<V>(std::move(full));
        }
      } catch (...) {
        if (!error) error = std::current_exception();
      }
      wg.done();
    }
  };

  // Previous attempt's concrete algorithm (hysteresis on re-formation).
  comm::AlgoId prev_algo = comm::AlgoId::kAuto;
  for (int ring_attempt = 1;; ++ring_attempt) {
    m->ring_stage_attempts = ring_attempt;
    const Time attempt_start = cl.simulator().now();
    bool attempt_failed = false;
    // Resolved per attempt from the live membership (see split_aggregate).
    comm::AlgoId algo = cl.config().collective_algo;
    // Same failed-span / recovery-span contiguity contract as the ring
    // stage of split_aggregate (obs::recovery_from_trace relies on it).
    obs::TraceSink::Scope attempt_scope(
        tr, tr.begin("stage", "stage.allreduce", obs::kDriverPid, 0,
                     {{"job", job}, {"attempt", ring_attempt}}));
    try {
      co_await cl.simulator().sleep(cl.spec().rates.scheduler_delay);
      // Shared stage boundary: membership sync, drained-partial migration,
      // ring (re)formation, residual refold — one rank snapshot throughout
      // (see split_aggregate / ring_boundary for why).
      const detail::RingSnapshot ring = co_await detail::ring_boundary(
          cl, rdd, spec, job, m, per_exec, owned, opt.ring);
      const int n = ring.n;
      algo = comm::retune_algo(
          comm::CollectiveOp::kAllreduce, cl.config().collective_algo,
          prev_algo,
          cl.collective_cost_inputs(detail::aggregator_bytes(spec, per_exec),
                                    n,
                                    detail::aggregator_density(spec,
                                                               per_exec)));
      prev_algo = algo;
      cl.metrics().add(std::string("agg.collective.") + comm::to_string(algo),
                       1);
      std::shared_ptr<V> result;  // fresh per attempt: rank 0 sets it.
      std::exception_ptr error;
      sim::WaitGroup wg(cl.simulator());
      wg.add(n);
      for (int r = 0; r < n; ++r) {
        const int e = ring.rank_exec[static_cast<std::size_t>(r)];
        auto localv = per_exec[static_cast<std::size_t>(e)];
        if (!localv) localv = std::make_shared<U>(spec.base.zero);
        cl.simulator().spawn(AllreduceTask::go(cl, job, *ring.sc, algo, e, r,
                                               spec, std::move(localv), result,
                                               result_key, wg, error));
      }
      co_await wg.wait();
      if (error) std::rethrow_exception(error);
      m->end = cl.simulator().now();
      attempt_scope.close({{"algo", static_cast<std::int64_t>(algo)}});
      tr.span_at("phase", "agg_compute", obs::kDriverPid, 0, m->start,
                 m->compute_done, {{"job", job}});
      tr.span_at("phase", "agg_reduce", obs::kDriverPid, 0, m->compute_done,
                 m->end, {{"job", job}});
      job_scope.close();
      co_await spec_attempts.wait();
      co_return std::move(*result);
    } catch (const comm::CollectiveFailed&) {
      cl.ring_invalidate(opt.ring);
      attempt_scope.close(
          {{"failed", 1}, {"algo", static_cast<std::int64_t>(algo)}});
      attempt_failed = true;
    }
    if (attempt_failed) {
      if (m) ++m->stage_restarts;
      if (ring_attempt >= cl.config().max_stage_attempts) {
        co_await spec_attempts.wait();
        throw std::runtime_error(
            "allreduce stage exceeded max attempts; job aborted");
      }
      // Same shared overlap path as split_aggregate: settle + backoff, with
      // eager refold running underneath when overlap_recovery is on.
      co_await detail::recover_between_attempts(cl, rdd, spec, job,
                                                ring_attempt, m, per_exec,
                                                owned);
      m->recovery_time += cl.simulator().now() - attempt_start;
    }
  }
}

}  // namespace sparker::engine
