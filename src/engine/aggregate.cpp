#include "engine/aggregate.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <stdexcept>
#include <string>

#include "comm/collectives.hpp"
#include "comm/registry.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

/// \file aggregate.cpp
/// The aggregation engine, compiled once. It never names T, U or V: rows
/// are reached through ErasedSpec's fold and cost closures, aggregators are
/// `std::shared_ptr<void>`, and segments are `std::any`, so the collectives
/// it dispatches are the one `comm::CollectiveRegistry<std::any>`.

namespace sparker::engine::detail {
namespace {

using Agg = std::shared_ptr<void>;
using SegOps = comm::SegOps<std::any>;

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
struct Blob {
  Agg value;
  std::uint64_t bytes = 0;
  int executor = 0;
  bool serialized = true;
};

/// Spark sends task results below this size inline with the status update;
/// larger results go through the BlockManager (spark.task.maxDirectResultSize
/// defaults to 1 MiB).
constexpr std::uint64_t kDirectResultLimit = 1ull << 20;

/// TaskId::attempt value marking speculative duplicates, far above any real
/// retry count so fault plans keyed on attempt numbers stay inert for them.
constexpr int kSpeculativeAttempt = 1 << 20;

/// The aggregator the tuner samples for a split-stage collective: the first
/// stage-1 value present (every executor's aggregator shares the spec's
/// shape), or the zero aggregator when no partition produced one.
/// Deterministic, so every stage attempt feeds the tuner the same inputs.
const void* sample_aggregator(const ErasedSpec& spec,
                              const std::vector<Agg>& per_exec) {
  for (const auto& v : per_exec) {
    if (v) return v.get();
  }
  return spec.zero;
}

/// Modeled size of the aggregator a split-stage collective will move.
std::uint64_t aggregator_bytes(const ErasedSpec& spec,
                               const std::vector<Agg>& per_exec) {
  return spec.bytes(sample_aggregator(spec, per_exec));
}

/// Builds the SegOps a split-stage collective runs over, wiring in the
/// compression hooks when the attempt is `encoded` (the sparse ring with an
/// encode_op): split re-encodes each segment density-optimally, and
/// reduce_into probes the representation around each merge so
/// dense<->sparse flips land in the trace as "comp.switch" instants
/// (fill-in growing past the byte crossover is exactly when they fire).
/// Because the representation lives inside V, v_bytes already reports the
/// compressed size — hop transport and merge sleeps get cheaper with no
/// further plumbing.
SegOps make_seg_ops(Cluster& cl, int job, bool encoded, int exec_id,
                    int rank, const ErasedSpec& spec, const Agg& local) {
  SegOps ops;
  // `split` reads `*local` for the whole collective, because the ring
  // algorithms split each segment when they first send or reduce into it.
  // Nothing replaces or mutates a rank's local value while its collective
  // workers are live: the stage awaits every rank task, and each rank task
  // awaits all of its channel workers (as comm::run_all_ranks does), before
  // a failure is rethrown. Refold, migration and overlapped recovery — the
  // only paths that comb_op into or reset per-executor values — run after
  // that, between attempts.
  if (encoded) {
    ops.split = [&spec, &local](int seg, int nseg) {
      return spec.encode(spec.split(local.get(), seg, nseg));
    };
  } else {
    ops.split = [&spec, &local](int seg, int nseg) {
      return spec.split(local.get(), seg, nseg);
    };
  }
  if (encoded && spec.is_sparse) {
    ops.reduce_into = [&cl, &spec, job, exec_id, rank](std::any& a,
                                                       const std::any& b) {
      const bool was = spec.is_sparse(a);
      spec.reduce(a, b);
      const bool now = spec.is_sparse(a);
      if (was != now) {
        cl.trace().instant("comp", "comp.switch", obs::exec_pid(exec_id),
                           rank, {{"job", job}, {"sparse", now ? 1 : 0}});
      }
    };
  } else {
    ops.reduce_into = spec.reduce;
  }
  ops.bytes = spec.v_bytes;
  ops.merge_time = [&cl](std::uint64_t b) { return cl.merge_cost(b); };
  return ops;
}

/// The encode pass of an encoded ring attempt: one streaming scan over the
/// local aggregator gathering nonzeros into index+value segments, priced at
/// the codec scan bandwidth and attributed to the "comp" trace category
/// (fig02-style breakdowns report it in its own column). The scan emits the
/// P*N encoded segments directly, so it subsumes the dense split pass —
/// ring_rank runs this *instead of* the split sleep.
sim::Task<void> comp_encode_pass(Cluster& cl, int job, int exec_id, int rank,
                                 const ErasedSpec& spec, const void* local) {
  const std::uint64_t bytes = spec.bytes(local);
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
int schedule_executor(Cluster& cl, int preferred) {
  if (cl.executor_usable(preferred)) return preferred;
  const int n = cl.num_executors();
  for (int i = 1; i < n; ++i) {
    const int cand = (preferred + i) % n;
    if (cl.executor_usable(cand)) return cand;
  }
  throw std::runtime_error("no usable executor to schedule task on");
}

/// How every task the engine runs starts: driver dispatch, the control hop
/// to `exec`, a core slot there, then task setup. The guard holds the slot.
sim::Task<sim::SemaphoreGuard> launch_task(Cluster& cl, int exec) {
  const Time dispatched =
      cl.driver_loop().enqueue(cl.spec().rates.task_dispatch);
  co_await cl.simulator().sleep_until(dispatched);
  co_await cl.simulator().sleep(cl.control_latency(exec));
  Executor& ex = cl.executor(exec);
  co_await ex.cores().acquire();
  sim::SemaphoreGuard slot(ex.cores());
  co_await cl.simulator().sleep(cl.spec().rates.task_overhead);
  co_return std::move(slot);
}

/// The modeled compute time of partition `pid` on executor `exec`.
Duration modeled_cost(Cluster& cl, const ErasedSpec& spec, int pid,
                      int exec) {
  const Duration cost = spec.partition_cost ? spec.partition_cost(pid)
                                            : Duration{0};
  return static_cast<Duration>(static_cast<double>(cost) *
                               cl.config().stragglers.factor(exec) /
                               cl.spec().rates.core_speed);
}

/// One modeled task attempt: launch_task, then the partition's modeled
/// compute time. It models time and faults only — the real seqOp fold is
/// `spec.fold`, which each consumer runs where it needs the value. Throws
/// TaskFailed per the fault plan, or when the fault fabric kills the
/// executor before the task result is reported (that check is deliberately
/// omniscient: a lost result is a physical fact, not a belief). If `ran_on`
/// is non-null it receives the executor the task runs on as soon as it is
/// scheduled, and `started` (if non-null) the time it got its core slot;
/// `force_exec >= 0` pins the attempt to one executor (speculative
/// duplicates bypass locality preference).
sim::Task<void> compute_attempt(Cluster& cl, const ErasedSpec& spec,
                                TaskId id, int* ran_on = nullptr,
                                int force_exec = -1, Time* started = nullptr) {
  const int exec_id =
      force_exec >= 0
          ? force_exec
          : schedule_executor(cl, spec.preferred_executor(id.task));
  if (ran_on) *ran_on = exec_id;
  const Time attempt_start = cl.simulator().now();
  const obs::SpanId span = cl.trace().begin(
      "compute", "task", obs::exec_pid(exec_id), id.task,
      {{"job", id.job},
       {"stage", id.stage},
       {"task", id.task},
       {"attempt", id.attempt}});
  const sim::SemaphoreGuard slot = co_await launch_task(cl, exec_id);
  if (started) *started = cl.simulator().now();
  co_await cl.simulator().sleep(modeled_cost(cl, spec, id.task, exec_id));
  // Fault-plan failure, or the executor died while this task was running
  // (that check is omniscient: a lost result is a physical fact).
  if (cl.config().faults.fails(id) || !cl.executor_alive(exec_id)) {
    cl.trace().end(span, {{"failed", 1}});
    throw TaskFailed{};
  }
  cl.metrics().histogram("task.duration_ns")
      .observe(static_cast<std::int64_t>(cl.simulator().now() - attempt_start));
  cl.trace().end(span);
}

/// Shared state of one stage's speculation races, shared_ptr-owned because
/// *losing* attempts can outlive the stage (and even the job) coroutine
/// frames: a loser resumes from its final sleep after the stage has moved
/// on, and may touch only this object plus the job-level attempts
/// WaitGroup — never stage-frame state. The first attempt to `claim` a
/// task wins it; everyone else drops out.
struct SpecRace {
  struct TaskState {
    /// When the primary got its core slot; kTimeNever until it has one.
    Time launched = sim::kTimeNever;
    bool done = false;        ///< some attempt claimed this task.
    bool speculated = false;  ///< a duplicate was launched.
    int primary_exec = -1;    ///< executor the primary attempt landed on.
  };
  std::vector<TaskState> tasks;
  std::vector<Duration> durations;  ///< winners' run times (for the median).
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

/// Where a duplicate of a task whose primary runs on `primary` may go, as
/// Spark offers speculative copies only to free cores: the first executor
/// after the primary (ids upward, wrapping) that takes tasks, is healthy,
/// and has a free core slot not already `claimed` by a duplicate launched
/// in the same tick. -1 when no core is free.
int speculation_target(Cluster& cl, int primary,
                       const std::vector<std::int64_t>& claimed) {
  const int n = cl.num_executors();
  for (int i = 1; i < n; ++i) {
    const int e = (primary + i) % n;
    if (cl.executor_usable(e) && cl.health().healthy(e) &&
        cl.executor(e).cores().available() >
            claimed[static_cast<std::size_t>(e)]) {
      return e;
    }
  }
  return -1;
}

/// Arms the stage's speculation monitor: every `speculation_interval` it
/// looks for started tasks whose primary has run longer than
/// `speculation_multiplier` x the running median of completed run times
/// (once `speculation_quantile` of the stage has completed) and calls
/// `launch(task, target)` with a free core from `speculation_target`; a
/// task with no free core waits for a later tick. `launch` may capture
/// stage-frame state: the tick must be cancelled
/// (`cl.simulator().cancel(race->tick)`) before the stage frame exits, and
/// cancelled events never run (their closures are reclaimed eagerly).
void arm_speculation_tick(
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
          std::vector<std::int64_t> claimed(
              static_cast<std::size_t>(cl.num_executors()), 0);
          for (int t = 0; t < p; ++t) {
            SpecRace::TaskState& ts =
                race->tasks[static_cast<std::size_t>(t)];
            if (ts.done || ts.speculated || ts.launched == sim::kTimeNever) {
              continue;
            }
            if (now - ts.launched <= threshold) continue;
            const int target = speculation_target(cl, ts.primary_exec, claimed);
            if (target < 0) continue;
            ++claimed[static_cast<std::size_t>(target)];
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

/// What one attempt of a compute stage delivers into. It lives in the stage
/// frame, so only a task attempt that has claimed its task may touch it.
struct StageSink {
  StageSink(sim::Simulator& sim, int p)
      : wg(sim),
        out(static_cast<std::size_t>(p)),
        ran_on(static_cast<std::size_t>(p), -1) {}
  sim::WaitGroup wg;         ///< one count per task, done by its claimer.
  std::exception_ptr error;  ///< first non-fault error; aborts the job.
  bool failed = false;       ///< IMM: a task failed, so the stage restarts.
  std::vector<Blob> out;     ///< plain: each task's serialized result.
  std::vector<int> ran_on;   ///< IMM: the executor that absorbed each task.
};

/// The IMM merge of one task result, run by the task's delivering attempt
/// while it holds the executor's merge lock: the partition is folded here,
/// merged into the shared value, and the task aggregator is destroyed
/// before the caller's status-update hop. The lock therefore bounds live
/// task aggregators at one per executor, beside the shared value.
sim::Task<void> merge_task_result(Cluster& cl, const ErasedSpec& spec,
                                  int job, int task, int exec_id,
                                  Executor::MutableObject& obj) {
  if (!obj.value) obj.value = spec.copy(spec.zero);
  const Agg agg = spec.fold(task);
  const std::uint64_t mbytes = spec.bytes(agg.get());
  const obs::SpanId merge = cl.trace().begin(
      "reduce", "imm.merge", obs::exec_pid(exec_id), task,
      {{"job", job}, {"bytes", static_cast<std::int64_t>(mbytes)}});
  co_await cl.simulator().sleep(cl.merge_cost(mbytes));
  spec.comb(obj.value.get(), agg.get());
  ++obj.merges;
  cl.trace().end(merge);
}

/// One racing attempt of compute-stage task `task`: the primary, or a
/// speculative duplicate pinned to `force_exec` (>= 0). The first attempt
/// to `claim` the task delivers it; every other attempt drops out without
/// folding. A loser may resume after the stage frame is gone, so it touches
/// only `race` and the job-level `attempts` WaitGroup — never `st`.
///
/// The stage kind (`imm`) fixes both policies:
///  * result sink — a plain task folds its partition after the claim and
///    ships the result serialized (Spark serializes every task result on
///    completion, exactly the overhead IMM removes); an IMM task folds and
///    merges into the executor's shared value under its merge lock
///    (merge_task_result), so exactly one attempt per task ever merges. A
///    task aggregator therefore lives from its fold to its merge;
///  * failure policy — a failed plain primary retries in place (Spark's
///    task-level retry, up to max_task_attempts); a failed IMM primary
///    marks the stage failed, since IMM has no task-level recovery. A
///    failed duplicate loses quietly: the primary is still racing, and if
///    the duplicate already won, a failed primary just drops out.
sim::Task<void> race_attempt(Cluster& cl, const ErasedSpec& spec, int job,
                             bool imm, int stage_attempt, int task,
                             int force_exec, std::shared_ptr<SpecRace> race,
                             StageSink& st, AggMetrics* m,
                             sim::WaitGroup& attempts) {
  const bool speculative = force_exec >= 0;
  SpecRace::TaskState& ts = race->tasks[static_cast<std::size_t>(task)];
  // Ends the task with a job-aborting error, unless another attempt has
  // already claimed it.
  const auto abort_task = [&](std::exception_ptr e) {
    if (!race->claim(task)) return;
    if (!st.error) st.error = std::move(e);
    st.wg.done();
  };
  int exec = -1;
  Time started = sim::kTimeNever;
  for (int retry = 0;; ++retry) {
    try {
      const int attempt =
          (speculative ? kSpeculativeAttempt : 0) + stage_attempt + retry;
      // A retried primary is unstarted again until it gets a new slot.
      if (!speculative) ts.launched = sim::kTimeNever;
      co_await compute_attempt(cl, spec, TaskId{job, 0, task, attempt},
                               speculative ? &exec : &ts.primary_exec,
                               force_exec,
                               speculative ? &started : &ts.launched);
      if (!speculative) {
        exec = ts.primary_exec;
        started = ts.launched;
      }
      break;
    } catch (const TaskFailed&) {
      // A failed duplicate, or a primary whose duplicate already won, just
      // drops out.
      if (!speculative && !ts.done) {
        cl.health().record_failure(ts.primary_exec);
        if (imm) {
          race->claim(task);
          st.failed = true;
          st.wg.done();
        } else {
          ++m->task_retries;
          if (retry + 1 < cl.config().max_task_attempts) continue;
          abort_task(std::make_exception_ptr(
              std::runtime_error("task exceeded max attempts; job aborted")));
        }
      }
    } catch (...) {
      // Not a modeled fault (e.g. no usable executor): the primary aborts
      // the job instead of escaping a detached task.
      if (!speculative) abort_task(std::current_exception());
    }
    attempts.done();
    co_return;
  }
  if (!race->claim(task)) {
    attempts.done();
    co_return;  // lost the race: never fold.
  }
  race->durations.push_back(cl.simulator().now() - started);
  if (speculative) {
    ++m->speculative_wins;
    cl.trace().instant("compute", "spec.win", obs::exec_pid(exec), task,
                       {{"task", task}});
    if (ts.primary_exec >= 0) cl.health().record_straggler(ts.primary_exec);
  }
  try {
    if (imm) {
      auto& obj = cl.executor(exec).mutable_object(job, cl.simulator());
      co_await obj.lock->acquire();
      sim::SemaphoreGuard g(*obj.lock);
      co_await merge_task_result(cl, spec, job, task, exec, obj);
      // Status update carries only (executor id, object id).
      co_await cl.simulator().sleep(cl.control_latency(exec));
      (void)cl.driver_loop().enqueue(sim::microseconds(20));
      st.ran_on[static_cast<std::size_t>(task)] = exec;
    } else {
      Agg agg = spec.fold(task);
      const std::uint64_t nbytes = spec.bytes(agg.get());
      const obs::SpanId ser = cl.trace().begin(
          "ser", "ser.result", obs::exec_pid(exec), task,
          {{"job", job}, {"bytes", static_cast<std::int64_t>(nbytes)}});
      co_await cl.simulator().sleep(cl.ser_time(nbytes));
      cl.trace().end(ser);
      co_await cl.simulator().sleep(cl.control_latency(exec));
      (void)cl.driver_loop().enqueue(sim::microseconds(50));
      st.out[static_cast<std::size_t>(task)] =
          Blob{std::move(agg), nbytes, exec, /*serialized=*/true};
    }
  } catch (...) {
    if (!st.error) st.error = std::current_exception();
  }
  st.wg.done();
  attempts.done();
}

/// Runs one attempt of a compute stage: every task is a race (see
/// race_attempt). With `health.speculation` on, the monitor tick may launch
/// one duplicate of a straggling task on a free core; without it no
/// tick is armed, and each race has a single entrant. `attempts` counts
/// every attempt frame, so the job can drain losers before its frame dies;
/// on an error path they drain here, before the caller rethrows.
sim::Task<void> run_compute_race(Cluster& cl, const ErasedSpec& spec, int job,
                                 bool imm, int stage_attempt, StageSink& st,
                                 AggMetrics* m, sim::WaitGroup& attempts) {
  const int p = spec.partitions;
  auto race = std::make_shared<SpecRace>(p);
  const Time t0 = cl.simulator().now();
  st.wg.add(p);
  for (int t = 0; t < p; ++t) {
    attempts.add(1);
    cl.simulator().spawn(race_attempt(cl, spec, job, imm, stage_attempt, t,
                                      -1, race, st, m, attempts));
  }
  if (cl.config().health.speculation) {
    auto launch = std::make_shared<std::function<void(int, int)>>(
        [&cl, &spec, job, imm, stage_attempt, race, &st, m,
         &attempts](int task, int target) {
          ++m->speculative_launches;
          attempts.add(1);
          cl.simulator().spawn(race_attempt(cl, spec, job, imm, stage_attempt,
                                            task, target, race, st, m,
                                            attempts));
        });
    arm_speculation_tick(cl, race, launch,
                         t0 + cl.config().health.speculation_interval);
  }
  co_await st.wg.wait();
  cl.simulator().cancel(race->tick);
  if (st.error) co_await attempts.wait();
}

/// Plain compute stage: one serialized result per partition, failed tasks
/// retried individually.
sim::Task<std::vector<Blob>> compute_stage_plain(Cluster& cl,
                                                 const ErasedSpec& spec,
                                                 int job, AggMetrics* m,
                                                 sim::WaitGroup& attempts) {
  const int p = spec.partitions;
  obs::TraceSink& tr = cl.trace();
  obs::TraceSink::Scope stage_scope(
      tr, tr.begin("stage", "stage.compute", obs::kDriverPid, 0,
                   {{"job", job}, {"tasks", p}, {"imm", 0}}));
  StageSink st(cl.simulator(), p);
  co_await run_compute_race(cl, spec, job, /*imm=*/false,
                            /*stage_attempt=*/0, st, m, attempts);
  if (st.error) {
    stage_scope.close({{"failed", 1}});
    std::rethrow_exception(st.error);
  }
  stage_scope.close();
  co_return std::move(st.out);
}

/// Reduced-result stage (In-Memory Merge): task results fold into one
/// shared value per executor, unserialized; any failure — an injected task
/// fault, or an executor dying with partials merged into it — restarts the
/// whole stage after clearing the partials (paper Section 3.2). If
/// `task_exec` is non-null it receives, per partition, the executor whose
/// shared value absorbed that partition (the ring-stage retry uses this to
/// recompute exactly the partials a later death loses).
sim::Task<std::vector<Blob>> compute_stage_imm(Cluster& cl,
                                               const ErasedSpec& spec, int job,
                                               AggMetrics* m,
                                               sim::WaitGroup& attempts,
                                               std::vector<int>* task_exec) {
  const int p = spec.partitions;
  const std::int64_t key = static_cast<std::int64_t>(job);
  obs::TraceSink& tr = cl.trace();
  for (int stage_attempt = 0;; ++stage_attempt) {
    obs::TraceSink::Scope stage_scope(
        tr, tr.begin("stage", "stage.compute", obs::kDriverPid, 0,
                     {{"job", job},
                      {"tasks", p},
                      {"imm", 1},
                      {"attempt", stage_attempt}}));
    StageSink st(cl.simulator(), p);
    co_await run_compute_race(cl, spec, job, /*imm=*/true, stage_attempt, st,
                              m, attempts);
    if (st.error) {
      stage_scope.close({{"failed", 1}});
      std::rethrow_exception(st.error);
    }
    // An executor that died after absorbing partials loses them: that is
    // a stage failure too (no task-level recovery under IMM).
    const bool failed =
        st.failed ||
        std::any_of(st.ran_on.begin(), st.ran_on.end(),
                    [&cl](int e) { return !cl.executor_alive(e); });
    if (!failed) {
      std::vector<Blob> out;
      for (int e = 0; e < cl.num_executors(); ++e) {
        Executor& ex = cl.executor(e);
        auto& obj = ex.mutable_object(key, cl.simulator());
        if (obj.value) {
          out.push_back(Blob{obj.value, spec.bytes(obj.value.get()), e,
                             /*serialized=*/false});
        }
        ex.clear_mutable_object(key);
      }
      if (task_exec) *task_exec = std::move(st.ran_on);
      stage_scope.close();
      co_return out;
    }
    ++m->stage_restarts;
    stage_scope.close({{"failed", 1}});
    tr.instant("recover", "stage.restart", obs::kDriverPid, 0,
               {{"job", job}, {"attempt", stage_attempt}});
    for (int e = 0; e < cl.num_executors(); ++e) {
      cl.executor(e).clear_mutable_object(key);
    }
    if (stage_attempt + 1 >= cl.config().max_stage_attempts) {
      co_await attempts.wait();
      throw std::runtime_error("stage exceeded max attempts; job aborted");
    }
  }
}

/// Moves one shuffle-combine input to `to`: an IMM result is serialized at
/// its source first, then a remote one is fetched.
sim::Task<void> fetch_input(Cluster& cl, int from, int to, std::uint64_t b,
                            bool serialized, sim::WaitGroup& wg) {
  if (!serialized) co_await cl.simulator().sleep(cl.ser_time(b));
  if (from != to) co_await cl.fetch_blob(from, to, b);
  wg.done();
}

/// One shuffle-combine reduce task: fetch inputs (concurrently),
/// deserialize and merge them, re-serialize the result.
sim::Task<Blob> reduce_task(Cluster& cl, int job, std::vector<Blob> inputs,
                            int dest_exec, const ErasedSpec& spec) {
  const obs::SpanId span = cl.trace().begin(
      "reduce", "task.combine", obs::exec_pid(dest_exec), 0,
      {{"job", job}, {"inputs", static_cast<std::int64_t>(inputs.size())}});
  const sim::SemaphoreGuard slot = co_await launch_task(cl, dest_exec);
  // Fetch all remote inputs concurrently (Spark pipelines shuffle fetches).
  // IMM results are not yet serialized: the source pays that cost now.
  sim::WaitGroup fetches(cl.simulator());
  for (const auto& in : inputs) {
    if (in.executor == dest_exec && in.serialized) continue;
    fetches.add(1);
    cl.simulator().spawn(fetch_input(cl, in.executor, dest_exec, in.bytes,
                                     in.serialized, fetches));
  }
  co_await fetches.wait();
  Agg acc;
  for (auto& in : inputs) {
    co_await cl.simulator().sleep(cl.deser_time(in.bytes));
    if (!acc) {
      acc = spec.copy(in.value.get());  // inputs may be shared elsewhere
    } else {
      co_await cl.simulator().sleep(cl.merge_cost(in.bytes));
      spec.comb(acc.get(), in.value.get());
    }
  }
  const std::uint64_t out_bytes = spec.bytes(acc.get());
  co_await cl.simulator().sleep(cl.ser_time(out_bytes));
  co_await cl.simulator().sleep(cl.control_latency(dest_exec));
  (void)cl.driver_loop().enqueue(sim::microseconds(50));
  cl.trace().end(span, {{"bytes", static_cast<std::int64_t>(out_bytes)}});
  co_return Blob{std::move(acc), out_bytes, dest_exec};
}

/// One tree-combine task of a round. Its core slot is released (in
/// reduce_task) before the round's WaitGroup hears of it.
sim::Task<void> combine(Cluster& cl, int job, std::vector<Blob> inputs,
                        int dest_exec, const ErasedSpec& spec, Blob& out,
                        sim::WaitGroup& wg) {
  out = co_await reduce_task(cl, job, std::move(inputs), dest_exec, spec);
  wg.done();
}

/// One result's arrival at the driver: inline or via BlockManager fetch,
/// then deserialize + merge through the driver loop.
sim::Task<void> arrive(Cluster& cl, int job, Blob in, Agg& acc,
                       const ErasedSpec& spec, sim::WaitGroup& wg) {
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
    acc = spec.copy(in.value.get());
  } else {
    spec.comb(acc.get(), in.value.get());
  }
  wg.done();
}

/// Final serial reduce at the driver: results arrive (see `arrive`) and are
/// deserialized + merged one at a time through the driver loop.
sim::Task<Agg> driver_reduce(Cluster& cl, int job, std::vector<Blob> inputs,
                             const ErasedSpec& spec) {
  Agg acc;
  sim::WaitGroup wg(cl.simulator());
  wg.add(static_cast<std::int64_t>(inputs.size()));
  for (auto& in : inputs) {
    cl.simulator().spawn(arrive(cl, job, in, acc, spec, wg));
  }
  co_await wg.wait();
  co_return acc;
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

/// Folds partition `pid` into executor `e`'s merged value — the survivor a
/// refold placed it on — and records `e` as the partition's holder.
sim::Task<void> fold_into_survivor(Cluster& cl, const ErasedSpec& spec,
                                   int pid, int e, std::vector<Agg>& per_exec,
                                   std::vector<std::vector<int>>& owned) {
  auto& dst = per_exec[static_cast<std::size_t>(e)];
  if (!dst) dst = spec.copy(spec.zero);
  const Agg agg = spec.fold(pid);
  co_await cl.simulator().sleep(cl.merge_cost(spec.bytes(agg.get())));
  spec.comb(dst.get(), agg.get());
  owned[static_cast<std::size_t>(e)].push_back(pid);
}

/// Recomputes lost partials, folding them into survivors' shared values —
/// partition data regenerates deterministically, exactly like a Spark
/// recompute. Two recovery paths share it:
///  * the residual refold at a ring boundary (`ring` non-null) takes the
///    partials held outside the attempt's rank set (dead, quarantined, or
///    departed holders) and recomputes each with task-level retry wherever
///    the scheduler puts it;
///  * the eager refold of overlapped recovery (`ring` null) takes the
///    partials whose holders the fault fabric already killed — a lost
///    partial is a physical fact, the same omniscience compute_attempt
///    itself uses — and pins each attempt to an executor that is both
///    health-usable and alive. A partition that cannot be placed yet goes
///    back to its holder's list for the next boundary's residual refold.
/// Ownership discipline: each executor's partition list is *moved out*
/// before the first co_await, so no partition is claimed by both paths.
sim::Task<void> refold_partials(Cluster& cl, const ErasedSpec& spec, int job,
                                AggMetrics* m, const RingSnapshot* ring,
                                std::vector<Agg>& per_exec,
                                std::vector<std::vector<int>>& owned) {
  obs::TraceSink& tr = cl.trace();
  const int num_exec = cl.num_executors();
  for (int e = 0; e < num_exec; ++e) {
    const bool lost = ring ? ring->exec_rank[static_cast<std::size_t>(e)] < 0
                           : !cl.executor_alive(e);
    if (!lost || owned[static_cast<std::size_t>(e)].empty()) continue;
    const std::vector<int> pids = std::move(owned[static_cast<std::size_t>(e)]);
    owned[static_cast<std::size_t>(e)].clear();
    per_exec[static_cast<std::size_t>(e)].reset();
    obs::TraceSink::Scope refold_scope(
        tr, tr.begin("recover", "recover.refold", obs::kDriverPid, 0,
                     {{"job", job},
                      {"executor", e},
                      {"partitions", static_cast<std::int64_t>(pids.size())}}));
    for (int pid : pids) {
      bool placed = false;
      for (int attempt = 0; !placed; ++attempt) {
        // The residual refold lets the scheduler place the recompute. The
        // eager refold pins it to an executor that is health-usable AND
        // alive, re-picked per attempt — a dead-but-undetected executor
        // would burn the whole retry budget before the monitor even
        // declares it dead.
        int target = -1;
        if (!ring) {
          const int pref = spec.preferred_executor(pid);
          for (int i = 0; i < num_exec && target < 0; ++i) {
            const int cand = (pref + i) % num_exec;
            if (cl.executor_usable(cand) && cl.executor_alive(cand)) {
              target = cand;
            }
          }
          if (target < 0) break;  // nowhere to place it right now.
        }
        int ran_on = -1;
        try {
          co_await compute_attempt(cl, spec, TaskId{job, 1, pid, attempt},
                                   &ran_on, target);
          co_await fold_into_survivor(cl, spec, pid, ran_on, per_exec, owned);
          placed = true;
        } catch (const TaskFailed&) {
          // Task-level retry, as vanilla Spark reruns a failed task.
          cl.health().record_failure(ran_on);
          ++m->task_retries;
          if (attempt + 1 >= cl.config().max_task_attempts) {
            throw std::runtime_error("task exceeded max attempts; job aborted");
          }
        }
      }
      // Unplaced: ownership moved here and moves back exactly once.
      if (!placed) owned[static_cast<std::size_t>(e)].push_back(pid);
    }
  }
}

sim::Task<RingSnapshot> ring_boundary(Cluster& cl, const ErasedSpec& spec,
                                      int job, AggMetrics* m,
                                      std::vector<Agg>& per_exec,
                                      std::vector<std::vector<int>>& owned,
                                      JobRing* job_ring) {
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
    Agg value = std::move(per_exec[static_cast<std::size_t>(d)]);
    per_exec[static_cast<std::size_t>(d)].reset();
    const int succ = cl.ring_successor(d);
    if (succ < 0 || !value) {
      // No live successor to hand off to: fall back to recomputation.
      owned[static_cast<std::size_t>(d)] = std::move(pids);
      cl.membership().complete_drain(d);
      continue;
    }
    const std::uint64_t bytes = spec.bytes(value.get());
    obs::TraceSink::Scope mig(
        tr, tr.begin("membership", "membership.migrate", obs::kDriverPid, 0,
                     {{"job", job},
                      {"from", d},
                      {"to", succ},
                      {"bytes", static_cast<std::int64_t>(bytes)},
                      {"partitions", static_cast<std::int64_t>(pids.size())}}));
    co_await cl.fetch_blob(d, succ, bytes);
    auto& dst = per_exec[static_cast<std::size_t>(succ)];
    if (!dst) dst = spec.copy(spec.zero);
    co_await cl.simulator().sleep(cl.merge_cost(bytes));
    spec.comb(dst.get(), value.get());
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
  co_await refold_partials(cl, spec, job, m, &ring, per_exec, owned);
  co_return ring;
}

/// Settle-then-backoff before the next ring attempt. With heartbeats on,
/// the driver cannot yet tell which member is dead — rebuilding immediately
/// would re-include it and fail again — so it waits out detection (bounded
/// by executor_timeout) under a `detect.settle` span; the wait lands in
/// recovery_time, which is exactly what makes detection latency a
/// measurable recovery component. Then the exponential backoff, under a
/// `recover.backoff` span.
sim::Task<void> settle_and_backoff(Cluster& cl, int job, int ring_attempt,
                                   Duration backoff) {
  obs::TraceSink& tr = cl.trace();
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
}

/// Runs `body` as one branch of a fork-join: its first exception lands in
/// `error` (the joiner rethrows it), and `wg` is marked done either way, so
/// a fault can never leave the joiner hanging.
sim::Task<void> join_branch(sim::Task<void> body, sim::WaitGroup& wg,
                            std::exception_ptr& error) {
  try {
    co_await std::move(body);
  } catch (...) {
    if (!error) error = std::current_exception();
  }
  wg.done();
}

/// Recovery between failed ring-stage attempts: settle_and_backoff,
/// optionally overlapped with the eager refold of partials lost with
/// *physically dead* executors (`EngineConfig::overlap_recovery`).
///
/// Sequential mode emits detect.settle then recover.backoff, back to back,
/// and leaves every refold to the next boundary. Overlapped mode wraps both
/// branches in one `recover.overlap` span and runs the eager refold
/// (refold_partials without a ring) underneath the settle. Results are
/// bit-identical either way; only the timing of the recomputation changes.
sim::Task<void> recover_between_attempts(Cluster& cl, const ErasedSpec& spec,
                                         int job, int ring_attempt,
                                         AggMetrics* m,
                                         std::vector<Agg>& per_exec,
                                         std::vector<std::vector<int>>& owned) {
  obs::TraceSink& tr = cl.trace();
  const Duration backoff = cl.config().stage_retry_backoff
                           << (ring_attempt - 1);
  if (!cl.config().overlap_recovery) {
    co_await settle_and_backoff(cl, job, ring_attempt, backoff);
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
  cl.simulator().spawn(join_branch(
      settle_and_backoff(cl, job, ring_attempt, backoff), wg, error));
  cl.simulator().spawn(join_branch(
      refold_partials(cl, spec, job, m, nullptr, per_exec, owned), wg, error));
  co_await wg.wait();
  overlap.close();
  if (error) std::rethrow_exception(error);
}

/// One aggregation job's frame, shared by the three entry points. Built
/// first thing in the job coroutine, it rejects invalid engine settings,
/// takes the job id, resets the caller's AggMetrics, marks the job active
/// for the health monitor, arms JobMetricsGuard and opens the `job.*` span
/// (tenant-attributed under the scheduler). Members are declared in that
/// order, so they are destroyed in reverse: the span closes, then metrics
/// publish, then the health monitor sees the job end. `spec_attempts`
/// counts every racing task attempt; finish() or an abort path drains it
/// before the job frame dies, so losing attempts never outlive the state
/// they reference.
struct JobFrame {
  Cluster& cl;
  AggMetrics local;
  const int job;
  AggMetrics* const m;
  HealthJobGuard health;
  JobMetricsGuard metrics;
  obs::TraceSink::Scope span;
  sim::WaitGroup spec_attempts;

  JobFrame(Cluster& c, AggMetrics* out, const JobOptions& opt,
           const char* span_name, const char* kind_counter)
      : cl(validated(c)),
        job(cl.next_job_id()),
        m(reset(out ? out : &local, cl.simulator().now())),
        health(cl.health()),
        metrics{&cl, m, kind_counter, job, opt.tenant},
        span(cl.trace(),
             opt.tenant >= 0
                 ? cl.trace().begin("job", span_name, obs::kDriverPid, 0,
                                    {{"job", job},
                                     {"tenant", opt.tenant},
                                     {"sched_job", opt.sched_job}})
                 : cl.trace().begin("job", span_name, obs::kDriverPid, 0,
                                    {{"job", job}})),
        spec_attempts(cl.simulator()) {}

  /// Job boundary: admit arrived joiners (warm-up transfer) so they can
  /// take compute tasks, and complete pending drains — no partials exist
  /// yet — then the scheduler delay before the first stage.
  sim::Task<void> start() {
    co_await cl.sync_membership(/*complete_drains=*/true);
    co_await cl.simulator().sleep(cl.spec().rates.scheduler_delay);
  }

  /// Completes the job: stamps `m->end`, emits the agg_compute/agg_reduce
  /// phase spans, closes the job span, then drains losing speculative
  /// attempts (`m->end` is already recorded, so the job's measured time
  /// excludes zombies running out their last attempt).
  sim::Task<void> finish() {
    m->end = cl.simulator().now();
    obs::TraceSink& tr = cl.trace();
    tr.span_at("phase", "agg_compute", obs::kDriverPid, 0, m->start,
               m->compute_done, {{"job", job}});
    tr.span_at("phase", "agg_reduce", obs::kDriverPid, 0, m->compute_done,
               m->end, {{"job", job}});
    span.close();
    co_await spec_attempts.wait();
  }

 private:
  /// Throws std::invalid_argument naming the first engine setting no job
  /// can run under. Checked per job, not at Cluster construction, because
  /// callers may change `config()` between jobs. A zero health interval
  /// would re-arm its tick at the same instant forever, and a heartbeat
  /// timeout at or above the executor timeout would let executors go dead
  /// without ever being suspect. A speculation quantile above 1 would never
  /// speculate, and a multiplier below 1 would duplicate tasks faster than
  /// the median.
  static Cluster& validated(Cluster& cl) {
    const EngineConfig& c = cl.config();
    const auto require = [](bool ok, const char* what) {
      if (!ok) {
        throw std::invalid_argument(std::string("EngineConfig::") + what);
      }
    };
    require(c.collective_timeout > 0, "collective_timeout must be > 0");
    require(c.sai_parallelism >= 1, "sai_parallelism must be >= 1");
    require(c.max_task_attempts >= 1, "max_task_attempts must be >= 1");
    require(c.max_stage_attempts >= 1, "max_stage_attempts must be >= 1");
    require(c.health.speculation_interval > 0,
            "health.speculation_interval must be > 0");
    require(c.health.speculation_multiplier >= 1.0,
            "health.speculation_multiplier must be >= 1");
    require(c.health.speculation_quantile > 0.0 &&
                c.health.speculation_quantile <= 1.0,
            "health.speculation_quantile must be in (0, 1]");
    require(c.health.heartbeat_interval > 0,
            "health.heartbeat_interval must be > 0");
    require(c.health.heartbeat_timeout < c.health.executor_timeout,
            "health.heartbeat_timeout must be < health.executor_timeout");
    return cl;
  }

  /// Zeroes what a job accumulates; compute_done and end are stamped as
  /// the job reaches them.
  static AggMetrics* reset(AggMetrics* m, Time now) {
    m->start = now;
    m->task_retries = m->stage_restarts = m->ring_stage_attempts = 0;
    m->recovery_time = 0;
    m->speculative_launches = m->speculative_wins = 0;
    return m;
  }
};

/// What a ring rank's body sees once the shared prologue has run. `local`
/// keeps the rank's aggregator alive for the whole collective.
struct RankCtx {
  comm::Communicator& sc;
  comm::AlgoId algo;
  bool encoded;  ///< segments travel encoded (see run_ring_stage).
  int exec;
  int rank;
  Agg local;
};

/// What one ring-stage attempt collects: under reduce-scatter every rank's
/// segments, gathered at the driver; under allreduce rank 0's replica.
struct RingAttempt {
  std::vector<comm::Seg<std::any>> segs;
  std::uint64_t bytes = 0;
  std::any replica;
};

/// split_aggregate's rank body: reduce-scatter, then ship this task's P
/// segments to the driver as its task result.
sim::Task<void> gather_rank(Cluster& cl, const ErasedSpec& spec, int job,
                            const RankCtx& r, const SegOps& ops,
                            RingAttempt& g) {
  auto segs = co_await comm::CollectiveRegistry<std::any>::instance()
                  .reduce_scatter(r.algo, r.sc, r.rank, ops);
  if (!cl.executor_alive(r.exec)) {
    throw comm::CollectiveFailed("executor died after reduce-scatter");
  }
  std::uint64_t nbytes = 0;
  for (auto& [idx, v] : segs) nbytes += spec.v_bytes(v);
  const obs::SpanId ser = cl.trace().begin(
      "ser", "ser.result", obs::exec_pid(r.exec), r.rank,
      {{"job", job}, {"bytes", static_cast<std::int64_t>(nbytes)}});
  co_await cl.simulator().sleep(cl.ser_time(nbytes));
  cl.trace().end(ser);
  co_await cl.simulator().sleep(cl.control_latency(r.exec));
  if (nbytes > kDirectResultLimit) {
    co_await cl.fetch_blob(r.exec, Cluster::kDriver, nbytes);
  }
  const Time done = cl.driver_loop().enqueue(cl.driver_deser_time(nbytes));
  co_await cl.simulator().sleep_until(done);
  for (auto& s : segs) g.segs.push_back(std::move(s));
  g.bytes += nbytes;
}

/// split_aggregate's epilogue: sort the gathered segments and concatOp
/// them at the driver.
sim::Task<std::any> gather_result(Cluster& cl, const ErasedSpec& spec, int job,
                                  RingAttempt& g, bool encoded,
                                  const std::vector<Agg>& per_exec) {
  std::sort(g.segs.begin(), g.segs.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  // Encoded attempts only: the driver densifies the compressed segments
  // before concatenation — one codec scatter pass over the dense result (an
  // array codec, not generic JVM folding), attributed to the "comp"
  // category.
  if (encoded) {
    const std::uint64_t dense_bytes = aggregator_bytes(spec, per_exec);
    const Time t0 = cl.simulator().now();
    const Time decoded = cl.driver_loop().enqueue(cl.codec_cost(dense_bytes));
    co_await cl.simulator().sleep_until(decoded);
    cl.trace().span_at(
        "comp", "comp.decode", obs::kDriverPid, 0, t0, decoded,
        {{"job", job}, {"bytes", static_cast<std::int64_t>(dense_bytes)}});
  }
  const Time done = cl.driver_loop().enqueue(cl.driver_merge_cost(g.bytes));
  co_await cl.simulator().sleep_until(done);
  co_return spec.concat(g.segs);
}

/// split_allreduce's rank body: allreduce, then keep the replica on the
/// executor (under `result_key >= 0`) and send only a digest to the driver.
sim::Task<void> allreduce_rank(Cluster& cl, const ErasedSpec& spec, int job,
                               std::int64_t result_key, const RankCtx& r,
                               SegOps& ops, RingAttempt& st) {
  ops.concat = spec.concat;
  std::any full = co_await comm::CollectiveRegistry<std::any>::instance()
                      .allreduce(r.algo, r.sc, r.rank, ops);
  if (!cl.executor_alive(r.exec)) {
    throw comm::CollectiveFailed("executor died after allreduce");
  }
  // Encoded attempts only: every rank densifies its replica — one codec
  // scatter pass over the dense aggregator, attributed to the "comp"
  // category.
  if (r.encoded) {
    const std::uint64_t dense_bytes = spec.bytes(r.local.get());
    const obs::SpanId dec = cl.trace().begin(
        "comp", "comp.decode", obs::exec_pid(r.exec), r.rank,
        {{"job", job}, {"bytes", static_cast<std::int64_t>(dense_bytes)}});
    co_await cl.simulator().sleep(cl.codec_cost(dense_bytes));
    cl.trace().end(dec);
  }
  // Assembling the replica is one pass over it.
  co_await cl.simulator().sleep(cl.merge_cost(spec.v_bytes(full)));
  // Only a digest (loss/status) travels to the driver.
  co_await cl.simulator().sleep(cl.control_latency(r.exec));
  (void)cl.driver_loop().enqueue(sim::microseconds(20));
  if (r.rank == 0) st.replica = full;
  if (result_key >= 0) {
    auto& obj = cl.executor(r.exec).mutable_object(result_key, cl.simulator());
    obj.value = spec.share(std::move(full));
  }
}

/// One SpawnRDD task, pinned to the executor holding `r.rank` in the
/// attempt's communicator. The rank comes from the attempt's RingSnapshot:
/// re-deriving it here (rank_of_executor) could trigger a mid-attempt
/// rebuild if another executor has died since, leaving rank and
/// communicator inconsistent. Runs the prologue every split stage shares —
/// launch_task, then the encode pass (encoded) or the dense split pass over
/// the local aggregator — and then the body of collective `op`, still
/// holding the core slot.
sim::Task<void> ring_rank(Cluster& cl, int job, const ErasedSpec& spec,
                          comm::CollectiveOp op, std::int64_t result_key,
                          RankCtx r, RingAttempt& st) {
  const sim::SemaphoreGuard slot = co_await launch_task(cl, r.exec);
  if (r.encoded) {
    co_await comp_encode_pass(cl, job, r.exec, r.rank, spec, r.local.get());
  } else {
    // Splitting the aggregator into P*N segments is one pass over it.
    co_await cl.simulator().sleep(cl.merge_cost(spec.bytes(r.local.get())));
  }
  SegOps ops = make_seg_ops(cl, job, r.encoded, r.exec, r.rank, spec, r.local);
  if (op == comm::CollectiveOp::kReduceScatter) {
    co_await gather_rank(cl, spec, job, r, ops, st);
  } else {
    co_await allreduce_rank(cl, spec, job, result_key, r, ops, st);
  }
}

/// The split stages' shared runner (split_aggregate, split_allreduce): a
/// reduced-result stage, then a SpawnRDD stage running collective `op` over
/// the scalable communicator, retried at stage granularity.
///
/// Each ring attempt crosses the stage boundary (ring_boundary), resolves
/// the algorithm (kAuto depends on the live rank count, so it is resolved
/// after the membership snapshot, once, and every rank of the collective
/// runs the same one), decides once whether segments travel encoded (a
/// sparse row with an encode_op), and runs one ring_rank per rank over a
/// fresh RingAttempt. A successful attempt ends in the op's epilogue
/// (gather_result, or rank 0's replica), which yields the job's result. A
/// CollectiveFailed attempt retires the communicator, counts a stage
/// restart and — below `max_stage_attempts`, else the job aborts — runs
/// recover_between_attempts before the next.
///
/// The attempt span opens at the attempt's start and, on failure, closes
/// at the instant the collective failure surfaces — making the failed span
/// plus the recovery spans that follow (detect.settle + recover.backoff,
/// or their recover.overlap wrapper) exactly the contiguous interval
/// recovery_time accrues (obs::recovery_from_trace reconstructs it).
sim::Task<std::any> run_ring_stage(JobFrame& f, const ErasedSpec& spec,
                                   JobRing* job_ring, comm::CollectiveOp op,
                                   std::int64_t result_key) {
  const bool gather = op == comm::CollectiveOp::kReduceScatter;
  const char* span_name = gather ? "stage.ring" : "stage.allreduce";
  const char* abort_msg =
      gather ? "ring stage exceeded max attempts; job aborted"
             : "allreduce stage exceeded max attempts; job aborted";
  Cluster& cl = f.cl;
  AggMetrics* m = f.m;
  const int job = f.job;
  obs::TraceSink& tr = cl.trace();
  // Stage 1: reduced-result stage; exactly one aggregator per executor.
  co_await f.start();
  std::vector<int> task_exec;
  auto blobs = co_await compute_stage_imm(cl, spec, job, m, f.spec_attempts,
                                          &task_exec);
  m->compute_done = cl.simulator().now();

  // Per-executor merged values, keyed by *executor id* (stable across
  // communicator rebuilds), plus which partitions fed each value — the
  // recovery bookkeeping for refolding lost partials.
  const int num_exec = cl.num_executors();
  std::vector<Agg> per_exec(static_cast<std::size_t>(num_exec));
  std::vector<std::vector<int>> owned(static_cast<std::size_t>(num_exec));
  for (auto& b : blobs) {
    per_exec[static_cast<std::size_t>(b.executor)] = b.value;
  }
  for (int t = 0; t < spec.partitions; ++t) {
    owned[static_cast<std::size_t>(task_exec[static_cast<std::size_t>(t)])]
        .push_back(t);
  }

  // Stage 2: SpawnRDD — one task pinned to each ring member. `prev_algo`
  // is the concrete algorithm the previous attempt ran: ring re-formation
  // keeps it (hysteresis in comm::retune_algo) unless the tuner's pick for
  // the new ring size is decisively better. kAuto = no prior attempt.
  comm::AlgoId prev_algo = comm::AlgoId::kAuto;
  for (int ring_attempt = 1;; ++ring_attempt) {
    m->ring_stage_attempts = ring_attempt;
    const Time attempt_start = cl.simulator().now();
    // Declared outside the try so the failure path stamps it too.
    comm::AlgoId algo = cl.config().collective_algo;
    obs::TraceSink::Scope attempt_scope(
        tr, tr.begin("stage", span_name, obs::kDriverPid, 0,
                     {{"job", job}, {"attempt", ring_attempt}}));
    try {
      co_await cl.simulator().sleep(cl.spec().rates.scheduler_delay);
      // Stage boundary: membership sync, drained-partial migration, ring
      // (re)formation and residual refold, all against one rank snapshot
      // (see ring_boundary for why the ordering is load-bearing).
      const RingSnapshot ring = co_await ring_boundary(
          cl, spec, job, m, per_exec, owned, job_ring);
      // Without a density_op the density is 1.0: dense specs never price
      // the sparse ring as a win.
      const double density =
          spec.density ? spec.density(sample_aggregator(spec, per_exec)) : 1.0;
      algo = comm::retune_algo(
          op, cl.config().collective_algo, prev_algo,
          cl.collective_cost_inputs(aggregator_bytes(spec, per_exec), ring.n,
                                    density));
      prev_algo = algo;
      const bool encoded =
          comm::algo_row(algo).encoding == comm::Encoding::kSparse &&
          static_cast<bool>(spec.encode);
      cl.metrics().add(std::string("agg.collective.") + comm::to_string(algo),
                       1);
      RingAttempt st;
      std::exception_ptr error;
      sim::WaitGroup wg(cl.simulator());
      wg.add(ring.n);
      for (int r = 0; r < ring.n; ++r) {
        const int e = ring.rank_exec[static_cast<std::size_t>(r)];
        Agg localv = per_exec[static_cast<std::size_t>(e)];
        // Executors that received no partition contribute a zero aggregator.
        if (!localv) localv = spec.copy(spec.zero);
        cl.simulator().spawn(join_branch(
            ring_rank(cl, job, spec, op, result_key,
                      RankCtx{*ring.sc, algo, encoded, e, r, std::move(localv)},
                      st),
            wg, error));
      }
      co_await wg.wait();
      if (error) std::rethrow_exception(error);
      std::any result;
      if (gather) {
        result = co_await gather_result(cl, spec, job, st, encoded, per_exec);
      } else {
        result = std::move(st.replica);
      }
      attempt_scope.close({{"algo", static_cast<std::int64_t>(algo)}});
      co_await f.finish();
      co_return result;
    } catch (const comm::CollectiveFailed&) {
      // Stage-level cleanup: the failed attempt's communicator (with any
      // stale in-flight messages) is retired; the next attempt gets a
      // fresh one over the surviving topology.
      cl.ring_invalidate(job_ring);
      attempt_scope.close(
          {{"failed", 1}, {"algo", static_cast<std::int64_t>(algo)}});
    }
    ++m->stage_restarts;
    if (ring_attempt >= cl.config().max_stage_attempts) {
      co_await f.spec_attempts.wait();
      throw std::runtime_error(abort_msg);
    }
    // Settle-then-backoff — overlapped with eager refold of partials lost
    // with dead executors when overlap_recovery is on.
    co_await recover_between_attempts(cl, spec, job, ring_attempt, m,
                                      per_exec, owned);
    m->recovery_time += cl.simulator().now() - attempt_start;
  }
}

}  // namespace

Result tree_aggregate(Cluster& cl, ErasedSpec spec, AggMetrics* metrics,
                      const JobOptions& opt) {
  JobFrame f(cl, metrics, opt, "job.tree_aggregate", "agg.jobs.tree");
  AggMetrics* m = f.m;
  // A tree job holds no ring state, so the job boundary is all the
  // membership work it does.
  co_await f.start();
  std::vector<Blob> blobs;
  if (cl.config().agg_mode != AggMode::kTree) {
    blobs = co_await compute_stage_imm(cl, spec, f.job, m, f.spec_attempts,
                                       nullptr);
  } else {
    blobs = co_await compute_stage_plain(cl, spec, f.job, m, f.spec_attempts);
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
    std::vector<std::vector<Blob>> groups(
        static_cast<std::size_t>(num_partitions));
    for (std::size_t i = 0; i < blobs.size(); ++i) {
      groups[i % static_cast<std::size_t>(num_partitions)].push_back(
          std::move(blobs[i]));
    }
    co_await cl.simulator().sleep(cl.spec().rates.scheduler_delay);
    std::vector<Blob> next(static_cast<std::size_t>(num_partitions));
    sim::WaitGroup wg(cl.simulator());
    wg.add(num_partitions);
    for (int j = 0; j < num_partitions; ++j) {
      const int dest = j % cl.num_executors();
      cl.simulator().spawn(combine(cl, f.job,
                                   std::move(groups[static_cast<std::size_t>(j)]),
                                   dest, spec,
                                   next[static_cast<std::size_t>(j)], wg));
    }
    co_await wg.wait();
    blobs = std::move(next);
  }

  co_await cl.simulator().sleep(cl.spec().rates.scheduler_delay);
  Agg result = co_await driver_reduce(cl, f.job, std::move(blobs), spec);
  co_await f.finish();
  co_return result;
}

Result split_aggregate(Cluster& cl, ErasedSpec spec, AggMetrics* metrics,
                       const JobOptions& opt) {
  JobFrame f(cl, metrics, opt, "job.split_aggregate", "agg.jobs.split");
  co_return spec.share(co_await run_ring_stage(
      f, spec, opt.ring, comm::CollectiveOp::kReduceScatter, -1));
}

Result split_allreduce(Cluster& cl, ErasedSpec spec, AggMetrics* metrics,
                       std::int64_t result_key, const JobOptions& opt) {
  JobFrame f(cl, metrics, opt, "job.split_allreduce", "agg.jobs.allreduce");
  co_return spec.share(co_await run_ring_stage(
      f, spec, opt.ring, comm::CollectiveOp::kAllreduce, result_key));
}

}  // namespace sparker::engine::detail
