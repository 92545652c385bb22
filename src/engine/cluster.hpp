#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "comm/communicator.hpp"
#include "comm/topology.hpp"
#include "engine/config.hpp"
#include "engine/health.hpp"
#include "engine/membership.hpp"
#include "net/cluster.hpp"
#include "net/connection.hpp"
#include "net/fabric.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "sim/sync.hpp"

/// \file cluster.hpp
/// The simulated Spark/Sparker cluster runtime: a driver, executors with
/// task slots, the driver's single-threaded event loop (the serial
/// bottleneck the paper measures as "Driver" time), data-plane connections
/// for shuffle and result fetch, the mutable object manager backing
/// In-Memory Merge, and the rings (scalable communicators) used by split
/// aggregation and broadcast.

namespace sparker::engine {

using sim::Duration;
using sim::Time;

class Cluster;

namespace detail {
/// Makes an executor's own copy of a broadcast value.
using CopyValue = std::shared_ptr<void> (*)(const void* value);
}  // namespace detail

/// One executor process: task slots plus the mutable object manager
/// (paper Section 4: "Mutable object manager stores intermediate states
/// shared by tasks on the same executor").
class Executor {
 public:
  Executor(sim::Simulator& s, int id, int host, int num_cores,
           std::string hostname)
      : id_(id),
        host_(host),
        hostname_(std::move(hostname)),
        cores_(s, num_cores) {}

  int id() const noexcept { return id_; }
  int host() const noexcept { return host_; }
  const std::string& hostname() const noexcept { return hostname_; }
  comm::ExecutorInfo info() const { return {id_, host_, hostname_}; }
  sim::Semaphore& cores() noexcept { return cores_; }

  /// A value shared by all tasks of a reduced-result stage on this
  /// executor, guarded by a lock (merges serialize within the executor).
  struct MutableObject {
    std::shared_ptr<void> value;
    std::unique_ptr<sim::Semaphore> lock;
  };

  MutableObject& mutable_object(std::int64_t key, sim::Simulator& s) {
    auto it = objects_.find(key);
    if (it == objects_.end()) {
      it = objects_.emplace(key, MutableObject{}).first;
      it->second.lock = std::make_unique<sim::Semaphore>(s, 1);
    }
    return it->second;
  }

  /// Drops a stage's partial state (stage-level restart, paper Section 3.2:
  /// "we simply clean up the failed stage which is stored in the shared
  /// in-memory value").
  void clear_mutable_object(std::int64_t key) { objects_.erase(key); }

 private:
  int id_;
  int host_;
  std::string hostname_;
  sim::Semaphore cores_;
  std::unordered_map<std::int64_t, MutableObject> objects_;
};

/// One formation of a ring: its communicator and the rank <-> executor maps
/// it was built with. A ring-stage attempt and a broadcast each copy the
/// view once, when they start, and read only their copy: a membership
/// change during their awaits re-forms the ring for the *next* attempt and
/// never shears rank lookups away from the communicator their tasks run on.
struct RingView {
  comm::Communicator* sc = nullptr;
  std::vector<int> rank_exec;  ///< rank -> executor id.
  std::vector<int> exec_rank;  ///< executor id -> rank, -1 if outside.

  int size() const noexcept { return static_cast<int>(rank_exec.size()); }
};

/// A ring: the usable executors (`Cluster::executor_usable`) in
/// `comm::sort_ring_order`, and a scalable communicator over them. The
/// cluster owns one for solo jobs (`Cluster::ring()`); the multi-tenant
/// scheduler issues one per job, so concurrent jobs cannot cross-deliver
/// collective messages on one communicator's channel tags. Every ring spans
/// the same membership and the same fabric — concurrent rings therefore
/// contend on host NICs exactly as concurrent Spark jobs contend on real
/// hardware — but owns its connection set.
class JobRing {
 public:
  /// A scheduler-issued ring, counted in Cluster::concurrent_rings() for
  /// its lifetime.
  explicit JobRing(Cluster& cl);
  ~JobRing();
  JobRing(const JobRing&) = delete;
  JobRing& operator=(const JobRing&) = delete;

  /// The current formation, re-formed first when stale: when the usable
  /// membership, the parallelism or the ordering config changed since it
  /// was built, or after invalidate(). Each formation is traced as a
  /// `membership.ring_formed` instant.
  const RingView& view();

  /// Retires the communicator (parked on the cluster until destruction:
  /// its pump coroutines and loopback delivery timers may still be in the
  /// event queue); the next view() re-forms over the surviving topology.
  void invalidate();

  /// Network bytes this ring's collectives have delivered, summed across
  /// re-formations — the scheduler's per-job bandwidth accounting.
  std::uint64_t bytes_delivered() const;

 private:
  friend class Cluster;
  JobRing(Cluster& cl, bool counted);

  Cluster* cl_;
  bool counted_;
  std::unique_ptr<comm::Communicator> sc_;
  RingView view_;
  std::vector<int> members_;  ///< executor ids of view_, ascending.
  std::uint64_t retired_bytes_ = 0;
  int parallelism_ = 0;
  bool topology_aware_ = false;
};

/// The simulated cluster.
class Cluster {
 public:
  /// Arms `cfg`'s fault and membership schedules; throws
  /// std::invalid_argument if either names an executor outside
  /// [0, num_executors).
  Cluster(sim::Simulator& sim, net::ClusterSpec spec, EngineConfig cfg = {});
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;
  ~Cluster();

  sim::Simulator& simulator() noexcept { return *sim_; }
  net::Fabric& fabric() noexcept { return *fabric_; }
  const net::ClusterSpec& spec() const noexcept { return spec_; }
  EngineConfig& config() noexcept { return cfg_; }
  const EngineConfig& config() const noexcept { return cfg_; }

  // ---- observability ------------------------------------------------------

  /// The cluster's trace sink. Always constructed (so call sites need no
  /// null checks) but disabled — and therefore recording nothing — unless
  /// `EngineConfig::trace.enabled` was set at construction.
  obs::TraceSink& trace() noexcept { return *trace_; }
  const obs::TraceSink& trace() const noexcept { return *trace_; }

  /// Cluster-lifetime metrics: job counters published from AggMetrics,
  /// health transitions, task-duration histograms. Always on (it never
  /// touches simulated time).
  obs::MetricsRegistry& metrics() noexcept { return metrics_; }
  const obs::MetricsRegistry& metrics() const noexcept { return metrics_; }

  int num_executors() const noexcept {
    return static_cast<int>(executors_.size());
  }
  Executor& executor(int id) {
    return *executors_.at(static_cast<std::size_t>(id));
  }

  // ---- fault fabric -------------------------------------------------------

  /// The fabric's fault-injection state. Executors are registered as fault
  /// "nodes" under their executor id, so `faults().kill_node(e)` kills
  /// executor e regardless of its current communicator rank.
  net::FaultFabric& faults() noexcept { return fabric_->faults(); }

  /// False once the fault fabric has killed this executor.
  bool executor_alive(int exec_id) const {
    return fabric_->faults().node_alive(exec_id);
  }

  // ---- health-aware scheduling view ---------------------------------------

  /// The driver's health view (heartbeat detection, speculation accounting,
  /// quarantine). Scheduling and ring-membership decisions consult this —
  /// not the omniscient `executor_alive()` — so with heartbeats enabled,
  /// detection latency is a real component of recovery time.
  HealthMonitor& health() noexcept { return *health_; }

  /// May this executor be scheduled onto / join the next ring? Requires
  /// both a healthy view (not believed dead, not quarantined) and full
  /// membership (not pre-join, not draining, not departed).
  bool executor_usable(int exec_id) {
    return health_->usable(exec_id) && membership_->active(exec_id);
  }

  // ---- elastic membership --------------------------------------------------

  /// The membership state machine (joining/warming/active/draining/left).
  /// Always constructed; with an empty MembershipSchedule every executor is
  /// active and membership never changes.
  MembershipManager& membership() noexcept { return *membership_; }

  /// Stage-boundary membership sync: admits arrived joiners (warm-up
  /// transfer of resident broadcast state, then health monitoring starts)
  /// and — when `complete_drains` — lets draining executors leave (callers
  /// holding partials for a draining executor pass false and complete the
  /// drain themselves after migrating the partials). No-op, with zero
  /// simulated-time cost, when there is no membership work pending.
  sim::Task<void> sync_membership(bool complete_drains);

  /// Migration target for `exec_id`'s partials: the executor that follows
  /// it in ring order among the other members that are usable *and* alive
  /// in the fabric, or -1 if there is none. With heartbeats on, a killed
  /// executor not yet declared dead still ranks in the next formation
  /// (which reads the health view only), but is skipped here, so a drain
  /// never migrates onto a dead executor.
  int ring_successor(int exec_id);

  /// Records broadcast state resident on the executors so join warm-up can
  /// size (and for keyed broadcasts, replicate) the transfer. `key >= 0`
  /// entries are mutable-object-backed replicas, and `copy` gives each
  /// joiner its own; `key < 0` tracks the latest anonymous broadcast (the
  /// current model) by size only.
  void note_broadcast(std::int64_t key, std::shared_ptr<void> value,
                      std::uint64_t bytes, detail::CopyValue copy);

  /// Total bytes a joiner must fetch during warm-up.
  std::uint64_t resident_broadcast_bytes() const {
    std::uint64_t total = bcast_latest_bytes_;
    for (const auto& [k, e] : bcast_keyed_) total += e.bytes;
    return total;
  }

  // ---- cost model ---------------------------------------------------------

  Duration ser_time(std::uint64_t bytes) const {
    return sim::transfer_time(static_cast<double>(bytes), spec_.rates.ser_bw);
  }
  Duration deser_time(std::uint64_t bytes) const {
    return sim::transfer_time(static_cast<double>(bytes),
                              spec_.rates.deser_bw);
  }
  Duration merge_cost(std::uint64_t bytes) const {
    return sim::transfer_time(static_cast<double>(bytes),
                              spec_.rates.merge_bw);
  }
  Duration driver_deser_time(std::uint64_t bytes) const {
    return sim::transfer_time(static_cast<double>(bytes),
                              spec_.rates.driver_deser_bw);
  }
  Duration driver_merge_cost(std::uint64_t bytes) const {
    return sim::transfer_time(static_cast<double>(bytes),
                              spec_.rates.driver_merge_bw);
  }
  /// One streaming codec pass (sparse encode gather / decode scatter) over
  /// `bytes` of dense aggregator.
  Duration codec_cost(std::uint64_t bytes) const {
    return sim::transfer_time(static_cast<double>(bytes),
                              spec_.rates.codec_bw);
  }

  /// Tuner inputs for a collective over the scalable communicator: `n`
  /// ranks (the live membership of the current stage attempt), each moving
  /// a `bytes`-sized aggregator over the SC link with the configured
  /// channel parallelism. When several scheduled jobs run concurrent rings
  /// the NIC bandwidth is divided by the ring count, so each job tunes for
  /// its fair slice of the shared wire.
  /// `density` is the estimated nonzero fraction of the aggregator (the
  /// split spec's density_op when present, 1.0 otherwise); the sparse-ring
  /// pricing is the only consumer.
  comm::CollectiveCostInputs collective_cost_inputs(
      std::uint64_t bytes, int n, double density = 1.0) const {
    comm::CollectiveCostInputs in = comm::cost_inputs(
        spec_, spec_.sc_link, bytes, n, cfg_.sai_parallelism);
    if (active_rings_ > 1) in.nic_bw /= active_rings_;
    in.density = density;
    return in;
  }

  // ---- driver -------------------------------------------------------------

  /// The driver's single-threaded event loop. Task dispatch, status-update
  /// processing and result merging all book time here; under many
  /// partitions this becomes the non-scalable "Driver" component of the
  /// paper's time decompositions.
  sim::FifoServer& driver_loop() noexcept { return driver_loop_; }

  int driver_host() const noexcept { return 0; }

  /// One-way control-plane latency between the driver and an executor.
  Duration control_latency(int exec_id) {
    return fabric_->latency(driver_host(), executor(exec_id).host()) +
           rpc_overhead_;
  }

  // ---- data plane ---------------------------------------------------------

  /// Fetches a `bytes`-sized blob from executor `from` to executor `to`,
  /// modeling Spark's BlockManager fetch path. Either side may be
  /// `kDriver`. Completes at delivery time.
  static constexpr int kDriver = -1;
  sim::Task<void> fetch_blob(int from, int to, std::uint64_t bytes);

  // ---- rings (Sparker's scalable communicator) ----------------------------

  /// The cluster-wide ring solo jobs and broadcasts run on (a job whose
  /// JobOptions::ring is nullptr). Not counted in concurrent_rings().
  JobRing& ring() noexcept { return ring_; }

  /// Live scheduler-issued rings (one per running scheduled job). The cost
  /// model divides NIC bandwidth by this when > 1.
  int concurrent_rings() const noexcept { return active_rings_; }

  // ---- job bookkeeping ----------------------------------------------------

  int next_job_id() noexcept { return job_seq_++; }

 private:
  friend class JobRing;

  /// The BlockManager connection `from` -> `to`, made on first use.
  net::Connection& bm_connection(int from, int to);
  void arm_faults();
  void arm_membership();

  sim::Simulator* sim_;
  net::ClusterSpec spec_;
  EngineConfig cfg_;
  std::unique_ptr<obs::TraceSink> trace_;
  obs::MetricsRegistry metrics_;
  std::unique_ptr<obs::SimQueueProbe> sim_probe_;
  std::unique_ptr<net::Fabric> fabric_;
  std::vector<std::unique_ptr<Executor>> executors_;
  std::unique_ptr<HealthMonitor> health_;
  std::unique_ptr<MembershipManager> membership_;
  struct BroadcastEntry {
    std::shared_ptr<void> value;
    std::uint64_t bytes = 0;
    detail::CopyValue copy = nullptr;
  };
  std::unordered_map<std::int64_t, BroadcastEntry> bcast_keyed_;
  std::uint64_t bcast_latest_bytes_ = 0;
  sim::FifoServer driver_loop_;
  Duration rpc_overhead_ = sim::microseconds(150);
  std::unordered_map<std::int64_t, std::unique_ptr<net::Connection>>
      bm_conns_;
  int job_seq_ = 0;
  int active_rings_ = 0;  ///< live scheduler-issued JobRing count.

  // Retired communicators: destroyed only with the cluster, because their
  // pump coroutines and loopback delivery timers may still be in the event
  // queue.
  std::vector<std::unique_ptr<comm::Communicator>> retired_sc_;
  // Declared after retired_sc_: its destructor parks its communicator there.
  JobRing ring_{*this, /*counted=*/false};
};

/// Per-job options the scheduler threads through the broadcast/aggregate
/// entry points. Default-constructed options describe a solo job: the
/// cluster's ring, no tenant attribution — the exact pre-scheduler behaviour.
struct JobOptions {
  JobRing* ring = nullptr;  ///< nullptr = the cluster's ring().
  int tenant = -1;          ///< tenant id for span/metric attribution.
  int sched_job = -1;       ///< scheduler job id (spans carry both ids).
};

}  // namespace sparker::engine
