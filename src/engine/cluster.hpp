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
#include "sim/channel.hpp"
#include "sim/simulator.hpp"
#include "sim/sync.hpp"

/// \file cluster.hpp
/// The simulated Spark/Sparker cluster runtime: a driver, executors with
/// task slots, the driver's single-threaded event loop (the serial
/// bottleneck the paper measures as "Driver" time), data-plane connections
/// for shuffle and result fetch, the mutable object manager backing
/// In-Memory Merge, and the scalable communicator used by split
/// aggregation.

namespace sparker::engine {

using sim::Duration;
using sim::Time;

class JobRing;

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
  sim::Semaphore& cores() noexcept { return cores_; }

  /// A value shared by all tasks of a reduced-result stage on this
  /// executor, guarded by a lock (merges serialize within the executor).
  struct MutableObject {
    std::shared_ptr<void> value;
    std::unique_ptr<sim::Semaphore> lock;
    int merges = 0;
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

  /// Number of executors still alive.
  int num_alive_executors() const {
    int n = 0;
    for (int e = 0; e < num_executors(); ++e) {
      if (executor_alive(e)) ++n;
    }
    return n;
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
    return health_->usable(exec_id) && membership_->schedulable(exec_id);
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

  /// Executor id of the member that will follow `exec_id` in the *next*
  /// ring formation (the migration target for its partials), or -1 if no
  /// other member exists.
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

  /// Forces the next scalable_comm() call to rebuild over the surviving
  /// topology. The old communicator is parked, not destroyed: its pump
  /// coroutines may still be suspended in the event queue mid-simulation.
  void invalidate_scalable_comm();

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

  // ---- scalable communicator (Sparker) -------------------------------------

  /// The scalable communicator spanning all *live* executors, with ranks
  /// ordered per the topology-awareness setting. Built lazily; rebuilt if
  /// the parallelism or ordering config changed, or if executors died since
  /// last use.
  comm::Communicator& scalable_comm();
  int rank_of_executor(int exec_id);
  int executor_of_rank(int rank);

  // ---- per-job rings (multi-tenant scheduling) -----------------------------

  /// Ring access for a (possibly scheduled) job: `ring == nullptr` — the
  /// solo default — resolves to the shared cluster-wide communicator; a
  /// scheduler-issued JobRing resolves to that job's private communicator.
  /// These four calls are the only ring entry points aggregate.hpp and
  /// broadcast.hpp use, so solo and scheduled jobs share one code path.
  comm::Communicator& ring_comm(JobRing* ring);
  int ring_rank_of_executor(JobRing* ring, int exec_id);
  int ring_executor_of_rank(JobRing* ring, int rank);
  /// Retires the job's communicator after a collective failure; the next
  /// ring_comm() rebuilds over the surviving topology.
  void ring_invalidate(JobRing* ring);

  /// Live isolated per-job rings (one per running scheduled job). The cost
  /// model divides NIC bandwidth by this when > 1.
  int concurrent_rings() const noexcept { return active_rings_; }

  /// Parks a retired communicator until cluster destruction: its pump
  /// coroutines and loopback delivery timers may still be in the event
  /// queue.
  void park_retired_comm(std::unique_ptr<comm::Communicator> c) {
    if (c) retired_sc_.push_back(std::move(c));
  }

  // ---- job bookkeeping ----------------------------------------------------

  int next_job_id() noexcept { return job_seq_++; }

 private:
  friend class JobRing;

  /// One freshly built communicator over the current usable membership,
  /// plus its rank maps — shared by the cluster-wide rebuild and per-job
  /// JobRing builds.
  struct RingBuild {
    std::unique_ptr<comm::Communicator> comm;
    std::vector<int> rank_to_exec;
    std::vector<int> exec_to_rank;
    std::vector<int> members;
  };
  RingBuild build_ring();

  struct DemuxConn {
    explicit DemuxConn(net::Fabric& f, int src_host, int dst_host,
                       net::LinkParams link, sim::Simulator& s)
        : conn(f, src_host, dst_host, link), sim(&s) {}
    net::Connection conn;
    sim::Simulator* sim;
    std::unordered_map<int, std::unique_ptr<sim::Channel<net::Message>>>
        slots;
    sim::Task<void> pump_task;

    sim::Channel<net::Message>& slot(int tag) {
      auto it = slots.find(tag);
      if (it == slots.end()) {
        it = slots.emplace(tag, std::make_unique<sim::Channel<net::Message>>(
                                    *sim))
                 .first;
      }
      return *it->second;
    }
  };

  DemuxConn& demux(int from, int to);
  void rebuild_comm();
  void arm_faults();
  void arm_membership();
  std::vector<int> ring_members();

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
  std::unordered_map<std::int64_t, std::unique_ptr<DemuxConn>> demux_;
  int fetch_seq_ = 0;
  int job_seq_ = 0;
  int active_rings_ = 0;  ///< live JobRing count (concurrent scheduled jobs).

  std::unique_ptr<comm::Communicator> sc_;
  // Retired communicators: destroyed only with the cluster, because their
  // pump coroutines and loopback delivery timers may still be in the event
  // queue.
  std::vector<std::unique_ptr<comm::Communicator>> retired_sc_;
  int sc_parallelism_ = 0;
  bool sc_topology_aware_ = false;
  std::vector<int> sc_members_;  ///< executor ids the current comm spans.
  std::vector<int> rank_to_exec_;
  std::vector<int> exec_to_rank_;
};

/// A per-job view of the scalable communicator, issued by the multi-tenant
/// scheduler so concurrent jobs cannot cross-deliver collective messages on
/// the shared communicator's channel tags. Each ring spans the same live
/// membership and the same fabric as the shared communicator — concurrent
/// rings therefore contend on host NICs exactly as concurrent Spark jobs
/// contend on real hardware — but owns its connection set. Solo call sites
/// pass no JobRing and keep the shared communicator, bit for bit.
class JobRing {
 public:
  explicit JobRing(Cluster& cl);
  ~JobRing();
  JobRing(const JobRing&) = delete;
  JobRing& operator=(const JobRing&) = delete;

  /// The job's communicator; built lazily, rebuilt when the live membership
  /// or ring config changed (same staleness rule as Cluster::scalable_comm).
  comm::Communicator& comm();
  int rank_of_executor(int exec_id);
  int executor_of_rank(int rank);

  /// Retires the communicator (parked on the cluster until destruction);
  /// the next comm() rebuilds over the surviving topology.
  void invalidate();

  /// Network bytes this job's collectives have delivered, summed across
  /// rebuilds — the scheduler's per-job bandwidth accounting.
  std::uint64_t bytes_delivered() const;

 private:
  Cluster* cl_;
  std::unique_ptr<comm::Communicator> sc_;
  std::uint64_t retired_bytes_ = 0;
  int parallelism_ = 0;
  bool topology_aware_ = false;
  std::vector<int> members_;
  std::vector<int> rank_to_exec_;
  std::vector<int> exec_to_rank_;
};

/// Per-job options the scheduler threads through the broadcast/aggregate
/// entry points. Default-constructed options describe a solo job: shared
/// cluster ring, no tenant attribution — the exact pre-scheduler behaviour.
struct JobOptions {
  JobRing* ring = nullptr;  ///< nullptr = shared cluster-wide communicator.
  int tenant = -1;          ///< tenant id for span/metric attribution.
  int sched_job = -1;       ///< scheduler job id (spans carry both ids).
};

}  // namespace sparker::engine
