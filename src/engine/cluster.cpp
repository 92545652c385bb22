#include "engine/cluster.hpp"

#include <stdexcept>
#include <string>

namespace sparker::engine {
namespace {

/// Throws std::invalid_argument, naming the schedule, event and executor,
/// when a fault or membership event names an executor outside [0, n): the
/// fault fabric would silently ignore it, and the membership manager would
/// index past its tables.
void check_schedule_executors(const EngineConfig& cfg, int n) {
  const auto check = [n](const char* schedule, std::size_t event, int exec) {
    if (exec >= 0 && exec < n) return;
    throw std::invalid_argument(
        std::string(schedule) + " event " + std::to_string(event) +
        ": executor " + std::to_string(exec) +
        (exec < 0 ? " < 0" : " >= num_executors " + std::to_string(n)));
  };
  const auto& faults = cfg.fault_schedule.events;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    check("FaultSchedule", i, faults[i].a);
    if (faults[i].kind != FaultEvent::Kind::kKillExecutor) {
      check("FaultSchedule", i, faults[i].b);
    }
  }
  const auto& churn = cfg.membership.events;
  for (std::size_t i = 0; i < churn.size(); ++i) {
    check("MembershipSchedule", i, churn[i].executor);
  }
}

}  // namespace

const char* to_string(AggMode m) {
  switch (m) {
    case AggMode::kTree:
      return "Tree";
    case AggMode::kTreeImm:
      return "Tree+IMM";
    case AggMode::kSplit:
      return "Split";
  }
  return "?";
}

Cluster::Cluster(sim::Simulator& sim, net::ClusterSpec spec, EngineConfig cfg)
    : sim_(&sim), spec_(std::move(spec)), cfg_(cfg), driver_loop_(sim) {
  check_schedule_executors(cfg_, spec_.num_nodes * spec_.executors_per_node);
  trace_ = std::make_unique<obs::TraceSink>(sim, cfg_.trace.enabled);
  fabric_ = std::make_unique<net::Fabric>(sim, spec_.fabric, spec_.num_nodes);
  if (cfg_.trace.enabled) {
    fabric_->set_trace(trace_.get());
    // One probe per simulator; a second traced cluster on the same sim
    // would displace the first (and the destructor only clears its own).
    sim_probe_ = std::make_unique<obs::SimQueueProbe>(*trace_);
    sim.set_probe(sim_probe_.get(), sim_probe_->stride());
  }
  const auto infos =
      comm::enumerate_executors(spec_.num_nodes, spec_.executors_per_node);
  executors_.reserve(infos.size());
  for (const auto& info : infos) {
    executors_.push_back(std::make_unique<Executor>(
        sim, info.executor_id, info.host, spec_.cores_per_executor,
        info.hostname));
  }
  health_ = std::make_unique<HealthMonitor>(
      sim, fabric_->faults(), num_executors(), cfg_.health,
      [this](int e) { return control_latency(e); }, &driver_loop_,
      trace_.get(), &metrics_);
  membership_ = std::make_unique<MembershipManager>(
      sim, cfg_.membership, num_executors(), fabric_->faults(), trace_.get(),
      &metrics_);
  // Heartbeats are only expected from actual members: a pre-join or
  // departed executor must not be declared dead for its (correct) silence.
  health_->set_member_filter([this](int e) { return membership_->member(e); });
  if (!cfg_.fault_schedule.empty()) arm_faults();
  if (!cfg_.membership.empty()) arm_membership();
}

Cluster::~Cluster() {
  if (sim_probe_ && sim_->probe() == sim_probe_.get()) {
    sim_->set_probe(nullptr);
  }
}

void Cluster::arm_faults() {
  net::FaultFabric& faults = fabric_->faults();
  faults.reseed(cfg_.fault_schedule.seed);
  for (const FaultEvent& e : cfg_.fault_schedule.events) {
    switch (e.kind) {
      case FaultEvent::Kind::kKillExecutor:
        faults.kill_node_at(e.at, e.a);
        break;
      case FaultEvent::Kind::kSeverChannel:
        faults.sever_channel_at(e.at, e.a, e.b, e.channel, e.heal_after);
        break;
      case FaultEvent::Kind::kDelayChannel:
        faults.delay_channel_at(e.at, e.a, e.b, e.channel, e.delay,
                                e.heal_after);
        break;
      case FaultEvent::Kind::kDegradeChannel:
        faults.degrade_channel_at(e.at, e.a, e.b, e.channel, e.factor,
                                  e.heal_after);
        break;
    }
  }
}

void Cluster::arm_membership() {
  net::FaultFabric& faults = fabric_->faults();
  faults.set_membership_listener(
      [this](Time t, int e, net::FaultFabric::MembershipEventKind k) {
        membership_->on_fabric_event(t, e, k);
      });
  for (const MembershipEvent& e : cfg_.membership.events) {
    if (e.kind == MembershipEvent::Kind::kJoin) {
      faults.declare_pending_join(e.executor);
      faults.join_node_at(e.at, e.executor);
    } else {
      faults.decommission_node_at(e.at, e.executor);
    }
  }
}

sim::Task<void> Cluster::sync_membership(bool complete_drains) {
  if (complete_drains) {
    for (int e = 0; e < num_executors(); ++e) {
      // A stage boundary with no partials owed to this executor: the drain
      // is trivially complete and the executor leaves.
      if (membership_->draining(e)) membership_->complete_drain(e);
    }
  }
  for (int e : membership_->admittable_joiners()) {
    membership_->begin_warmup(e);
    const std::uint64_t bytes = resident_broadcast_bytes();
    const obs::SpanId span = trace_->begin(
        "membership", "membership.warmup", obs::exec_pid(e), 0,
        {{"executor", e}, {"bytes", static_cast<std::int64_t>(bytes)}});
    if (bytes > 0) co_await fetch_blob(kDriver, e, bytes);
    // Keyed broadcasts are mutable-object-backed replicas; the joiner gets
    // its own copy, as each executor the relay reached did, so tasks
    // landing on it find the same resident state.
    for (const auto& [key, entry] : bcast_keyed_) {
      executor(e).mutable_object(key, *sim_).value =
          entry.copy(entry.value.get());
    }
    trace_->end(span);
    membership_->complete_warmup(e);
    health_->start_monitoring(e);
  }
}

int Cluster::ring_successor(int exec_id) {
  std::vector<comm::ExecutorInfo> members;
  for (int e = 0; e < num_executors(); ++e) {
    if (e != exec_id && executor_usable(e) && executor_alive(e)) {
      members.push_back(executor(e).info());
    }
  }
  return comm::ring_successor_executor(members, executor(exec_id).info(),
                                       cfg_.topology_aware);
}

void Cluster::note_broadcast(std::int64_t key, std::shared_ptr<void> value,
                             std::uint64_t bytes, detail::CopyValue copy) {
  if (key >= 0) {
    bcast_keyed_[key] = BroadcastEntry{std::move(value), bytes, copy};
  } else {
    bcast_latest_bytes_ = bytes;
  }
}

net::Connection& Cluster::bm_connection(int from, int to) {
  const std::int64_t key =
      (static_cast<std::int64_t>(from + 1) << 24) |
      static_cast<std::int64_t>(to + 1);
  auto it = bm_conns_.find(key);
  if (it == bm_conns_.end()) {
    const int src_host =
        (from == kDriver) ? driver_host() : executor(from).host();
    const int dst_host = (to == kDriver) ? driver_host() : executor(to).host();
    it = bm_conns_
             .emplace(key, std::make_unique<net::Connection>(
                               *fabric_, src_host, dst_host, spec_.bm_link))
             .first;
  }
  return *it->second;
}

sim::Task<void> Cluster::fetch_blob(int from, int to, std::uint64_t bytes) {
  net::Connection& conn = bm_connection(from, to);
  const obs::SpanId span = trace_->begin(
      "fetch", to == kDriver ? "fetch.driver" : "fetch.exec",
      to == kDriver ? obs::kDriverPid : obs::exec_pid(to), 0,
      {{"from", from}, {"to", to}, {"bytes", static_cast<std::int64_t>(bytes)}});
  // Fetch request travels one control hop before the source starts sending.
  const int dst_host = (to == kDriver) ? driver_host() : executor(to).host();
  const int src_host =
      (from == kDriver) ? driver_host() : executor(from).host();
  co_await sim_->sleep(fabric_->latency(dst_host, src_host) + rpc_overhead_);
  net::Message m;
  m.bytes = bytes;
  conn.post(std::move(m));
  // The connection is FIFO and drops nothing, and every fetch waits right
  // after it posts, so the k-th waiter receives the k-th blob.
  (void)co_await conn.inbox().recv();
  trace_->end(span);
}

JobRing::JobRing(Cluster& cl) : JobRing(cl, /*counted=*/true) {}

JobRing::JobRing(Cluster& cl, bool counted) : cl_(&cl), counted_(counted) {
  if (counted_) ++cl_->active_rings_;
}

JobRing::~JobRing() {
  invalidate();
  if (counted_) --cl_->active_rings_;
}

const RingView& JobRing::view() {
  Cluster& cl = *cl_;
  const EngineConfig& cfg = cl.config();
  // The health view, not the omniscient fabric: a dead-but-undetected
  // executor stays in the ring (and fails it again) until the heartbeat
  // monitor declares it dead; a quarantined executor is excluded exactly
  // like a dead one, and readmitted when the quarantine lapses. Membership
  // filters on top: only active executors hold ranks.
  std::vector<int> members;
  for (int e = 0; e < cl.num_executors(); ++e) {
    if (cl.executor_usable(e)) members.push_back(e);
  }
  if (!sc_ || parallelism_ != cfg.sai_parallelism ||
      topology_aware_ != cfg.topology_aware || members_ != members) {
    if (members.empty()) {
      throw std::runtime_error(
          "no usable executors: cannot build communicator");
    }
    invalidate();
    std::vector<comm::ExecutorInfo> order;
    order.reserve(members.size());
    for (int e : members) order.push_back(cl.executor(e).info());
    comm::sort_ring_order(order, cfg.topology_aware);
    view_.rank_exec.clear();
    view_.exec_rank.assign(static_cast<std::size_t>(cl.num_executors()), -1);
    std::vector<int> rank_to_host;
    for (const auto& x : order) {
      view_.exec_rank[static_cast<std::size_t>(x.executor_id)] = view_.size();
      view_.rank_exec.push_back(x.executor_id);
      rank_to_host.push_back(x.host);
    }
    sc_ = std::make_unique<comm::Communicator>(
        cl.fabric(), std::move(rank_to_host), cl.spec().sc_link,
        cfg.sai_parallelism, cl.spec().cores_per_executor);
    // Fault-fabric node identity of rank r is its executor id, so
    // kill/sever schedules written in executor ids survive rank
    // renumbering.
    sc_->set_rank_to_node(view_.rank_exec);
    view_.sc = sc_.get();
    members_ = std::move(members);
    parallelism_ = cfg.sai_parallelism;
    topology_aware_ = cfg.topology_aware;
    cl.trace().instant(
        "membership", "membership.ring_formed", obs::kDriverPid, 0,
        {{"epoch", cl.membership().epoch()}, {"size", view_.size()}});
  }
  sc_->set_recv_timeout(cfg.collective_timeout);
  return view_;
}

void JobRing::invalidate() {
  if (sc_) {
    retired_bytes_ += sc_->total_bytes_delivered();
    cl_->retired_sc_.push_back(std::move(sc_));
  }
}

std::uint64_t JobRing::bytes_delivered() const {
  return retired_bytes_ + (sc_ ? sc_->total_bytes_delivered() : 0);
}

}  // namespace sparker::engine
