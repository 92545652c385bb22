#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>

#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/types.hpp"

/// \file fault.hpp
/// The deterministic fault-injection fabric.
///
/// A FaultFabric holds the cluster's failure state at two granularities:
///
///  * **node faults** — a node (an executor process in the engine, a rank in
///    raw communicator tests) dies at a chosen simulated time and never
///    recovers. Messages to or from a dead node are dropped at post time;
///    a dead node's own `recv` raises `CollectiveFailed` (see
///    comm/communicator.hpp). This is the paper's executor-loss case, which
///    In-Memory Merge handles with *stage-level* retry (Section 3.2).
///  * **channel faults** — one directed message channel between two nodes
///    (optionally one specific parallel ring channel) is severed, degraded,
///    or given extra delay, possibly healing after a while.
///
/// All fault times are scheduled on the discrete-event simulator and all
/// randomized schedules draw from the fabric's own splittable RNG
/// (sim/random.hpp), so a given seed replays the exact same failure trace,
/// bit for bit — the property the fault tests and the recovery ablation
/// depend on.

namespace sparker::net {

using sim::Duration;
using sim::Time;

class FaultFabric {
 public:
  /// Severed/degraded state with no heal time lasts forever.
  static constexpr Time kNever = sim::kTimeNever;

  explicit FaultFabric(sim::Simulator& sim, std::uint64_t seed = 0xfab51eedull)
      : sim_(&sim), rng_(seed) {}
  FaultFabric(const FaultFabric&) = delete;
  FaultFabric& operator=(const FaultFabric&) = delete;

  /// Re-seeds the schedule RNG (call before drawing a randomized schedule so
  /// the whole failure trace is a pure function of the seed).
  void reseed(std::uint64_t seed) { rng_ = sim::Rng(seed); }
  sim::Rng& rng() noexcept { return rng_; }

  /// Uniform random time in [lo, hi) from the schedule RNG — the helper
  /// tests use to place faults "somewhere inside" a measured window.
  Time random_time(Time lo, Time hi) {
    if (hi <= lo) return lo;
    return lo + rng_.next_below(hi - lo);
  }

  // ---- node (process) faults ----------------------------------------------

  void kill_node(int node) {
    if (dead_nodes_.insert(node).second) {
      death_times_.emplace(node, sim_->now());
    }
  }
  void kill_node_at(Time t, int node) {
    sim_->call_at(t, [this, node] { kill_node(node); });
  }
  bool node_alive(int node) const {
    return dead_nodes_.empty() || dead_nodes_.count(node) == 0;
  }
  std::size_t dead_node_count() const { return dead_nodes_.size(); }

  /// Simulated time a node died, or kNever if it is still alive. The health
  /// monitor subtracts this from its own detection time to measure the
  /// detection latency of heartbeat-based failure detection.
  Time node_death_time(int node) const {
    auto it = death_times_.find(node);
    return it == death_times_.end() ? kNever : it->second;
  }

  // ---- membership events (planned join / decommission) --------------------
  // Unlike faults, these are *cooperative*: the node announces its arrival
  // or departure through the control plane. The fabric only records the
  // physical side — whether a pending joiner's process has actually come up —
  // and forwards the event to a listener (the engine's MembershipManager).

  enum class MembershipEventKind { kJoin, kDecommission };
  using MembershipListener = std::function<void(Time, int, MembershipEventKind)>;

  /// At most one listener; installing replaces the previous one.
  void set_membership_listener(MembershipListener cb) {
    membership_listener_ = std::move(cb);
  }

  /// Declares that `node` starts *outside* the cluster: its process has not
  /// launched yet, so node_joined() is false until a join event fires.
  void declare_pending_join(int node) { pending_join_.insert(node); }

  /// True once a node's process is up (never declared pending, or its join
  /// event has fired). Dead nodes stay "joined" — death is a separate axis.
  bool node_joined(int node) const {
    return pending_join_.empty() || pending_join_.count(node) == 0;
  }

  void join_node_at(Time t, int node) {
    sim_->call_at(t, [this, node] {
      pending_join_.erase(node);
      if (membership_listener_) {
        membership_listener_(sim_->now(), node, MembershipEventKind::kJoin);
      }
    });
  }

  void decommission_node_at(Time t, int node) {
    sim_->call_at(t, [this, node] {
      if (membership_listener_) {
        membership_listener_(sim_->now(), node,
                             MembershipEventKind::kDecommission);
      }
    });
  }

  // ---- node-to-node channel faults (consulted by comm::Communicator) ------
  // `channel` selects one parallel ring channel; -1 applies to all channels
  // of the (src, dst) pair.

  void sever_channel(int src, int dst, int channel, Time heal_at = kNever) {
    channels_[chan_key(src, dst, channel)].severed_until = heal_at;
  }
  void sever_channel_at(Time t, int src, int dst, int channel,
                        Duration heal_after = 0) {
    sim_->call_at(t, [this, t, src, dst, channel, heal_after] {
      sever_channel(src, dst, channel,
                    heal_after > 0 ? t + heal_after : kNever);
    });
  }
  void delay_channel(int src, int dst, int channel, Duration extra,
                     Time until = kNever) {
    auto& f = channels_[chan_key(src, dst, channel)];
    f.extra_delay = extra;
    f.delay_until = until;
  }
  void delay_channel_at(Time t, int src, int dst, int channel, Duration extra,
                        Duration heal_after = 0) {
    sim_->call_at(t, [this, t, src, dst, channel, extra, heal_after] {
      delay_channel(src, dst, channel, extra,
                    heal_after > 0 ? t + heal_after : kNever);
    });
  }
  /// Multiplies the per-message stream service time of a channel by
  /// `factor` (>= 1): a degraded-but-alive link.
  void degrade_channel(int src, int dst, int channel, double factor,
                       Time until = kNever) {
    auto& f = channels_[chan_key(src, dst, channel)];
    f.degrade = factor;
    f.degrade_until = until;
  }
  void degrade_channel_at(Time t, int src, int dst, int channel, double factor,
                          Duration heal_after = 0) {
    sim_->call_at(t, [this, t, src, dst, channel, factor, heal_after] {
      degrade_channel(src, dst, channel, factor,
                      heal_after > 0 ? t + heal_after : kNever);
    });
  }

  /// What a message posted now on (src, dst, channel) meets: the faults on
  /// that channel combined with those on all channels of the pair (-1).
  struct ChannelState {
    bool up = true;        ///< neither entry is severed.
    Duration delay = 0;    ///< sum of both entries' extra delay.
    double degrade = 1.0;  ///< product of both entries' factors.
  };
  ChannelState channel_state(int src, int dst, int channel) const {
    ChannelState c;
    // The empty() check skips hashing on a fault-free run, where every
    // message asks.
    if (channels_.empty()) return c;
    const LinkFault* one = lookup(chan_key(src, dst, channel));
    const LinkFault* all = lookup(chan_key(src, dst, -1));
    const Time now = sim_->now();
    c.up = !severed(one, now) && !severed(all, now);
    c.delay = delay_of(one, now) + delay_of(all, now);
    c.degrade = degrade_of(one, now) * degrade_of(all, now);
    return c;
  }

  /// Heals every link fault and forgets every death (fresh schedule between
  /// independent runs sharing one fabric).
  void reset() {
    dead_nodes_.clear();
    death_times_.clear();
    channels_.clear();
    pending_join_.clear();
  }

 private:
  struct LinkFault {
    Time severed_until = 0;   ///< severed while now < severed_until.
    Duration extra_delay = 0;
    Time delay_until = 0;
    double degrade = 1.0;
    Time degrade_until = 0;
  };
  using FaultMap = std::unordered_map<std::uint64_t, LinkFault>;

  static std::uint64_t chan_key(int src, int dst, int channel) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src + 1))
            << 40) |
           (static_cast<std::uint64_t>(static_cast<std::uint32_t>(dst + 1))
            << 16) |
           static_cast<std::uint64_t>(static_cast<std::uint16_t>(channel + 1));
  }
  const LinkFault* lookup(std::uint64_t key) const {
    auto it = channels_.find(key);
    return it == channels_.end() ? nullptr : &it->second;
  }
  static bool severed(const LinkFault* f, Time now) {
    return f && now < f->severed_until;
  }
  static Duration delay_of(const LinkFault* f, Time now) {
    return f && now < f->delay_until ? f->extra_delay : 0;
  }
  static double degrade_of(const LinkFault* f, Time now) {
    return f && now < f->degrade_until ? f->degrade : 1.0;
  }

  sim::Simulator* sim_;
  sim::Rng rng_;
  std::unordered_set<int> dead_nodes_;
  std::unordered_map<int, Time> death_times_;
  std::unordered_set<int> pending_join_;  ///< declared but not yet arrived.
  MembershipListener membership_listener_;
  FaultMap channels_;  ///< keyed by (src node, dst node, channel).
};

}  // namespace sparker::net
