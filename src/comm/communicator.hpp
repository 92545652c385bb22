#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/connection.hpp"
#include "net/fabric.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

/// \file communicator.hpp
/// The scalable communicator (paper Section 4.1).
///
/// N ranks are placed on hosts (the rank -> host map encodes topology
/// awareness: sorting executors by hostname groups ring neighbours on the
/// same node). Between any ordered pair of ranks there are up to P parallel
/// message channels, each modeled as an independent TCP connection — the
/// "parallel directed ring" of Figure 10, generalized to arbitrary pairs so
/// that the same object also serves tree-based and halving-based
/// collectives and the point-to-point micro-benchmarks.

namespace sparker::comm {

using net::Message;

/// Raised out of a collective when a rank detects that it cannot make
/// progress: its own node has been killed, or a `recv` sat past the
/// configured timeout with nothing delivered (peer death or severed
/// channel). The engine catches this at the stage boundary and retries the
/// collective on the surviving topology (stage-level retry, paper §3.2).
struct CollectiveFailed : std::runtime_error {
  explicit CollectiveFailed(const std::string& what)
      : std::runtime_error(what) {}
};

class Communicator {
 public:
  /// `rank_to_host[r]` is the fabric host of rank r. `link` selects the
  /// backend behaviour (SC / BlockManager / MPI link parameters).
  /// `parallelism` is the number of parallel channels (P in the paper).
  /// `io_cores` caps the number of distinct IO threads per rank: channels
  /// beyond the executor's core count share IO threads, so parallelism
  /// above the core count yields little (the paper's Figure 14 shows the
  /// 4->8 step flattening on 4-core executors).
  Communicator(net::Fabric& fabric, std::vector<int> rank_to_host,
               net::LinkParams link, int parallelism = 1, int io_cores = 4)
      : fabric_(&fabric),
        rank_to_host_(std::move(rank_to_host)),
        link_(link),
        parallelism_(parallelism),
        io_cores_(std::max(1, io_cores)) {
    if (parallelism_ < 1) throw std::invalid_argument("parallelism < 1");
    for (int h : rank_to_host_) {
      if (h < 0 || h >= fabric.num_hosts()) {
        throw std::out_of_range("rank mapped to nonexistent host");
      }
    }
  }
  Communicator(const Communicator&) = delete;
  Communicator& operator=(const Communicator&) = delete;

  int size() const noexcept { return static_cast<int>(rank_to_host_.size()); }
  int parallelism() const noexcept { return parallelism_; }
  int host_of(int rank) const { return rank_to_host_.at(static_cast<std::size_t>(rank)); }
  net::Fabric& fabric() noexcept { return *fabric_; }
  sim::Simulator& simulator() noexcept { return fabric_->simulator(); }

  /// Deadline for a blocking `recv`; 0 disables timeout detection (a hung
  /// recv then deadlocks the simulation, as before this fabric existed).
  void set_recv_timeout(sim::Duration timeout) { recv_timeout_ = timeout; }

  /// Maps each rank to the FaultFabric node identity used for kill/sever
  /// queries. Defaults to the identity map (rank r is fault node r); the
  /// engine overrides it with executor ids so `kill_executor` schedules
  /// survive communicator rebuilds that renumber ranks.
  void set_rank_to_node(std::vector<int> rank_to_node) {
    rank_to_node_ = std::move(rank_to_node);
  }
  int node_of(int rank) const {
    if (rank_to_node_.empty()) return rank;
    return rank_to_node_.at(static_cast<std::size_t>(rank));
  }
  bool rank_alive(int rank) const {
    return fabric_->faults().node_alive(node_of(rank));
  }

  /// Posts a message from `src` to `dst` on parallel channel `channel`.
  /// Asynchronous and FIFO per (src, dst, channel).
  ///
  /// For JVM-backed links, the message first queues on the sender rank's
  /// per-channel IO thread (JeroMQ has one IO thread per socket pair):
  /// sends and receives of the same (rank, channel) contend for it, which
  /// is what keeps a 1-parallelism ring well below the NIC rate even when
  /// every hop is intra-node.
  void post(int src, int dst, int channel, Message m) {
    m.src = src;
    m.channel = channel;
    // Node-level and channel-level faults, evaluated at post time: a dead
    // endpoint or a severed channel silently loses the message. The
    // receiver observes the loss only as a hung recv (see set_recv_timeout).
    net::FaultFabric& faults = fabric_->faults();
    const int src_node = node_of(src);
    const int dst_node = node_of(dst);
    if (!faults.node_alive(src_node) || !faults.node_alive(dst_node)) return;
    const net::FaultFabric::ChannelState link =
        faults.channel_state(src_node, dst_node, channel);
    if (!link.up) return;
    // A degraded channel is modeled as extra serialization delay on top of
    // any explicit injected message delay.
    sim::Duration extra = link.delay;
    if (link.degrade > 1.0) {
      extra += static_cast<sim::Duration>(
          static_cast<double>(sim::transfer_time(
              static_cast<double>(m.bytes), link_.stream_bw)) *
          (link.degrade - 1.0));
    }
    Path& p = path(src, dst, channel);
    sim::Time ready = simulator().now() + extra;
    if (link_.jvm) {
      const sim::Duration cpu = sim::transfer_time(
          static_cast<double>(m.bytes), link_.stream_bw);
      ready = p.src_io->enqueue(cpu) + extra;
    }
    // FIFO enforcement: a degraded/delayed channel stretches the wire, it
    // never reorders it. Without the clamp, a message posted after the
    // fault heals (or simply a smaller message under a byte-proportional
    // degrade) would overtake one still in flight and the ring would merge
    // the wrong round's segment.
    if (ready < p.last_ready) ready = p.last_ready;
    p.last_ready = ready;
    p.conn.post_at(ready, std::move(m));
  }

  /// Receives the next message sent from `src` to `dst` on `channel`.
  /// For JVM-backed links the receiver rank's IO thread copies the message
  /// out of the socket before it is visible.
  sim::Task<Message> recv(int dst, int src, int channel) {
    if (!rank_alive(dst)) {
      throw CollectiveFailed("recv on dead rank " + std::to_string(dst));
    }
    Path& p = path(src, dst, channel);
    Message m;
    if (recv_timeout_ > 0) {
      std::optional<Message> got =
          co_await p.conn.inbox().recv_until(simulator().now() + recv_timeout_);
      if (!got) {
        throw CollectiveFailed(
            "recv timeout: rank " + std::to_string(dst) + " <- rank " +
            std::to_string(src) + " channel " + std::to_string(channel));
      }
      m = std::move(*got);
    } else {
      m = co_await p.conn.inbox().recv();
    }
    if (!rank_alive(dst)) {
      throw CollectiveFailed("rank " + std::to_string(dst) +
                             " died while receiving");
    }
    if (link_.jvm) {
      const sim::Duration cpu = sim::transfer_time(
          static_cast<double>(m.bytes), link_.stream_bw);
      const sim::Time done = p.dst_io->enqueue(cpu);
      co_await simulator().sleep_until(done);
    }
    co_return m;
  }

  /// Ring neighbours (paper: executor i sends to (i+1) mod N).
  int next(int rank) const noexcept { return (rank + 1) % size(); }
  int prev(int rank) const noexcept { return (rank - 1 + size()) % size(); }

  /// Total modeled bytes moved through all connections so far.
  std::uint64_t total_bytes_delivered() const {
    std::uint64_t total = 0;
    for (const auto& [k, p] : paths_) total += p.conn.bytes_delivered();
    return total;
  }

 private:
  static std::uint64_t conn_key(int src, int dst, int channel) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 34) |
           (static_cast<std::uint64_t>(static_cast<std::uint32_t>(dst)) << 8) |
           static_cast<std::uint64_t>(channel);
  }

  /// Everything a message on one (src, dst, channel) path needs, so that a
  /// post or a recv costs one hash lookup.
  struct Path {
    Path(net::Fabric& fabric, int src_host, int dst_host,
         const net::LinkParams& link)
        : conn(fabric, src_host, dst_host, link) {}
    net::Connection conn;
    /// Latest scheduled hand-off time, enforcing the FIFO contract under
    /// time-varying post delays.
    sim::Time last_ready = 0;
    sim::FifoServer* src_io = nullptr;  ///< sender's IO thread (JVM links).
    sim::FifoServer* dst_io = nullptr;  ///< receiver's IO thread (JVM links).
  };

  /// The path's record, created with its connection on first use: the
  /// first post that passes the fault checks, or the first recv. A
  /// connection between hosts schedules its pump when it is created.
  Path& path(int src, int dst, int channel) {
    check_rank(src);
    check_rank(dst);
    if (channel < 0 || channel >= parallelism_) {
      throw std::out_of_range("channel out of range");
    }
    const std::uint64_t key = conn_key(src, dst, channel);
    auto it = paths_.find(key);
    if (it != paths_.end()) return it->second;
    Path& p = paths_.try_emplace(key, *fabric_, host_of(src), host_of(dst),
                                 link_)
                  .first->second;
    if (link_.jvm) {
      p.src_io = &io_thread(src, channel);
      p.dst_io = &io_thread(dst, channel);
    }
    return p;
  }

  void check_rank(int r) const {
    if (r < 0 || r >= size()) throw std::out_of_range("rank out of range");
  }

  sim::FifoServer& io_thread(int rank, int channel) {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(rank)) << 8) |
        static_cast<std::uint64_t>(channel % io_cores_);
    return io_.try_emplace(key, simulator()).first->second;
  }

  net::Fabric* fabric_;
  std::vector<int> rank_to_host_;
  std::vector<int> rank_to_node_;  ///< empty = identity map.
  net::LinkParams link_;
  sim::Duration recv_timeout_ = 0;  ///< 0 = no timeout detection.
  int parallelism_;
  int io_cores_;
  std::unordered_map<std::uint64_t, Path> paths_;
  /// IO threads by (rank, channel % io_cores).
  std::unordered_map<std::uint64_t, sim::FifoServer> io_;
};

}  // namespace sparker::comm
