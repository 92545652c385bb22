// Tests for the network fabric model: latency composition, stream-rate caps,
// NIC contention and incast, loopback, GC pauses, and FIFO delivery.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "comm/communicator.hpp"
#include "net/cluster.hpp"
#include "net/connection.hpp"
#include "net/fabric.hpp"
#include "sim/simulator.hpp"

namespace sparker::net {
namespace {

using sim::Duration;
using sim::Simulator;
using sim::Task;
using sim::Time;

FabricParams quiet_fabric() {
  FabricParams p;
  p.host.nic_bw = 1000e6;    // 1 GB/s
  p.host.loopback_bw = 8e9;  // 8 GB/s
  p.inter_latency = sim::microseconds(10);
  p.intra_latency = sim::microseconds(1);
  p.gc.enabled = false;
  return p;
}

LinkParams plain_link(double stream_bw = 400e6) {
  LinkParams l;
  l.stream_bw = stream_bw;
  l.send_overhead = sim::microseconds(5);
  l.recv_overhead = sim::microseconds(5);
  l.per_chunk_cpu = 0;
  l.jvm = false;
  return l;
}

// Sends one message and returns its delivery time.
Time deliver_one(Fabric& fabric, Connection& c, std::uint64_t bytes) {
  Simulator& sim = fabric.simulator();
  Message m;
  m.bytes = bytes;
  c.post(m);
  auto recv = [](Connection& conn, Simulator& s) -> Task<Time> {
    (void)co_await conn.inbox().recv();
    co_return s.now();
  };
  return sim.run_task(recv(c, sim));
}

TEST(Connection, SmallMessageLatencyIsOverheadPlusPropagation) {
  Simulator sim;
  Fabric fabric(sim, quiet_fabric(), 2);
  Connection c(fabric, 0, 1, plain_link());
  const Time t = deliver_one(fabric, c, 8);
  // send_overhead(5us) + nic service (~8ns) + latency(10us) + ingress (~8ns)
  // + recv_overhead(5us) ~= 20us.
  EXPECT_GE(t, sim::microseconds(20));
  EXPECT_LE(t, sim::microseconds(21));
}

TEST(Connection, SingleStreamThroughputIsCapped) {
  Simulator sim;
  Fabric fabric(sim, quiet_fabric(), 2);
  Connection c(fabric, 0, 1, plain_link(400e6));
  const std::uint64_t bytes = 64ull << 20;  // 64 MB
  const Time t = deliver_one(fabric, c, bytes);
  const double rate = static_cast<double>(bytes) / sim::to_seconds(t);
  // Stream cap 400 MB/s on a 1 GB/s NIC: the stream is the bottleneck.
  EXPECT_NEAR(rate, 400e6, 20e6);
}

TEST(Connection, ParallelStreamsAggregateUpToNic) {
  // 4 x 400 MB/s streams on a 1 GB/s NIC must aggregate to ~1 GB/s.
  Simulator sim;
  Fabric fabric(sim, quiet_fabric(), 2);
  std::vector<std::unique_ptr<Connection>> conns;
  for (int i = 0; i < 4; ++i) {
    conns.push_back(std::make_unique<Connection>(fabric, 0, 1, plain_link()));
  }
  const std::uint64_t bytes = 16ull << 20;  // 16 MB each, 64 MB total
  for (auto& c : conns) {
    Message m;
    m.bytes = bytes;
    c->post(m);
  }
  auto recv_all = [](std::vector<std::unique_ptr<Connection>>& cs,
                     Simulator& s) -> Task<Time> {
    for (auto& c : cs) (void)co_await c->inbox().recv();
    co_return s.now();
  };
  const Time t = sim.run_task(recv_all(conns, sim));
  const double rate = 4.0 * static_cast<double>(bytes) / sim::to_seconds(t);
  EXPECT_NEAR(rate, 1000e6, 60e6);
}

TEST(Connection, TwoStreamsDoNotExceedTwiceStreamRate) {
  // 2 x 400 MB/s on a 1 GB/s NIC: ~800 MB/s aggregate (stream-bound).
  Simulator sim;
  Fabric fabric(sim, quiet_fabric(), 2);
  Connection a(fabric, 0, 1, plain_link());
  Connection b(fabric, 0, 1, plain_link());
  const std::uint64_t bytes = 16ull << 20;
  Message m;
  m.bytes = bytes;
  a.post(m);
  b.post(m);
  auto recv_both = [](Connection& x, Connection& y,
                      Simulator& s) -> Task<Time> {
    (void)co_await x.inbox().recv();
    (void)co_await y.inbox().recv();
    co_return s.now();
  };
  const Time t = sim.run_task(recv_both(a, b, sim));
  const double rate = 2.0 * static_cast<double>(bytes) / sim::to_seconds(t);
  EXPECT_NEAR(rate, 800e6, 40e6);
}

TEST(Connection, IncastSharesReceiverIngress) {
  // 4 senders on distinct hosts -> one receiver: receiver NIC (1 GB/s) is
  // the bottleneck even though each sender could do 400 MB/s.
  Simulator sim;
  Fabric fabric(sim, quiet_fabric(), 5);
  std::vector<std::unique_ptr<Connection>> conns;
  for (int i = 1; i <= 4; ++i) {
    conns.push_back(std::make_unique<Connection>(fabric, i, 0, plain_link()));
  }
  const std::uint64_t bytes = 16ull << 20;
  for (auto& c : conns) {
    Message m;
    m.bytes = bytes;
    c->post(m);
  }
  auto recv_all = [](std::vector<std::unique_ptr<Connection>>& cs,
                     Simulator& s) -> Task<Time> {
    for (auto& c : cs) (void)co_await c->inbox().recv();
    co_return s.now();
  };
  const Time t = sim.run_task(recv_all(conns, sim));
  const double rate = 4.0 * static_cast<double>(bytes) / sim::to_seconds(t);
  EXPECT_NEAR(rate, 1000e6, 60e6);
}

TEST(Connection, LoopbackBypassesNicAndIsFast) {
  Simulator sim;
  Fabric fabric(sim, quiet_fabric(), 2);
  Connection local(fabric, 0, 0, plain_link());
  const std::uint64_t bytes = 64ull << 20;
  const Time t = deliver_one(fabric, local, bytes);
  const double rate = static_cast<double>(bytes) / sim::to_seconds(t);
  EXPECT_NEAR(rate, 8e9, 0.5e9);
  // NIC servers untouched.
  EXPECT_EQ(fabric.host(0).egress.jobs(), 0u);
  EXPECT_EQ(fabric.host(0).ingress.jobs(), 0u);
}

// Delivery time of each message on a loopback connection, as the FIFO
// delay line it is: a message starts when it is posted or when the one
// ahead of it is delivered, whichever is later, and then takes the link's
// two per-message overheads, the intra-host latency and its loopback copy.
std::vector<Time> loopback_fifo_times(const FabricParams& fp,
                                      const LinkParams& l,
                                      const std::vector<Time>& ready,
                                      const std::vector<std::uint64_t>& bytes) {
  std::vector<Time> done;
  Time prev = 0;
  for (std::size_t i = 0; i < ready.size(); ++i) {
    const Time start = std::max(ready[i], prev);
    prev = start + l.send_overhead + fp.intra_latency +
           sim::transfer_time(static_cast<double>(bytes[i]),
                              fp.host.loopback_bw) +
           l.recv_overhead;
    done.push_back(prev);
  }
  return done;
}

TEST(Connection, MessagesOnOneConnectionAreFifo) {
  // Varied sizes, posted back to back (later messages queue behind earlier
  // ones) and after an idle gap. Host 0 -> 1 crosses the NIC; host 0 -> 0
  // is loopback, whose every delivery time is pinned to the nanosecond.
  const std::vector<Time> post_at = {
      0, 0, 0, sim::microseconds(10), sim::microseconds(12),
      sim::microseconds(500), sim::microseconds(500), sim::microseconds(501)};
  const std::vector<std::uint64_t> bytes = {8 << 10, 1 << 20, 0, 64 << 10,
                                            3,       2 << 20, 17, 256 << 10};
  for (const int dst : {1, 0}) {
    SCOPED_TRACE(dst == 0 ? "loopback" : "remote");
    Simulator sim;
    Fabric fabric(sim, quiet_fabric(), 2);
    Connection c(fabric, 0, dst, plain_link());
    for (std::size_t i = 0; i < post_at.size(); ++i) {
      Message m;
      m.tag = static_cast<int>(i);
      m.bytes = bytes[i];
      sim.call_at(post_at[i], [&c, m] { c.post(m); });
    }
    using Delivery = std::pair<int, Time>;  // (tag, delivery time)
    auto recv_all = [](Connection& conn, Simulator& s,
                       std::size_t n) -> Task<std::vector<Delivery>> {
      std::vector<Delivery> got;
      for (std::size_t i = 0; i < n; ++i) {
        Message m = co_await conn.inbox().recv();
        got.emplace_back(m.tag, s.now());
      }
      co_return got;
    };
    const auto got = sim.run_task(recv_all(c, sim, post_at.size()));
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].first, static_cast<int>(i));
    }
    if (dst == 0) {
      const std::vector<Time> want =
          loopback_fifo_times(quiet_fabric(), plain_link(), post_at, bytes);
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].second, want[i]) << "message " << i;
      }
      for (int h = 0; h < 2; ++h) {
        EXPECT_EQ(fabric.host(h).egress.jobs(), 0u);
        EXPECT_EQ(fabric.host(h).ingress.jobs(), 0u);
      }
    }
  }
}

// A JVM-backed link hands each message to the sender's IO thread first, so
// the thread's FIFO sets when the loopback connection may start it; the
// receiver's IO thread copies it out after delivery.
TEST(Communicator, JvmLoopbackStartsWhenTheIoThreadHandsOff) {
  const std::vector<Time> post_at = {0, 0, sim::microseconds(40),
                                     sim::milliseconds(2)};
  const std::vector<std::uint64_t> bytes = {4 << 20, 100, 512 << 10, 1 << 20};
  Simulator sim;
  Fabric fabric(sim, quiet_fabric(), 1);
  LinkParams l = plain_link();
  l.jvm = true;
  comm::Communicator sc(fabric, {0, 0}, l);
  for (std::size_t i = 0; i < post_at.size(); ++i) {
    Message m;
    m.tag = static_cast<int>(i);
    m.bytes = bytes[i];
    sim.call_at(post_at[i], [&sc, m] { sc.post(0, 1, 0, m); });
  }
  auto recv_all = [](comm::Communicator& c, Simulator& s,
                     std::size_t n) -> Task<std::vector<Time>> {
    std::vector<Time> at;
    for (std::size_t i = 0; i < n; ++i) {
      const Message m = co_await c.recv(1, 0, 0);
      EXPECT_EQ(m.tag, static_cast<int>(i));
      at.push_back(s.now());
    }
    co_return at;
  };
  const std::vector<Time> got =
      sim.run_task(recv_all(sc, sim, post_at.size()));

  // Sender IO thread: a FIFO server over the messages' stream copies.
  std::vector<Duration> cpu;
  std::vector<Time> ready;
  Time busy = 0;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    cpu.push_back(
        sim::transfer_time(static_cast<double>(bytes[i]), l.stream_bw));
    busy = std::max(post_at[i], busy) + cpu.back();
    ready.push_back(busy);
  }
  const std::vector<Time> delivered =
      loopback_fifo_times(quiet_fabric(), l, ready, bytes);
  // Receiver IO thread: the same copy again, once each message is in.
  Time copied = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    copied = std::max(delivered[i], copied) + cpu[i];
    EXPECT_EQ(got[i], copied) << "message " << i;
  }
  EXPECT_EQ(fabric.host(0).egress.jobs(), 0u);
  EXPECT_EQ(fabric.host(0).ingress.jobs(), 0u);
}

TEST(Connection, ZeroByteMessageStillDelivers) {
  Simulator sim;
  Fabric fabric(sim, quiet_fabric(), 2);
  Connection c(fabric, 0, 1, plain_link());
  const Time t = deliver_one(fabric, c, 0);
  EXPECT_GT(t, 0u);
  EXPECT_LT(t, sim::microseconds(25));
}

TEST(Fabric, GcPauseStallsNic) {
  FabricParams p = quiet_fabric();
  p.gc.enabled = true;
  p.gc.bytes_threshold = 8e6;  // very low threshold to trigger quickly
  p.gc.pause = sim::milliseconds(10);
  Simulator sim;
  Fabric fabric(sim, p, 2);
  LinkParams l = plain_link();
  l.jvm = true;
  Connection c(fabric, 0, 1, l);
  const std::uint64_t bytes = 32ull << 20;
  const Time with_gc = deliver_one(fabric, c, bytes);

  // Same transfer with GC disabled.
  Simulator sim2;
  Fabric fabric2(sim2, quiet_fabric(), 2);
  Connection c2(fabric2, 0, 1, l);
  const Time without_gc = deliver_one(fabric2, c2, bytes);

  EXPECT_GT(with_gc, without_gc + sim::milliseconds(20));
}

TEST(Fabric, NonJvmLinksIgnoreGc) {
  FabricParams p = quiet_fabric();
  p.gc.enabled = true;
  p.gc.bytes_threshold = 1e6;
  p.gc.pause = sim::milliseconds(50);
  Simulator sim;
  Fabric fabric(sim, p, 2);
  LinkParams l = plain_link();
  l.jvm = false;
  Connection c(fabric, 0, 1, l);
  const std::uint64_t bytes = 8ull << 20;
  const Time t = deliver_one(fabric, c, bytes);
  // ~20 ms at 400 MB/s; no pauses.
  EXPECT_LT(t, sim::milliseconds(25));
}

TEST(ClusterSpec, PresetsMatchTable1) {
  const auto bic = ClusterSpec::bic();
  EXPECT_EQ(bic.num_nodes, 8);
  EXPECT_EQ(bic.executors_per_node, 6);
  EXPECT_EQ(bic.cores_per_executor, 4);
  EXPECT_EQ(bic.total_executors(), 48);
  EXPECT_EQ(bic.total_cores(), 192);

  const auto aws = ClusterSpec::aws();
  EXPECT_EQ(aws.num_nodes, 10);
  EXPECT_EQ(aws.executors_per_node, 12);
  EXPECT_EQ(aws.cores_per_executor, 8);
  EXPECT_EQ(aws.total_cores(), 960);
}

TEST(ClusterSpec, BicLatencyCalibration) {
  // One-way small-message latencies should match Figure 12 closely.
  const auto spec = ClusterSpec::bic();
  Simulator sim;
  Fabric fabric(sim, spec.fabric, 2);
  {
    Connection mpi(fabric, 0, 1, spec.mpi_link);
    const Time t = deliver_one(fabric, mpi, 8);
    EXPECT_NEAR(sim::to_micros(t), 15.94, 2.0);
  }
}

TEST(ClusterSpec, BicScLatencyCalibration) {
  const auto spec = ClusterSpec::bic();
  Simulator sim;
  Fabric fabric(sim, spec.fabric, 2);
  Connection sc(fabric, 0, 1, spec.sc_link);
  const Time t = deliver_one(fabric, sc, 8);
  EXPECT_NEAR(sim::to_micros(t), 72.73, 5.0);
}

TEST(ClusterSpec, BicBmLatencyCalibration) {
  const auto spec = ClusterSpec::bic();
  Simulator sim;
  Fabric fabric(sim, spec.fabric, 2);
  Connection bm(fabric, 0, 1, spec.bm_link);
  const Time t = deliver_one(fabric, bm, 8);
  EXPECT_NEAR(sim::to_micros(t), 3861.25, 80.0);
}

}  // namespace
}  // namespace sparker::net
