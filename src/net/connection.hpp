#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>

#include "net/fabric.hpp"
#include "sim/channel.hpp"
#include "sim/task.hpp"

/// \file connection.hpp
/// A unidirectional, FIFO, rate-limited message pipe between two hosts —
/// the model of one TCP connection (a "message channel" in the paper's
/// parallel-directed-ring topology, Figure 10).

namespace sparker::net {

/// A message in flight. `bytes` is the modeled wire size, which may be
/// larger than the in-process payload when the workload is scaled down
/// (see DESIGN.md §2); `payload` is the real in-process data.
struct Message {
  int src = -1;                    ///< sender rank (assigned by comm layer).
  int channel = 0;                 ///< parallel-channel index.
  int tag = 0;                     ///< user tag.
  std::uint64_t bytes = 0;         ///< modeled wire size.
  std::shared_ptr<void> payload;   ///< real data (type known to endpoints).
};

/// Behaviour of one logical connection; differs per communication backend
/// (scalable communicator / BlockManager / MPI) and is calibrated from the
/// paper's own micro-measurements.
struct LinkParams {
  double stream_bw = 340e6;        ///< per-stream throughput cap, bytes/s.
  Duration send_overhead = sim::microseconds(30);  ///< per-message, sender.
  Duration recv_overhead = sim::microseconds(30);  ///< per-message, receiver.
  Duration per_chunk_cpu = 0;      ///< per-chunk software cost (framing).
  std::size_t chunk_bytes = 64 * 1024;  ///< store-and-forward unit.
  /// Upper bound on chunks per message: very large messages use
  /// proportionally larger chunks so simulation cost stays bounded while
  /// contention granularity remains fine relative to the message.
  std::size_t max_chunks_per_msg = 256;
  bool jvm = false;                ///< JVM-managed buffers (GC model applies).
};

/// One unidirectional connection. Messages posted to it are transmitted in
/// order and appear in `inbox()` at their simulated delivery time.
///
/// A connection between two hosts runs an internal pump coroutine that
/// paces each message chunk by chunk through both NICs. A loopback
/// connection (both ends on one host) touches no NIC and no shared server,
/// so it is a per-connection FIFO delay line: each message is delivered by
/// one timer at a delivery time computed when it is posted.
class Connection {
 public:
  Connection(Fabric& fabric, int src_host, int dst_host, LinkParams params)
      : fabric_(&fabric),
        sim_(&fabric.simulator()),
        src_host_(src_host),
        dst_host_(dst_host),
        params_(params),
        outbox_(*sim_),
        inbox_(*sim_) {
    if (!loopback()) {
      pump_ = pump();
      sim_->schedule_now(pump_.handle());
    }
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Queues a message for transmission now. Never blocks (ZeroMQ-style
  /// buffered send).
  void post(Message m) {
    if (loopback()) {
      deliver_loopback(sim_->now(), std::move(m));
    } else {
      outbox_.send(std::move(m));
    }
  }

  /// Queues a message that may start no earlier than `ready` (>= now): the
  /// sender's hand-off time, e.g. after its IO thread copied it out. A JVM
  /// link between hosts hands off through a timer even when `ready` is now.
  void post_at(Time ready, Message m) {
    if (loopback()) {
      deliver_loopback(ready, std::move(m));
    } else if (!params_.jvm && ready <= sim_->now()) {
      outbox_.send(std::move(m));
    } else {
      sim_->call_at(ready, [this, m = std::move(m)]() mutable {
        outbox_.send(std::move(m));
      });
    }
  }

  /// Receiver-side delivery queue.
  sim::Channel<Message>& inbox() noexcept { return inbox_; }

  int src_host() const noexcept { return src_host_; }
  int dst_host() const noexcept { return dst_host_; }
  const LinkParams& params() const noexcept { return params_; }

  /// Total modeled bytes delivered so far.
  std::uint64_t bytes_delivered() const noexcept { return bytes_delivered_; }

 private:
  bool loopback() const noexcept { return src_host_ == dst_host_; }

  // Each directed host link gets its own track under the network
  // pseudo-process.
  int trace_tid() const noexcept { return src_host_ * 256 + dst_host_; }

  /// Time one loopback message occupies the line: both per-message
  /// overheads, the intra-host latency and a memory copy at the loopback
  /// rate (no NIC, no stream cap).
  Duration loopback_time(std::uint64_t bytes) const {
    return params_.send_overhead + fabric_->latency(src_host_, dst_host_) +
           sim::transfer_time(static_cast<double>(bytes),
                              fabric_->params().host.loopback_bw) +
           params_.recv_overhead;
  }

  /// The loopback delay line: a message starts when it is ready or when the
  /// one ahead of it is delivered, whichever is later — exactly when a pump
  /// would start it — and one timer delivers it. Delivery times never
  /// decrease, and same-instant timers fire in posting order, so delivery
  /// stays FIFO. The timer works the start time back out of the message
  /// size instead of capturing it, which keeps its closure within
  /// InlineFn's inline buffer.
  void deliver_loopback(Time ready, Message m) {
    const Time start = std::max(ready, line_free_);
    line_free_ = start + loopback_time(m.bytes);
    sim_->call_at(line_free_, [this, m = std::move(m)]() mutable {
      if (obs::TraceSink* tr = fabric_->trace()) {
        const Time done = sim_->now();
        tr->span_at("net", "net.tx", obs::kNetPid, trace_tid(),
                    done - loopback_time(m.bytes), done,
                    {{"src", src_host_},
                     {"dst", dst_host_},
                     {"bytes", static_cast<std::int64_t>(m.bytes)},
                     {"channel", m.channel}});
      }
      bytes_delivered_ += m.bytes;
      inbox_.send(std::move(m));
    });
  }

  sim::Task<void> pump() {
    for (;;) {
      Message m = co_await outbox_.recv();
      obs::TraceSink* tr = fabric_->trace();
      const obs::SpanId span =
          tr ? tr->begin("net", "net.tx", obs::kNetPid, trace_tid(),
                         {{"src", src_host_},
                          {"dst", dst_host_},
                          {"bytes", static_cast<std::int64_t>(m.bytes)},
                          {"channel", m.channel}})
             : obs::kNoSpan;
      co_await sim_->sleep(params_.send_overhead);
      co_await transmit_remote(m, fabric_->latency(src_host_, dst_host_));
      co_await sim_->sleep(params_.recv_overhead);
      if (tr) tr->end(span);
      bytes_delivered_ += m.bytes;
      inbox_.send(std::move(m));
    }
  }

  sim::Task<void> transmit_remote(const Message& m, Duration lat) {
    Host& src = fabric_->host(src_host_);
    Host& dst = fabric_->host(dst_host_);
    const double nic_bw = fabric_->params().host.nic_bw;
    Time last_delivery = sim_->now() + lat;
    std::uint64_t remaining = m.bytes;
    const std::uint64_t chunk_size = std::max<std::uint64_t>(
        params_.chunk_bytes,
        m.bytes / std::max<std::size_t>(1, params_.max_chunks_per_msg));
    // Zero-byte messages still carry a header chunk.
    do {
      const std::uint64_t chunk = std::min<std::uint64_t>(remaining, chunk_size);
      // Pace to the stream's rate cap: a chunk may not be injected earlier
      // than one stream service time after the previous injection.
      const Duration stream_t =
          params_.per_chunk_cpu +
          sim::transfer_time(static_cast<double>(chunk), params_.stream_bw);
      if (stream_next_ > sim_->now()) {
        co_await sim_->sleep_until(stream_next_);
      }
      stream_next_ = sim_->now() + stream_t;
      // Sender NIC: store-and-forward, shared with all flows on this host.
      const Duration nic_t =
          sim::transfer_time(static_cast<double>(chunk), nic_bw);
      const Time departed = src.egress.enqueue(nic_t);
      if (params_.jvm) {
        fabric_->charge_jvm_bytes(src_host_, static_cast<double>(chunk));
      }
      // Waiting for our own chunk to clear the NIC gives natural
      // backpressure under contention (TCP window, approximately).
      co_await sim_->sleep_until(departed);
      // Receiver NIC, booked at arrival time.
      last_delivery = dst.ingress.enqueue_at(departed + lat, nic_t);
      remaining -= chunk;
    } while (remaining > 0);
    co_await sim_->sleep_until(last_delivery);
    if (params_.jvm) {
      fabric_->charge_jvm_bytes(dst_host_, static_cast<double>(m.bytes));
    }
  }

  Fabric* fabric_;
  sim::Simulator* sim_;
  int src_host_;
  int dst_host_;
  LinkParams params_;
  Time stream_next_ = 0;
  Time line_free_ = 0;  ///< loopback: delivery time of the latest message.
  std::uint64_t bytes_delivered_ = 0;
  sim::Channel<Message> outbox_;
  sim::Channel<Message> inbox_;
  sim::Task<void> pump_;  // between hosts only. Declared last: destroyed
                          // first (it waits on outbox_, whose waiter list
                          // refers into its frame)
};

}  // namespace sparker::net
