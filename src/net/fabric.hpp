#pragma once

#include <memory>
#include <string>
#include <vector>

#include "net/fault.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "sim/sync.hpp"
#include "sim/types.hpp"

/// \file fabric.hpp
/// Cluster network fabric model.
///
/// A Fabric is a set of hosts joined by a non-blocking switch. Each host has
/// one full-duplex NIC modeled as two FIFO store-and-forward servers (egress
/// and ingress). Transfers are chunked; each chunk is paced by a
/// per-connection TCP-stream rate cap, then queued on the sender NIC, flies
/// one propagation latency, and queues on the receiver NIC. This reproduces
/// the two behaviours the paper's communicator design depends on:
///
///  * a single TCP stream cannot saturate the NIC (hence the parallel
///    directed ring with P channels, Figures 13/14), and
///  * concurrent flows into one host (driver incast during tree aggregation)
///    share that host's ingress line rate.
///
/// Intra-host transfers use a loopback rate and skip the NIC servers; each
/// loopback message costs one simulator event (see net::Connection).

namespace sparker::net {

using sim::Duration;
using sim::Time;

/// Per-host hardware parameters.
struct HostParams {
  double nic_bw = 1185e6;      ///< NIC line rate, bytes/s, each direction.
  double loopback_bw = 8e9;    ///< intra-host (same node) copy rate, bytes/s.
};

/// Optional JVM garbage-collection pause model: after `bytes_threshold`
/// bytes have moved through a host's JVM-backed links, the host's NIC
/// stalls for `pause`. Reproduces the bumpy large-message throughput the
/// paper attributes to GC (Section 5.2.1).
struct GcParams {
  bool enabled = false;
  double bytes_threshold = 256e6;
  Duration pause = sim::milliseconds(25);
};

/// Fabric-wide parameters.
struct FabricParams {
  HostParams host{};
  Duration inter_latency = sim::microseconds(12);  ///< host-to-host one way.
  Duration intra_latency = sim::microseconds(3);   ///< within a host.
  GcParams gc{};
};

/// One host: NIC queues plus the GC byte accumulator.
class Host {
 public:
  Host(sim::Simulator& s) : egress(s), ingress(s) {}

  sim::FifoServer egress;
  sim::FifoServer ingress;
  double jvm_bytes_moved = 0.0;  ///< since the last simulated GC pause.
};

/// The cluster fabric: hosts + switch latencies.
class Fabric {
 public:
  Fabric(sim::Simulator& sim, FabricParams params, int num_hosts)
      : sim_(&sim), params_(params), faults_(sim) {
    hosts_.reserve(static_cast<std::size_t>(num_hosts));
    for (int i = 0; i < num_hosts; ++i) {
      hosts_.push_back(std::make_unique<Host>(sim));
    }
  }
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  sim::Simulator& simulator() noexcept { return *sim_; }
  const FabricParams& params() const noexcept { return params_; }
  int num_hosts() const noexcept { return static_cast<int>(hosts_.size()); }

  Host& host(int id) { return *hosts_.at(static_cast<std::size_t>(id)); }

  /// One-way propagation latency between two hosts.
  Duration latency(int a, int b) const noexcept {
    return a == b ? params_.intra_latency : params_.inter_latency;
  }

  /// The fabric's fault-injection state (healthy by default).
  FaultFabric& faults() noexcept { return faults_; }
  const FaultFabric& faults() const noexcept { return faults_; }

  /// Optional trace sink for per-message transmit spans and fault/GC
  /// instants. Null (the default) disables network tracing; the owner of
  /// the sink (the engine cluster, or a bench wiring a raw fabric) must
  /// keep it alive for the fabric's lifetime.
  void set_trace(obs::TraceSink* trace) noexcept { trace_ = trace; }
  obs::TraceSink* trace() const noexcept { return trace_; }

  /// Records `bytes` of JVM-managed traffic on a host; injects a NIC stall
  /// when the modeled GC threshold is crossed.
  void charge_jvm_bytes(int host_id, double bytes) {
    if (!params_.gc.enabled) return;
    Host& h = host(host_id);
    h.jvm_bytes_moved += bytes;
    if (h.jvm_bytes_moved >= params_.gc.bytes_threshold) {
      h.jvm_bytes_moved = 0.0;
      const Time resume = sim_->now() + params_.gc.pause;
      h.egress.block_until(resume);
      h.ingress.block_until(resume);
      if (trace_) {
        trace_->instant("net", "gc.pause", obs::kNetPid, host_id,
                        {{"host", host_id},
                         {"pause_ns",
                          static_cast<std::int64_t>(params_.gc.pause)}});
      }
    }
  }

 private:
  sim::Simulator* sim_;
  FabricParams params_;
  FaultFabric faults_;
  obs::TraceSink* trace_ = nullptr;
  std::vector<std::unique_ptr<Host>> hosts_;
};

}  // namespace sparker::net
