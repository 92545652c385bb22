#pragma once

#include <chrono>
#include <cstdint>

#include "bench_util/json.hpp"
#include "sim/simulator.hpp"

/// \file sim_speed.hpp
/// Kernel-speed accounting for bench binaries. Every simulation a binary
/// runs is wrapped in a SimSpeedScope, which folds (wall seconds, virtual
/// seconds advanced, events processed) into one process-wide accumulator;
/// add_sim_speed_fields() then reports events/sec and wall-clock-per-
/// simulated-second next to the bench's own results. The fields are
/// additive diagnostics: they vary run to run with machine load and are
/// excluded from bit-identity comparisons of bench output.

namespace sparker::bench {

struct SimSpeedStats {
  double wall_s = 0;        ///< wall time spent inside measured scopes.
  double sim_s = 0;         ///< virtual time advanced across them.
  std::uint64_t events = 0; ///< kernel events processed across them.
  int runs = 0;             ///< number of measured simulations.
};

inline SimSpeedStats& sim_speed() {
  static SimSpeedStats s;
  return s;
}

/// RAII: measures one simulator over the enclosing scope (model setup plus
/// execution) and folds the deltas into sim_speed(). The simulator must
/// outlive the scope.
class SimSpeedScope {
 public:
  explicit SimSpeedScope(const sim::Simulator& sim)
      : sim_(&sim),
        t0_(std::chrono::steady_clock::now()),
        events0_(sim.events_processed()),
        now0_(sim.now()) {}
  SimSpeedScope(const SimSpeedScope&) = delete;
  SimSpeedScope& operator=(const SimSpeedScope&) = delete;
  ~SimSpeedScope() {
    SimSpeedStats& s = sim_speed();
    s.wall_s += std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0_)
                    .count();
    s.sim_s += sim::to_seconds(sim_->now() - now0_);
    s.events += sim_->events_processed() - events0_;
    ++s.runs;
  }

 private:
  const sim::Simulator* sim_;
  std::chrono::steady_clock::time_point t0_;
  std::uint64_t events0_;
  sim::Time now0_;
};

/// Appends the accumulated kernel-speed fields to a bench report.
inline JsonReport& add_sim_speed_fields(JsonReport& r) {
  const SimSpeedStats& s = sim_speed();
  r.set(kSimSpeedKeys[0], s.runs);
  r.set(kSimSpeedKeys[1], s.events);
  r.set(kSimSpeedKeys[2], s.wall_s);
  r.set(kSimSpeedKeys[3], s.sim_s);
  r.set(kSimSpeedKeys[4], s.wall_s > 0 ? s.events / s.wall_s : 0.0);
  r.set(kSimSpeedKeys[5], s.sim_s > 0 ? s.wall_s / s.sim_s : 0.0);
  return r;
}

inline JsonReport& JsonReport::with_sim_speed() {
  return add_sim_speed_fields(*this);
}

}  // namespace sparker::bench
