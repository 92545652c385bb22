#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util/cli.hpp"
#include "bench_util/json.hpp"
#include "bench_util/sim_speed.hpp"
#include "bench_util/table.hpp"
#include "net/connection.hpp"
#include "net/fabric.hpp"
#include "sim/channel.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"

/// \file micro_sim.cpp
/// Raw kernel-speed micro-benchmark: how fast does the discrete-event core
/// itself run, independent of any model fidelity question? Six workload
/// shapes stress the distinct hot paths of the calendar queue and timer
/// pool (see DESIGN.md §12); a seventh prices per-chunk NIC pacing, the
/// model cost of one large transfer between hosts. Each shape reports
/// events (or timer ops) per wall second and wall-clock per simulated
/// second into BENCH_micro_sim.json.
///
/// Shapes:
///   timer_grid     1M one-shot timers uniform over 1s of virtual time,
///                  then drain — raw event throughput with a large pending
///                  set (random node-pool access, window migration).
///   timer_churn    arm 4 cancellable timers, cancel 3, repeat — mixed
///                  arm/cancel/fire with short deadlines.
///   timeout_storm  arm a far-deadline guard and disarm it immediately (the
///                  recv-timeout pattern: a 5s timeout that virtually
///                  always gets cancelled) — stresses eager reclamation of
///                  cancelled timers.
///   pingpong       two coroutines bouncing a channel message — coroutine
///                  wake/suspend and the same-instant FIFO path.
///   fanout         100k coroutines each sleeping 10 staggered rounds —
///                  many concurrent sleepers across the bucket window.
///   clustered      the engine's own regime: 3k pending timers in bursts of
///                  ~100 within 3us, bursts 1ms apart; each firing re-arms
///                  into a burst up to 30ms ahead — bucket-width control.
///   paced_exact    64MiB messages through the per-chunk NIC/stream
///                  pacing model.

namespace {

using namespace sparker;
using sim::Duration;
using sim::Simulator;
using sim::Task;
using Clock = std::chrono::steady_clock;

double wall_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct ShapeResult {
  std::string name;
  double ops_per_sec = 0;    ///< events (or timer ops) per wall second.
  double wall_s = 0;
  double sim_s = 0;
  std::uint64_t events = 0;  ///< kernel events processed.
};

ShapeResult timer_grid() {
  const int kN = 1'000'000;
  Simulator s;
  bench::SimSpeedScope speed(s);
  sim::Rng rng(42);
  std::uint64_t sum = 0;
  for (int i = 0; i < kN; ++i) {
    s.call_at(rng.next_below(1'000'000'000ull), [&sum] { ++sum; });
  }
  const auto t0 = Clock::now();
  s.run();
  const double w = wall_since(t0);
  return {"timer_grid", kN / w, w, sim::to_seconds(s.now()),
          s.events_processed()};
}

ShapeResult timer_churn() {
  const int kRounds = 200'000;
  Simulator s;
  bench::SimSpeedScope speed(s);
  sim::Rng rng(7);
  std::uint64_t fired = 0;
  auto driver = [&](Simulator& sm) -> Task<void> {
    for (int r = 0; r < kRounds; ++r) {
      Simulator::TimerHandle hs[4];
      for (int j = 0; j < 4; ++j) {
        hs[j] = sm.call_at_cancellable(
            sm.now() + 1000 + rng.next_below(1000), [&fired] { ++fired; });
      }
      for (int j = 0; j < 3; ++j) sm.cancel(hs[j]);
      co_await sm.sleep(10);
    }
  };
  s.spawn(driver(s));
  const auto t0 = Clock::now();
  s.run();
  const double w = wall_since(t0);
  // 4 arms + 3 cancels + 1 sleep per round.
  return {"timer_churn", kRounds * 8.0 / w, w, sim::to_seconds(s.now()),
          s.events_processed()};
}

ShapeResult timeout_storm() {
  const int kRounds = 1'000'000;
  Simulator s;
  bench::SimSpeedScope speed(s);
  std::uint64_t fired = 0;
  // Padded to the engine's real timeout-lambda capture size (channel,
  // waiter, coroutine handle).
  void* p1 = &fired;
  void* p2 = &s;
  auto driver = [&](Simulator& sm) -> Task<void> {
    for (int r = 0; r < kRounds; ++r) {
      auto h = sm.call_at_cancellable(
          sm.now() + 5'000'000'000ull,
          [&fired, p1, p2] { ++fired; (void)p1; (void)p2; });
      sm.cancel(h);
      co_await sm.sleep(100);
    }
  };
  s.spawn(driver(s));
  const auto t0 = Clock::now();
  s.run();
  const double w = wall_since(t0);
  // 1 arm + 1 cancel + 1 sleep per round.
  return {"timeout_storm", kRounds * 3.0 / w, w, sim::to_seconds(s.now()),
          s.events_processed()};
}

ShapeResult pingpong() {
  const int kMsgs = 1'000'000;
  Simulator s;
  bench::SimSpeedScope speed(s);
  sim::Channel<int> a(s);
  sim::Channel<int> b(s);
  auto ping = [](sim::Channel<int>& tx, sim::Channel<int>& rx,
                 int n) -> Task<void> {
    for (int i = 0; i < n; ++i) {
      tx.send(i);
      (void)co_await rx.recv();
    }
  };
  auto pong = [](sim::Channel<int>& rx, sim::Channel<int>& tx,
                 int n) -> Task<void> {
    for (int i = 0; i < n; ++i) {
      (void)co_await rx.recv();
      tx.send(i);
    }
  };
  s.spawn(ping(a, b, kMsgs));
  s.spawn(pong(a, b, kMsgs));
  const auto t0 = Clock::now();
  s.run();
  const double w = wall_since(t0);
  return {"pingpong", static_cast<double>(s.events_processed()) / w, w,
          sim::to_seconds(s.now()), s.events_processed()};
}

ShapeResult fanout() {
  const int kTasks = 100'000;
  Simulator s;
  bench::SimSpeedScope speed(s);
  sim::Rng rng(3);
  auto worker = [](Simulator& sm, Duration d) -> Task<void> {
    for (int r = 0; r < 10; ++r) co_await sm.sleep(d);
  };
  for (int i = 0; i < kTasks; ++i) {
    s.spawn(worker(s, 1000 + rng.next_below(100000)));
  }
  const auto t0 = Clock::now();
  s.run();
  const double w = wall_since(t0);
  return {"fanout", static_cast<double>(s.events_processed()) / w, w,
          sim::to_seconds(s.now()), s.events_processed()};
}

/// A timer that re-arms itself into a later burst until `left` runs out.
struct BurstRearm {
  Simulator* sim;
  sim::Rng* rng;
  int* left;
  void operator()() const {
    if (--*left < 0) return;
    const sim::Time burst = sim->now() - sim->now() % sim::milliseconds(1) +
                            sim::milliseconds(1 + rng->next_below(30));
    sim->call_at(burst + rng->next_below(3'000), *this);
  }
};

ShapeResult clustered() {
  const int kEvents = 2'000'000;
  const int kBursts = 30;
  const int kPerBurst = 100;
  Simulator s;
  bench::SimSpeedScope speed(s);
  sim::Rng rng(11);
  int left = kEvents - kBursts * kPerBurst;
  for (int b = 0; b < kBursts; ++b) {
    for (int i = 0; i < kPerBurst; ++i) {
      s.call_at(sim::milliseconds(b) + rng.next_below(3'000),
                BurstRearm{&s, &rng, &left});
    }
  }
  const auto t0 = Clock::now();
  s.run();
  const double w = wall_since(t0);
  return {"clustered", static_cast<double>(s.events_processed()) / w, w,
          sim::to_seconds(s.now()), s.events_processed()};
}

/// Streams `kMsgs` large messages host 0 -> host 1 through one connection.
ShapeResult paced_transfer() {
  const int kMsgs = 200;
  const std::uint64_t kBytes = 64ull << 20;
  Simulator s;
  bench::SimSpeedScope speed(s);
  net::Fabric fabric(s, net::FabricParams{}, 2);
  net::Connection conn(fabric, 0, 1, net::LinkParams{});
  for (int i = 0; i < kMsgs; ++i) {
    net::Message m;
    m.bytes = kBytes;
    conn.post(std::move(m));
  }
  auto drain = [](net::Connection& c, int n) -> Task<void> {
    for (int i = 0; i < n; ++i) (void)co_await c.inbox().recv();
  };
  const auto t0 = Clock::now();
  s.run_task(drain(conn, kMsgs));
  const double w = wall_since(t0);
  return {"paced_exact", static_cast<double>(s.events_processed()) / w, w,
          sim::to_seconds(s.now()), s.events_processed()};
}

}  // namespace

int main(int argc, char** argv) {
  // --floor N: exit nonzero unless every queue shape clears N events (or
  // ops) per second — a coarse CI regression tripwire, set generously.
  double floor_ops = 0;
  bench::Cli({{"--floor", bench::number(&floor_ops, 0), "ops/s"}})
      .parse(argc, argv);

  std::vector<ShapeResult> results;
  results.push_back(timer_grid());
  results.push_back(timer_churn());
  results.push_back(timeout_storm());
  results.push_back(pingpong());
  results.push_back(fanout());
  results.push_back(clustered());
  results.push_back(paced_transfer());

  bench::Table t({"shape", "Mops/s", "wall_s", "sim_s", "events",
                  "wall_per_sim_sec"});
  char buf[64];
  for (const auto& r : results) {
    std::vector<std::string> row;
    row.push_back(r.name);
    std::snprintf(buf, sizeof(buf), "%.3f", r.ops_per_sec / 1e6);
    row.push_back(buf);
    std::snprintf(buf, sizeof(buf), "%.4f", r.wall_s);
    row.push_back(buf);
    std::snprintf(buf, sizeof(buf), "%.4f", r.sim_s);
    row.push_back(buf);
    row.push_back(std::to_string(r.events));
    std::snprintf(buf, sizeof(buf), "%.6f",
                  r.sim_s > 0 ? r.wall_s / r.sim_s : 0.0);
    row.push_back(buf);
    t.add_row(std::move(row));
  }
  t.print();

  bench::JsonReport report("micro_sim");
  report.set("floor_ops", floor_ops);
  report.add_table("results", t);
  report.with_sim_speed().write();

  bool ok = true;
  for (const auto& r : results) {
    // The paced shape measures model cost, not raw queue speed; the floor
    // applies to the six queue shapes.
    if (r.name.rfind("paced", 0) == 0) continue;
    if (r.ops_per_sec < floor_ops) {
      std::fprintf(stderr, "FAIL: %s at %.0f ops/s below floor %.0f\n",
                   r.name.c_str(), r.ops_per_sec, floor_ops);
      ok = false;
    }
  }
  return ok ? 0 : 1;
}
