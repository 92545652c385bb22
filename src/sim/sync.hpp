#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <deque>
#include <functional>

#include "sim/simulator.hpp"
#include "sim/task.hpp"

/// \file sync.hpp
/// Synchronization primitives for simulated processes: counting semaphore
/// (FIFO), wait group, and an analytic FIFO queueing server used to model
/// rate-limited devices (NICs, sockets, disks, the driver's dispatch loop).

namespace sparker::sim {

/// Counting semaphore with FIFO wakeup order.
class Semaphore {
 public:
  Semaphore(Simulator& sim, std::int64_t initial)
      : sim_(&sim), count_(initial) {}
  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  /// Awaitable acquire of one permit.
  auto acquire() { return AcquireAwaiter{*this}; }

  /// Releases one permit; wakes the longest-waiting acquirer, if any.
  void release() {
    if (!waiters_.empty()) {
      auto h = waiters_.front();
      waiters_.pop_front();
      sim_->schedule_now(h);  // permit is handed directly to the waiter
    } else {
      ++count_;
    }
  }

  std::int64_t available() const noexcept { return count_; }
  std::size_t waiting() const noexcept { return waiters_.size(); }

 private:
  struct AcquireAwaiter {
    Semaphore& sem;
    bool await_ready() {
      if (sem.count_ > 0) {
        --sem.count_;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      sem.waiters_.push_back(h);
    }
    void await_resume() const noexcept {}
  };

  Simulator* sim_;
  std::int64_t count_;
  std::deque<std::coroutine_handle<>> waiters_;
};

/// RAII permit holder for a Semaphore, for exception safety inside tasks.
class SemaphoreGuard {
 public:
  explicit SemaphoreGuard(Semaphore& s) noexcept : sem_(&s) {}
  SemaphoreGuard(SemaphoreGuard&& o) noexcept
      : sem_(std::exchange(o.sem_, nullptr)) {}
  SemaphoreGuard(const SemaphoreGuard&) = delete;
  SemaphoreGuard& operator=(const SemaphoreGuard&) = delete;
  ~SemaphoreGuard() {
    if (sem_) sem_->release();
  }

 private:
  Semaphore* sem_;
};

/// Golang-style wait group: `add` N units of work, workers call `done`,
/// waiters suspend until the count returns to zero.
class WaitGroup {
 public:
  explicit WaitGroup(Simulator& sim) : sim_(&sim) {}
  WaitGroup(const WaitGroup&) = delete;
  WaitGroup& operator=(const WaitGroup&) = delete;

  void add(std::int64_t n = 1) { count_ += n; }

  void done() {
    assert(count_ > 0 && "WaitGroup::done without matching add");
    if (--count_ == 0) {
      for (auto h : waiters_) sim_->schedule_now(h);
      waiters_.clear();
    }
  }

  auto wait() { return WaitAwaiter{*this}; }

  std::int64_t count() const noexcept { return count_; }

 private:
  struct WaitAwaiter {
    WaitGroup& wg;
    bool await_ready() const noexcept { return wg.count_ == 0; }
    void await_suspend(std::coroutine_handle<> h) { wg.waiters_.push_back(h); }
    void await_resume() const noexcept {}
  };

  Simulator* sim_;
  std::int64_t count_ = 0;
  std::deque<std::coroutine_handle<>> waiters_;
};

/// Fork-join: runs `fn(i)` for every i in [0, count) as concurrent detached
/// tasks, spawned in index order, and completes when all have. A detached
/// task's escaped exception would abort the process (sim::Task policy), so
/// the first failure is captured and rethrown here once every task has
/// finished or failed. Compiled in simulator.cpp.
Task<void> run_each(Simulator& sim, int count,
                    std::function<Task<void>(int)> fn);

/// Analytic FIFO queueing server.
///
/// Models a device that serves work items one at a time in arrival order
/// (store-and-forward NIC port, driver dispatch loop, disk). Instead of
/// simulating the queue with events, each enqueue computes the departure
/// time in O(1):   depart = max(arrival, busy_until) + service.
///
/// Callers that need backpressure simply `co_await sim.sleep_until(depart)`.
/// Correctness requires enqueue calls to be made in non-decreasing arrival
/// time, which holds naturally when callers enqueue "now"; `enqueue_at` with
/// a future arrival is a documented approximation (the server never reorders
/// already-booked work).
class FifoServer {
 public:
  explicit FifoServer(Simulator& sim) : sim_(&sim) {}

  /// Books `service` time starting no earlier than now; returns departure.
  Time enqueue(Duration service) { return enqueue_at(sim_->now(), service); }

  /// Books `service` time starting no earlier than `arrival`.
  Time enqueue_at(Time arrival, Duration service) {
    Time start = arrival > busy_until_ ? arrival : busy_until_;
    busy_until_ = start + service;
    total_busy_ += service;
    ++jobs_;
    return busy_until_;
  }

  /// Pushes the server's availability forward to at least `t` (used to model
  /// stop-the-world pauses such as JVM garbage collection).
  void block_until(Time t) {
    if (t > busy_until_) busy_until_ = t;
  }

  Time busy_until() const noexcept { return busy_until_; }
  Duration total_busy() const noexcept { return total_busy_; }
  std::uint64_t jobs() const noexcept { return jobs_; }

 private:
  Simulator* sim_;
  Time busy_until_ = 0;
  Duration total_busy_ = 0;
  std::uint64_t jobs_ = 0;
};

}  // namespace sparker::sim
