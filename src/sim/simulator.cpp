#include "sim/simulator.hpp"

#include <exception>

#include "sim/sync.hpp"

namespace sparker::sim {

void Simulator::fire_timer(std::uint32_t idx) {
  TimerNode& n = nodes_[idx];
  // Detach from its cancellation group (if any) and recycle the slot
  // *before* invoking: the callback may arm new timers (growing the pool
  // and invalidating `n`) or cancel its own group, so the closure must be
  // moved out first and the node must already be free.
  if (n.group != kInvalid) {
    TimerGroup& g = groups_[n.group];
    if (n.prev != kInvalid) {
      nodes_[n.prev].next = n.next;
    } else {
      g.head = n.next;
    }
    if (n.next != kInvalid) nodes_[n.next].prev = n.prev;
    n.group = kInvalid;
  }
  InlineFn fn = std::move(n.fn);
  ++n.gen;
  n.next_free = free_node_;
  free_node_ = idx;
  fn();
}

void Simulator::dispatch(const QueuedEvent& ev) {
  --live_;
  now_ = ev.t;
  ++processed_;
  if (ev.kind == kEventCoro) {
    std::coroutine_handle<>::from_address(
        reinterpret_cast<void*>(ev.payload))
        .resume();
  } else {
    fire_timer(static_cast<std::uint32_t>(ev.payload));
  }
  if (probe_ && --probe_countdown_ == 0) {
    probe_countdown_ = probe_stride_;
    probe_->on_step(now_, processed_, queue_.size());
  }
}

bool Simulator::step() {
  // Stale (cancelled) timer entries are discarded without running, without
  // advancing the clock and without counting as processed — a disarmed
  // timeout must not stretch the simulation's end time when the queue
  // drains.
  for (;;) {
    // next_time() (not empty()) is the gate: with no probe attached it may
    // reclaim stale far entries while migrating, emptying the queue.
    if (queue_.next_time() == kTimeNever) return false;
    const QueuedEvent ev = queue_.pop();
    if (!entry_live(ev)) {
      --stale_pending_;
      continue;
    }
    // Hide the (random-access) timer-node fetches of upcoming events under
    // the current event's work. A stale hint only wastes a prefetch.
    const QueuedEvent* nx[3];
    const std::size_t hints = queue_.next_hints(nx, 3);
    for (std::size_t i = 0; i < hints; ++i) {
      if (nx[i]->kind == kEventCoro) {
        __builtin_prefetch(reinterpret_cast<void*>(nx[i]->payload));
      } else if (nx[i]->payload < nodes_.size()) {
        __builtin_prefetch(&nodes_[nx[i]->payload]);
      }
    }
    dispatch(ev);
    return true;
  }
}

std::uint64_t Simulator::run() {
  std::uint64_t n = 0;
  while (step()) ++n;
  return n;
}

std::uint64_t Simulator::run_until(Time deadline) {
  std::uint64_t n = 0;
  for (;;) {
    const Time nt = queue_.next_time();
    if (nt == kTimeNever || nt > deadline) break;
    const QueuedEvent ev = queue_.pop();
    if (!entry_live(ev)) {
      --stale_pending_;
      continue;
    }
    dispatch(ev);
    ++n;
  }
  if (now_ < deadline && live_ == 0) now_ = deadline;
  return n;
}

namespace {

Task<void> run_one(const std::function<Task<void>(int)>& fn, int i,
                   WaitGroup& wg, std::exception_ptr& error) {
  try {
    co_await fn(i);
  } catch (...) {
    if (!error) error = std::current_exception();
  }
  wg.done();
}

}  // namespace

Task<void> run_each(Simulator& sim, int count,
                    std::function<Task<void>(int)> fn) {
  WaitGroup wg(sim);
  wg.add(count);
  std::exception_ptr error;
  for (int i = 0; i < count; ++i) sim.spawn(run_one(fn, i, wg, error));
  co_await wg.wait();
  if (error) std::rethrow_exception(error);
}

}  // namespace sparker::sim
