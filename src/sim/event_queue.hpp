#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/types.hpp"

/// \file event_queue.hpp
/// Calendar event queue for the discrete-event kernel.
///
/// The queue yields events in strict (time, insertion-seq) order — the same
/// total order the old binary heap produced — so any consumer observes a
/// bit-identical schedule. Internally it is split by temporal distance:
///
///   - a FIFO ring for events at the instant currently being executed
///     (`t == cursor`). The dominant pattern — schedule_now / same-instant
///     wakeups — costs one ring slot and no comparisons, and FIFO order *is*
///     seq order because seq is monotonically assigned.
///   - a near window of `kBuckets` buckets of power-of-two width, with a
///     64-bit-word occupancy bitmap. Each bucket is a small binary min-heap
///     on (t, seq): pushes are amortized O(1) sift-ups, extraction is
///     O(log k) over a bucket-local k, and — unlike sort-on-visit — the
///     cost is insensitive to pushes interleaving with drains.
///   - a far tier for events beyond the window: a *rung* of `kBuckets`
///     unsorted bins, each one window span wide, and an unsorted *top* for
///     events past the rung. When the near window drains it is re-anchored
///     at the rung's first non-empty bin and that bin moves in whole; the
///     top is re-filed into a new rung only when the rung runs dry. Far
///     events are thus filed twice at most and never rescanned per rebase.
///
/// The bucket width follows the measured occupancy of the buckets being
/// staged (see retune()), so a staged bucket holds a few events whether the
/// pending set is a dense burst or a sparse timer horizon.
///
/// Invariants relied on for correctness (see DESIGN.md §12): pushes never
/// predate the simulator clock, the cursor never exceeds the earliest queued
/// event, and all far events lie at or beyond the current window end.

namespace sparker::sim {

/// Event-kind tag: what `QueuedEvent::payload` refers to.
inline constexpr std::uint32_t kEventCoro = 0;   ///< coroutine handle address
inline constexpr std::uint32_t kEventTimer = 1;  ///< timer-node pool index

/// Slim POD event record (32 bytes). Callbacks live out-of-line in the
/// simulator's timer-node pool; `gen` detects stale (cancelled-and-recycled)
/// timer entries at pop time.
struct QueuedEvent {
  Time t;
  std::uint64_t seq;
  std::uint64_t payload;
  std::uint32_t gen;
  std::uint32_t kind;
};

/// Growable power-of-two ring buffer of events.
class EventFifo {
 public:
  bool empty() const noexcept { return head_ == tail_; }
  std::size_t size() const noexcept { return tail_ - head_; }
  const QueuedEvent& front() const noexcept { return buf_[head_ & mask_]; }

  void push(const QueuedEvent& ev) {
    if (tail_ - head_ == buf_.size()) grow();
    buf_[tail_++ & mask_] = ev;
  }

  QueuedEvent pop() noexcept { return buf_[head_++ & mask_]; }

 private:
  void grow() {
    std::vector<QueuedEvent> next(buf_.size() * 2);
    const std::size_t n = tail_ - head_;
    for (std::size_t i = 0; i < n; ++i) next[i] = buf_[(head_ + i) & mask_];
    buf_ = std::move(next);
    mask_ = buf_.size() - 1;
    head_ = 0;
    tail_ = n;
  }

  std::vector<QueuedEvent> buf_ = std::vector<QueuedEvent>(256);
  std::size_t mask_ = 255;
  std::size_t head_ = 0;
  std::size_t tail_ = 0;
};

class CalendarQueue {
 public:
  static constexpr std::size_t kLogBuckets = 11;
  static constexpr std::size_t kBuckets = std::size_t{1} << kLogBuckets;
  static constexpr std::size_t kWords = kBuckets / 64;
  static constexpr unsigned kMinLogWidth = 6;    ///< 64 ns buckets
  static constexpr unsigned kMaxLogWidth = 24;   ///< ~16.8 ms buckets
  /// Stages per width-control sample window.
  static constexpr std::size_t kSampleStages = 64;

  CalendarQueue() : buckets_(kBuckets), rung_(kBuckets) {}

  bool empty() const noexcept { return size_ == 0; }
  std::size_t size() const noexcept { return size_; }
  /// Current bucket width, as log2 of nanoseconds (tests and diagnostics).
  unsigned log_width() const noexcept { return log_width_; }

  /// Installs a stale-entry predicate consulted when far events migrate into
  /// the near window or the top is re-filed into a rung: entries reported
  /// stale are dropped instead of staged, reclaiming queue space for
  /// cancelled timers before their deadline.
  /// Dropping a stale entry can never change the dispatch order (stale
  /// entries are skipped at pop time anyway); it only shrinks size(). The
  /// simulator disables the filter while a SimProbe is attached so sampled
  /// queue depths keep the legacy heap's accounting.
  void set_stale_filter(bool (*is_stale)(const QueuedEvent&, const void*),
                        const void* ctx) noexcept {
    stale_ = is_stale;
    stale_ctx_ = ctx;
  }

  /// Inserts an event. `now` is the simulator clock, needed only to
  /// re-anchor the window when pushing into an empty queue; callers
  /// guarantee `ev.t >= now`.
  void push(const QueuedEvent& ev, Time now) {
    if (size_ == 0) anchor(now);
    ++size_;
    if (ev.t == cursor_) {
      fifo_.push(ev);
      return;
    }
    if (ev.t < window_end_) {
      if (ev.t >= base_) [[likely]] {
        bucket_insert(ev);
        return;
      }
      // A rebase with no pop after it (run_until stopping short of the next
      // event) left the window anchored past the clock: move it back.
      rebucket(log_width_);
      if (ev.t < window_end_) {
        bucket_insert(ev);
        return;
      }
    }
    far_push(ev);
  }

  /// Earliest queued event time, or kTimeNever when empty. May migrate far
  /// events into the near window and — with a stale filter installed — drop
  /// reclaimed entries, so it can empty the queue; it never reorders a live
  /// event. Callers must treat kTimeNever as "nothing to pop".
  Time next_time() {
    if (!fifo_.empty()) return cursor_;
    while (near_count_ == 0) {
      if (size_ == 0) return kTimeNever;
      rebase();
    }
    return buckets_[first_occupied_bucket()].front().t;
  }

  /// Removes and returns the earliest event (ties broken by seq, ascending).
  /// Precondition: a preceding next_time() returned != kTimeNever with no
  /// mutation in between (or the queue is non-empty and no stale filter is
  /// installed).
  QueuedEvent pop() {
    if (fifo_.empty()) stage_next_run();
    --size_;
    return fifo_.pop();
  }

  /// Best-effort pointer to the event likely to pop next, or nullptr. Valid
  /// only until the next queue mutation; intended for prefetching payload
  /// storage while the current event executes. May occasionally point at a
  /// later event (never at freed memory), which only costs a wasted
  /// prefetch.
  /// Fills `out` with up to `cap` such hints (the heap top of the next
  /// bucket holds the next few candidates). Returns the count.
  std::size_t next_hints(const QueuedEvent** out,
                         std::size_t cap) const noexcept {
    std::size_t n = 0;
    if (!fifo_.empty() && n < cap) out[n++] = &fifo_.front();
    if (hint_bucket_ != kBuckets) {
      const auto& v = buckets_[hint_bucket_];
      for (std::size_t i = 0; i < v.size() && n < cap; ++i) out[n++] = &v[i];
    }
    return n;
  }

 private:
  /// Re-anchors an empty queue at the simulator clock so bucket indexing
  /// stays non-negative for all future (>= now) pushes.
  void anchor(Time now) noexcept {
    cursor_ = now;
    set_window(now);
  }

  /// Places bucket 0 at the width-aligned slot holding `start`.
  void set_window(Time start) noexcept {
    const Time width = Time{1} << log_width_;
    base_ = start & ~(width - 1);
    window_end_ = base_ + (width << kLogBuckets);
    scan_word_ = 0;
  }

  /// Index of the first non-empty bucket. Precondition: near_count_ > 0.
  std::size_t first_occupied_bucket() {
    std::size_t w = scan_word_;
    while (occ_[w] == 0) ++w;
    scan_word_ = w;
    return (w << 6) + static_cast<std::size_t>(std::countr_zero(occ_[w]));
  }

  /// Heap comparator yielding a min-heap on (t, seq) with the std::*_heap
  /// algorithms (which build max-heaps under operator<).
  struct LaterFirst {
    bool operator()(const QueuedEvent& a, const QueuedEvent& b) const noexcept {
      if (a.t != b.t) return a.t > b.t;
      return a.seq > b.seq;
    }
  };

  void bucket_insert(const QueuedEvent& ev) {
    const std::size_t b =
        static_cast<std::size_t>((ev.t - base_) >> log_width_);
    auto& v = buckets_[b];
    v.push_back(ev);
    std::push_heap(v.begin(), v.end(), LaterFirst{});
    occ_[b >> 6] |= std::uint64_t{1} << (b & 63);
    if ((b >> 6) < scan_word_) scan_word_ = b >> 6;
    ++near_count_;
  }

  /// Files an event at or past the window end into the rung or the top.
  /// While the rung holds events, every top event lies past its range. An
  /// empty rung's range is stale, so the event goes to the top, to be filed
  /// when the next rebase rebuilds the rung.
  void far_push(const QueuedEvent& ev) {
    if (rung_count_ > 0) {
      if (ev.t < rung_base_) [[unlikely]] {
        // Only after the window moved back before the rung (a push after a
        // rebase with no pop after it).
        dissolve_rung();
      } else if (ev.t < rung_end_) {
        const std::size_t i =
            static_cast<std::size_t>((ev.t - rung_base_) >> rung_log_width_);
        rung_[i].push_back(ev);
        ++rung_count_;
        if (i < rung_pos_) rung_pos_ = i;
        return;
      }
    }
    if (ev.t < top_min_) top_min_ = ev.t;
    top_.push_back(ev);
  }

  /// Moves every rung event to the top, to be re-filed by the next rebase.
  /// Rare paths like this one stay out of line so push and pop inline small.
  [[gnu::noinline]] void dissolve_rung() {
    for (std::size_t i = rung_pos_; i < kBuckets; ++i) {
      for (const QueuedEvent& ev : rung_[i]) {
        if (ev.t < top_min_) top_min_ = ev.t;
        top_.push_back(ev);
      }
      rung_[i].clear();
    }
    rung_count_ = 0;
    rung_base_ = 0;
    rung_end_ = 0;
  }

  /// True when the stale filter reports `ev`, which the caller then drops;
  /// it no longer counts in size().
  bool reclaim(const QueuedEvent& ev) {
    if (!stale_ || !stale_(ev, stale_ctx_)) return false;
    --size_;
    return true;
  }

  /// Moves the earliest run (all events sharing the minimum time) from the
  /// near window into the FIFO and advances the cursor to that time. Heap
  /// pops yield ascending seq within the run, so FIFO order is pop order.
  void stage_next_run() {
    while (near_count_ == 0) rebase();
    const std::size_t b = first_occupied_bucket();
    auto& v = buckets_[b];
    const std::size_t depth = v.size();
    const Time t = v.front().t;
    std::size_t moved = 0;
    do {
      fifo_.push(v.front());
      std::pop_heap(v.begin(), v.end(), LaterFirst{});
      v.pop_back();
      ++moved;
    } while (!v.empty() && v.front().t == t);
    near_count_ -= moved;
    if (v.empty()) occ_[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
    cursor_ = t;
    // The run itself is left out of the sample: same-instant events share
    // a bucket at any width, so only the other instants it held count.
    depth_sum_ += depth - moved + 1;
    if (++stages_ == kSampleStages) retune();
    hint_bucket_ = near_count_ > 0 ? first_occupied_bucket() : kBuckets;
  }

  /// Width control on the sampled occupancy. A stage that finds n distinct
  /// instants in its bucket samples n, so with Poisson arrivals at lambda
  /// events per bucket the mean sample is 1 + lambda/2. The band keeps
  /// lambda between 1 and 6 (mean 1.5 to 4); leaving it re-buckets at a
  /// width that puts lambda back near 2-4. Doubling or halving a width can
  /// move the mean by at most about 2x, so one correction cannot overshoot
  /// the band on the other side.
  [[gnu::noinline]] void retune() {
    const std::size_t sum = depth_sum_;
    const std::size_t rebases = rebases_;
    stages_ = 0;
    depth_sum_ = 0;
    rebases_ = 0;
    unsigned lw = log_width_;
    if (sum > 4 * kSampleStages) {
      std::size_t excess = sum - kSampleStages;  // samples x (mean - 1)
      while (excess > 2 * kSampleStages && lw > kMinLogWidth) {
        excess /= 2;
        --lw;
      }
    } else if (2 * sum < 3 * kSampleStages && rebases >= kSampleStages / 8 &&
               lw < kMaxLogWidth) {
      ++lw;
    }
    if (lw != log_width_) rebucket(lw);
  }

  /// Re-buckets the near window at width 2^lw, anchored at the cursor.
  /// Events past the new window end join the far tier; far events inside
  /// it migrate in.
  [[gnu::noinline]] void rebucket(unsigned lw) {
    spill_.clear();
    for (std::size_t w = 0; w < kWords; ++w) {
      for (std::uint64_t bits = occ_[w]; bits != 0; bits &= bits - 1) {
        auto& v = buckets_[(w << 6) +
                           static_cast<std::size_t>(std::countr_zero(bits))];
        spill_.insert(spill_.end(), v.begin(), v.end());
        v.clear();
      }
      occ_[w] = 0;
    }
    near_count_ = 0;
    log_width_ = lw;
    set_window(cursor_);
    for (const QueuedEvent& ev : spill_) {
      if (ev.t < window_end_) {
        bucket_insert(ev);
      } else {
        far_push(ev);
      }
    }
    migrate_far();
  }

  /// Re-anchors the drained near window at the rung's first non-empty bin,
  /// which holds the earliest far event, and migrates the far events that
  /// fit. The rung is rebuilt from the top when it is empty, and re-filed
  /// when the width has narrowed below its bins: the window must cover a
  /// whole bin, or each bin would be rescanned once per window.
  [[gnu::noinline]] void rebase() {
    ++rebases_;
    if (rung_count_ > 0 && rung_log_width_ > log_width_ + kLogBuckets) {
      dissolve_rung();
    }
    if (rung_count_ == 0) {
      build_rung();
      if (rung_count_ == 0) return;  // every top entry was stale
    }
    while (rung_[rung_pos_].empty()) ++rung_pos_;
    set_window(rung_base_ + (Time{rung_pos_} << rung_log_width_));
    migrate_far();
  }

  /// Re-anchors the rung at the earliest top event, one bin per near
  /// window span at the current width, and files every top event that
  /// falls in its range. The stale filter sees every top entry.
  [[gnu::noinline]] void build_rung() {
    rung_log_width_ = log_width_ + static_cast<unsigned>(kLogBuckets);
    const Time bin = Time{1} << rung_log_width_;
    rung_base_ = top_min_ & ~(bin - 1);
    rung_end_ = rung_base_ + (bin << kLogBuckets);
    rung_pos_ = 0;
    std::size_t kept = 0;
    Time min = kTimeNever;
    for (const QueuedEvent& ev : top_) {
      if (reclaim(ev)) continue;
      if (ev.t < rung_end_) {
        rung_[static_cast<std::size_t>((ev.t - rung_base_) >> rung_log_width_)]
            .push_back(ev);
        ++rung_count_;
      } else {
        if (ev.t < min) min = ev.t;
        top_[kept++] = ev;
      }
    }
    top_.resize(kept);
    top_min_ = min;
  }

  /// Moves every far event before the window end into the near window: the
  /// rung bins the window overlaps (the last one only in part), then — when
  /// the window reaches past the rung — the top.
  [[gnu::noinline]] void migrate_far() {
    const Time bin = Time{1} << rung_log_width_;
    for (std::size_t i = rung_pos_; rung_count_ > 0 && i < kBuckets; ++i) {
      const Time lo = rung_base_ + (Time{i} << rung_log_width_);
      if (lo >= window_end_) break;
      auto& v = rung_[i];
      const bool whole = lo + bin <= window_end_;
      std::size_t kept = 0;
      for (const QueuedEvent& ev : v) {
        if (!whole && ev.t >= window_end_) {
          v[kept++] = ev;
        } else if (!reclaim(ev)) {
          bucket_insert(ev);
        }
      }
      rung_count_ -= v.size() - kept;
      v.resize(kept);
    }
    if (top_min_ >= window_end_) return;
    std::size_t kept = 0;
    Time min = kTimeNever;
    for (const QueuedEvent& ev : top_) {
      if (ev.t >= window_end_) {
        if (ev.t < min) min = ev.t;
        top_[kept++] = ev;
      } else if (!reclaim(ev)) {
        bucket_insert(ev);
      }
    }
    top_.resize(kept);
    top_min_ = min;
  }

  EventFifo fifo_;
  std::vector<std::vector<QueuedEvent>> buckets_;
  std::array<std::uint64_t, kWords> occ_{};
  std::vector<std::vector<QueuedEvent>> rung_;  ///< unsorted far bins
  std::vector<QueuedEvent> top_;    ///< unsorted, past the rung's range
  std::vector<QueuedEvent> spill_;  ///< rebucket scratch

  Time cursor_ = 0;      ///< time of the instant currently draining via fifo_
  Time base_ = 0;        ///< start of the near window (bucket 0)
  Time window_end_ = Time{1} << (13 + kLogBuckets);
  Time rung_base_ = 0;         ///< start of rung bin 0
  Time rung_end_ = 0;          ///< end of the rung's range
  Time top_min_ = kTimeNever;  ///< earliest top event
  unsigned rung_log_width_ = 0;
  std::size_t rung_pos_ = 0;    ///< no rung bin before it holds events
  std::size_t rung_count_ = 0;
  unsigned log_width_ = 13;  ///< initial 8.2 us buckets, ~16.8 ms window
  std::size_t scan_word_ = 0;
  std::size_t size_ = 0;
  std::size_t near_count_ = 0;
  std::size_t stages_ = 0;     ///< stages in the current sample window
  std::size_t depth_sum_ = 0;  ///< their summed occupancy samples
  std::size_t rebases_ = 0;    ///< rebases in the current sample window
  std::size_t hint_bucket_ = kBuckets;  ///< kBuckets = no hint.
  bool (*stale_)(const QueuedEvent&, const void*) = nullptr;
  const void* stale_ctx_ = nullptr;
};

}  // namespace sparker::sim
