#pragma once

#include <cstdint>
#include <memory>

#include "engine/cluster.hpp"

/// \file broadcast.hpp
/// Torrent-style broadcast: the driver seeds one executor with the blob,
/// then a binomial relay over the scalable communicator spreads it to all
/// executors (Spark's TorrentBroadcast has the same log-depth, NIC-bound
/// behaviour). The real payload rides along, shared and uncopied, so
/// downstream code can use it; time is charged from the modeled byte count.

namespace sparker::engine {

namespace detail {

/// broadcast_value over the erased value; compiled in aggregate.cpp.
/// `copy` runs once per storing executor, and once per later joiner.
sim::Task<void> broadcast_erased(Cluster& cl, std::shared_ptr<void> value,
                                 std::uint64_t bytes, std::int64_t store_key,
                                 JobOptions opt, CopyValue copy);

}  // namespace detail

/// Broadcasts `value` (modeled wire size `bytes`) from the driver to every
/// executor. Completes when the slowest executor holds it. If
/// `store_key >= 0` every executor's mutable object manager stores its own
/// copy of the value under that key; the relay itself copies nothing.
/// Scheduled jobs pass their JobOptions so the relay rides the job's
/// private ring instead of the shared communicator.
template <typename V>
sim::Task<void> broadcast_value(Cluster& cl, std::shared_ptr<V> value,
                                std::uint64_t bytes,
                                std::int64_t store_key = -1,
                                const JobOptions& opt = {}) {
  return detail::broadcast_erased(
      cl, std::move(value), bytes, store_key, opt,
      [](const void* v) -> std::shared_ptr<void> {
        return std::make_shared<V>(*static_cast<const V*>(v));
      });
}

}  // namespace sparker::engine
