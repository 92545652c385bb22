#pragma once

#include <algorithm>
#include <string>
#include <vector>

/// \file topology.hpp
/// Executor placement and rank ordering (paper Section 4.2: "Sorting the
/// executors by their hostname, which is called topology-awareness, is an
/// effective way to minimize inter-node communication amount").

namespace sparker::comm {

/// A registered executor, as the driver sees it when executors come up.
struct ExecutorInfo {
  int executor_id = 0;    ///< registration order (roughly round-robin).
  int host = 0;           ///< physical node index.
  std::string hostname;   ///< e.g. "node03".
};

/// Enumerates `hosts * per_host` executors in registration order, which in
/// practice interleaves hosts (executors on different nodes come up
/// concurrently and register round-robin).
std::vector<ExecutorInfo> enumerate_executors(int hosts, int per_host);

/// Sorts `e` into ring rank order: by (hostname, executor id) when
/// `by_hostname` (topology aware), else by executor id. The one ring-order
/// rule: the rank maps below, `ring_successor_executor` and the engine's
/// ring formation all sort with it.
void sort_ring_order(std::vector<ExecutorInfo>& e, bool by_hostname);

/// Rank -> host map with ranks assigned in executor-id order (NOT
/// topology aware): ring neighbours are almost always on different hosts.
std::vector<int> rank_map_by_executor_id(const std::vector<ExecutorInfo>& e);

/// Rank -> host map with executors sorted by hostname (topology aware):
/// the ring visits each node's executors consecutively, so only one link
/// per node crosses the network.
std::vector<int> rank_map_by_hostname(const std::vector<ExecutorInfo>& e);

/// Number of ring edges that cross between different hosts for a mapping.
int count_inter_host_ring_edges(const std::vector<int>& rank_to_host);

/// Executor id of the member that follows `leaving` in the circular rank
/// order the next formation will use over `members` (which must NOT contain
/// `leaving`): the natural home for a drained node's reduce-scatter
/// partials. `by_hostname` selects the topology-aware order. Returns -1
/// when `members` is empty.
int ring_successor_executor(const std::vector<ExecutorInfo>& members,
                            const ExecutorInfo& leaving, bool by_hostname);

}  // namespace sparker::comm
