#include "comm/topology.hpp"

#include <cstdio>

namespace sparker::comm {

std::vector<ExecutorInfo> enumerate_executors(int hosts, int per_host) {
  std::vector<ExecutorInfo> out;
  out.reserve(static_cast<std::size_t>(hosts) * static_cast<std::size_t>(per_host));
  int id = 0;
  // Round-robin registration order: one executor from each host, repeated.
  for (int slot = 0; slot < per_host; ++slot) {
    for (int h = 0; h < hosts; ++h) {
      ExecutorInfo e;
      e.executor_id = id++;
      e.host = h;
      char buf[32];
      std::snprintf(buf, sizeof(buf), "node%03d", h);
      e.hostname = buf;
      out.push_back(std::move(e));
    }
  }
  return out;
}

void sort_ring_order(std::vector<ExecutorInfo>& e, bool by_hostname) {
  std::sort(e.begin(), e.end(),
            [by_hostname](const ExecutorInfo& a, const ExecutorInfo& b) {
              if (by_hostname && a.hostname != b.hostname) {
                return a.hostname < b.hostname;
              }
              return a.executor_id < b.executor_id;
            });
}

namespace {

std::vector<int> hosts_in_ring_order(std::vector<ExecutorInfo> e,
                                     bool by_hostname) {
  sort_ring_order(e, by_hostname);
  std::vector<int> map;
  map.reserve(e.size());
  for (const auto& x : e) map.push_back(x.host);
  return map;
}

}  // namespace

std::vector<int> rank_map_by_executor_id(const std::vector<ExecutorInfo>& e) {
  return hosts_in_ring_order(e, /*by_hostname=*/false);
}

std::vector<int> rank_map_by_hostname(const std::vector<ExecutorInfo>& e) {
  return hosts_in_ring_order(e, /*by_hostname=*/true);
}

int ring_successor_executor(const std::vector<ExecutorInfo>& members,
                            const ExecutorInfo& leaving, bool by_hostname) {
  if (members.empty()) return -1;
  std::vector<ExecutorInfo> order = members;
  order.push_back(leaving);
  sort_ring_order(order, by_hostname);
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (order[i].executor_id == leaving.executor_id) {
      return order[(i + 1) % order.size()].executor_id;
    }
  }
  return -1;
}

int count_inter_host_ring_edges(const std::vector<int>& rank_to_host) {
  const int n = static_cast<int>(rank_to_host.size());
  int crossings = 0;
  for (int r = 0; r < n; ++r) {
    if (rank_to_host[static_cast<std::size_t>(r)] !=
        rank_to_host[static_cast<std::size_t>((r + 1) % n)]) {
      ++crossings;
    }
  }
  return crossings;
}

}  // namespace sparker::comm
