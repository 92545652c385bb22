#include "sched/policy.hpp"

#include <cmath>
#include <limits>

namespace sparker::sched {

namespace {

/// Strict submission order.
struct Fifo final : SchedulerPolicy {
  std::size_t pick(const std::vector<QueuedJob>& queue,
                   const std::map<int, TenantUsage>&) override {
    (void)queue;
    return 0;
  }
};

/// Cycle over tenants that have queued work: the next tenant id after the
/// last dispatched one (cyclically) gets its oldest queued job. Tenants
/// submitting many jobs cannot starve tenants submitting few.
struct RoundRobin final : SchedulerPolicy {
  int last_tenant = std::numeric_limits<int>::min();

  std::size_t pick(const std::vector<QueuedJob>& queue,
                   const std::map<int, TenantUsage>&) override {
    std::size_t best = queue.size();
    int best_tenant = 0;
    // Oldest queued job of the smallest tenant id strictly greater than the
    // cursor; wrap to the smallest tenant overall when none is.
    for (int wrap = 0; wrap < 2 && best == queue.size(); ++wrap) {
      for (std::size_t i = 0; i < queue.size(); ++i) {
        const QueuedJob& q = queue[i];
        if (wrap == 0 && q.tenant <= last_tenant) continue;
        if (best == queue.size() || q.tenant < best_tenant ||
            (q.tenant == best_tenant && q.job < queue[best].job)) {
          best = i;
          best_tenant = q.tenant;
        }
      }
    }
    last_tenant = queue[best].tenant;
    return best;
  }
};

/// Weighted dominant-resource fairness over (cores, NIC bandwidth): each
/// tenant's dominant share is max(attributed core-seconds, attributed
/// net-seconds) divided by its weight; the tenant with the smallest
/// dominant share gets its oldest queued job. Because usage accumulates
/// over the campaign (finished + accrued-by-running), a tenant whose rare
/// jobs fill the cluster is amortized against tenants streaming small ones
/// — progressive filling at job granularity, non-preemptive.
struct FairShare final : SchedulerPolicy {
  std::size_t pick(const std::vector<QueuedJob>& queue,
                   const std::map<int, TenantUsage>& usage) override {
    std::size_t best = 0;
    double best_share = std::numeric_limits<double>::infinity();
    int best_tenant = 0;
    for (std::size_t i = 0; i < queue.size(); ++i) {
      const QueuedJob& q = queue[i];
      double share = 0.0;  // no attributed usage yet: most entitled.
      auto it = usage.find(q.tenant);
      if (it != usage.end()) {
        const TenantUsage& u = it->second;
        const double dominant =
            u.cores_frac > u.net_frac ? u.cores_frac : u.net_frac;
        share = dominant / (u.weight > 0 ? u.weight : 1.0);
      }
      const bool better =
          share < best_share ||
          (share == best_share &&
           (q.tenant < best_tenant ||
            (q.tenant == best_tenant && q.job < queue[best].job)));
      if (i == 0 || better) {
        best = i;
        best_share = share;
        best_tenant = q.tenant;
      }
    }
    return best;
  }
};

template <typename P>
std::unique_ptr<SchedulerPolicy> make_policy() {
  return std::make_unique<P>();
}

struct PolicyRow {
  PolicyId id;
  const char* name;
  std::unique_ptr<SchedulerPolicy> (*make)();
};

/// The policy table, one row per PolicyId in ascending order.
constexpr PolicyRow kPolicies[] = {
    {PolicyId::kFifo, "fifo", make_policy<Fifo>},
    {PolicyId::kRoundRobin, "round_robin", make_policy<RoundRobin>},
    {PolicyId::kFairShare, "fair_share", make_policy<FairShare>},
};

const PolicyRow* find_row(PolicyId id) {
  for (const PolicyRow& row : kPolicies) {
    if (row.id == id) return &row;
  }
  return nullptr;
}

}  // namespace

const char* to_string(PolicyId id) {
  const PolicyRow* row = find_row(id);
  return row ? row->name : "?";
}

PolicyId parse_policy(const std::string& name) {
  for (const PolicyRow& row : kPolicies) {
    if (name == row.name) return row.id;
  }
  throw std::invalid_argument("unknown scheduling policy: " + name);
}

double usage_decay_factor(double age_seconds, double half_life_seconds) {
  if (half_life_seconds <= 0.0 || age_seconds <= 0.0) return 1.0;
  return std::exp2(-age_seconds / half_life_seconds);
}

const PolicyRegistry& PolicyRegistry::instance() {
  static const PolicyRegistry reg;
  return reg;
}

std::unique_ptr<SchedulerPolicy> PolicyRegistry::make(PolicyId id) const {
  const PolicyRow* row = find_row(id);
  if (!row) {
    throw std::invalid_argument("policy not registered: " +
                                std::string(to_string(id)));
  }
  return row->make();
}

const char* PolicyRegistry::name(PolicyId id) const { return to_string(id); }

std::vector<PolicyId> PolicyRegistry::registered() const {
  std::vector<PolicyId> out;
  for (const PolicyRow& row : kPolicies) out.push_back(row.id);
  return out;
}

}  // namespace sparker::sched
