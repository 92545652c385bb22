#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

/// \file policy.hpp
/// Scheduling policies for the multi-tenant job scheduler, behind a
/// table-driven registry like comm::kAlgoTable: policy id ->
/// factory, so benches can sweep every registered policy and new policies
/// plug in with one table row, without touching the scheduler core.
///
/// A policy answers one question — given the queued jobs and the resource
/// usage of the jobs currently running, which queued job dispatches next?
/// Policies are deterministic: identical submission sequences produce
/// identical dispatch orders (ties break on the lowest job id).

namespace sparker::sched {

enum class PolicyId {
  kFifo = 0,        ///< strict submission order.
  kRoundRobin = 1,  ///< cycle over tenants with queued work.
  kFairShare = 2,   ///< weighted DRF over cores + NIC bandwidth.
};

const char* to_string(PolicyId id);
PolicyId parse_policy(const std::string& name);

/// One queued job as a policy sees it. Demands are normalized fractions of
/// cluster capacity: `cores_frac` of all executor cores, `net_frac` of one
/// host NIC's bandwidth-per-second (an aggregator that takes a NIC a full
/// second to move counts as 1.0).
struct QueuedJob {
  int job = 0;     ///< scheduler job id; submission order, tie-breaker.
  int tenant = 0;
  double weight = 1.0;
  double cores_frac = 0.0;
  double net_frac = 0.0;
};

/// Per-tenant resource usage as the scheduler attributes it: demand x time
/// in resource-seconds — what finished jobs consumed plus what running jobs
/// have accrued so far — plus the tenant's configured fair-share weight.
/// Usage has memory on purpose: a tenant that rarely submits but whose jobs
/// fill the cluster must not look "idle" (and maximally entitled) the
/// instant each new job arrives; its history is what fair-share amortizes.
struct TenantUsage {
  double cores_frac = 0.0;  ///< core demand x seconds held.
  double net_frac = 0.0;    ///< NIC demand x seconds held.
  double weight = 1.0;
};

/// CFS-style usage aging: the multiplier applied to accumulated
/// resource-seconds that are `age_seconds` old under an exponential decay
/// with the given half-life. 1.0 when decay is disabled (half-life <= 0) or
/// the usage is current. Decay bounds fair-share memory: month-old hogging
/// is forgiven, while recent heavy usage still counts (nearly) in full.
double usage_decay_factor(double age_seconds, double half_life_seconds);

class SchedulerPolicy {
 public:
  virtual ~SchedulerPolicy() = default;

  /// Index into `queue` (non-empty, submission order) of the job to
  /// dispatch next. `usage` maps tenant id -> attributed usage; tenants
  /// that have not run anything yet are absent.
  virtual std::size_t pick(const std::vector<QueuedJob>& queue,
                           const std::map<int, TenantUsage>& usage) = 0;
};

/// Policy registry over one static table of {id, name, factory} in
/// policy.cpp. Factories produce fresh policy instances so two schedulers
/// never share mutable policy state (the round-robin cursor, for example).
class PolicyRegistry {
 public:
  static const PolicyRegistry& instance();

  std::unique_ptr<SchedulerPolicy> make(PolicyId id) const;
  /// Same as to_string(id).
  const char* name(PolicyId id) const;

  /// All registered ids, ascending — the sweep order benches use.
  std::vector<PolicyId> registered() const;
};

}  // namespace sparker::sched
