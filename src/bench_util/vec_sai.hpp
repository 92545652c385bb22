#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "comm/collectives.hpp"

/// \file vec_sai.hpp
/// The split-aggregation callbacks of the int64 `Vec` aggregator that the
/// benches and tests fold: contiguous near-equal segments (splitOp),
/// element-wise sum (reduceOp, and combOp too), concatenation (concatOp),
/// and a modeled size of 8 bytes per element times a scale, for the engine's
/// SplitAggSpec and for a collective's SegOps alike. The typed callbacks
/// are header-only, so tests use them without linking sparker_bench_util;
/// the segment helpers (seg_ops, gather) are compiled in vec_sai.cpp.
/// examples/quickstart.cpp writes the same callbacks out by hand, as the
/// SAI tutorial.

namespace sparker::engine {
// Declared, not included: set_callbacks' callers include
// engine/aggregate.hpp, and the collective tests need none of the engine.
template <typename T, typename U, typename V>
struct SplitAggSpec;
}  // namespace sparker::engine

namespace sparker::bench::vec_sai {

using Vec = std::vector<std::int64_t>;

/// [lo, hi) of segment `seg` of `nseg` over `len` elements; the first
/// `len % nseg` segments hold one element more than the rest.
inline std::pair<int, int> bounds(int len, int seg, int nseg) {
  const int base = len / nseg, rem = len % nseg;
  const int lo = seg * base + (seg < rem ? seg : rem);
  return {lo, lo + base + (seg < rem ? 1 : 0)};
}

inline Vec split(const Vec& u, int seg, int nseg) {
  const auto [lo, hi] = bounds(static_cast<int>(u.size()), seg, nseg);
  return Vec(u.begin() + lo, u.begin() + hi);
}

inline void add(Vec& a, const Vec& b) {
  for (std::size_t i = 0; i < a.size(); ++i) a[i] += b[i];
}

inline Vec concat(std::vector<std::pair<int, Vec>>& segs) {
  Vec out;
  for (auto& [idx, v] : segs) out.insert(out.end(), v.begin(), v.end());
  return out;
}

/// Modeled wire size: 8 bytes per element, times `scale`.
inline std::function<std::uint64_t(const Vec&)> bytes(std::uint64_t scale = 1) {
  return [scale](const Vec& v) {
    return static_cast<std::uint64_t>(v.size() * sizeof(std::int64_t)) * scale;
  };
}

/// Sets `spec`'s split_op, reduce_op and concat_op to the ones above, and
/// its v_bytes to base.bytes (a segment is priced like an aggregator).
template <typename T>
void set_callbacks(engine::SplitAggSpec<T, Vec, Vec>& spec) {
  spec.split_op = split;
  spec.reduce_op = add;
  spec.concat_op = concat;
  spec.v_bytes = spec.base.bytes;
}

/// The SegOps of a collective over a rank's `local` value, which must
/// outlive the collective: the callbacks above on the Vec inside each
/// segment, a modeled size of `v.size() * 8 * scale` bytes (truncated), and
/// `merge_time` (none: merges are free). Compiled in vec_sai.cpp.
comm::SegOps seg_ops(
    const Vec& local, double scale = 1.0,
    std::function<sim::Duration(std::uint64_t)> merge_time = {});

/// The whole Vec a reduce-scatter leaves spread over the ranks: every
/// rank's segments, concatenated in index order. Throws std::logic_error
/// unless the indices are exactly 0, 1, ..., (number of segments - 1).
Vec gather(const std::vector<std::vector<comm::Seg>>& per_rank);

}  // namespace sparker::bench::vec_sai
