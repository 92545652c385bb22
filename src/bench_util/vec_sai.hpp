#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "engine/aggregate.hpp"

/// \file vec_sai.hpp
/// The split-aggregation callbacks of the int64 `Vec` aggregator that the
/// benches and tests fold: contiguous near-equal segments (splitOp),
/// element-wise sum (reduceOp, and combOp too), concatenation (concatOp),
/// and a modeled size of 8 bytes per element times a scale. Header-only, so
/// tests use it without linking sparker_bench_util. examples/quickstart.cpp
/// writes the same callbacks out by hand, as the SAI tutorial.

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

}  // namespace sparker::bench::vec_sai
