#include "bench_util/vec_sai.hpp"

#include <algorithm>
#include <any>
#include <stdexcept>
#include <string>

namespace sparker::bench::vec_sai {

namespace {

/// concat over erased segments (sorted by index), each holding a Vec.
std::any concat_segs(std::vector<comm::Seg>& segs) {
  Vec out;
  for (auto& [idx, v] : segs) {
    const Vec& s = std::any_cast<const Vec&>(v);
    out.insert(out.end(), s.begin(), s.end());
  }
  return out;
}

}  // namespace

comm::SegOps seg_ops(const Vec& local, double scale,
                     std::function<sim::Duration(std::uint64_t)> merge_time) {
  comm::SegOps ops;
  ops.split = [&local](int seg, int nseg) {
    return std::any(split(local, seg, nseg));
  };
  ops.reduce_into = [](std::any& dst, const std::any& src) {
    add(std::any_cast<Vec&>(dst), std::any_cast<const Vec&>(src));
  };
  ops.bytes = [scale](const std::any& v) {
    const std::size_t n = std::any_cast<const Vec&>(v).size();
    return static_cast<std::uint64_t>(
        static_cast<double>(n * sizeof(std::int64_t)) * scale);
  };
  ops.concat = concat_segs;
  ops.merge_time = std::move(merge_time);
  return ops;
}

Vec gather(const std::vector<std::vector<comm::Seg>>& per_rank) {
  std::vector<comm::Seg> all;
  for (const auto& segs : per_rank) {
    all.insert(all.end(), segs.begin(), segs.end());
  }
  std::sort(all.begin(), all.end(), [](const comm::Seg& a, const comm::Seg& b) {
    return a.first < b.first;
  });
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (all[i].first != static_cast<int>(i)) {
      throw std::logic_error("segment " + std::to_string(i) +
                             " missing or duplicated");
    }
  }
  return std::any_cast<Vec>(concat_segs(all));
}

}  // namespace sparker::bench::vec_sai
