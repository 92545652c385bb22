#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "comp/sparse.hpp"
#include "engine/aggregate.hpp"
#include "ml/gradient.hpp"
#include "ml/linalg.hpp"
#include "ser/byte_buffer.hpp"

/// \file aggregator.hpp
/// The gradient aggregator and its split-aggregation callbacks — the C++
/// rendition of the paper's Figure 7 (adapted from MLlib's
/// RDDLossFunction). The aggregator is laid out as one flat additive array
/// `[grad(0..d-1), loss_sum, count]`, so splitOp is slicing, reduceOp is
/// element-wise addition, and concatOp is concatenation: exactly the
/// properties the Split Aggregation Interface requires.

namespace sparker::ml {

/// Flat additive gradient aggregator (U in the paper's interface).
struct GradientAggregator {
  DenseVector flat;  ///< [gradient..., loss_sum, count]

  explicit GradientAggregator(std::int64_t dim = 0)
      : flat(static_cast<std::size_t>(dim) + 2, 0.0) {}

  std::int64_t dim() const {
    return static_cast<std::int64_t>(flat.size()) - 2;
  }
  double* grad() { return flat.data(); }
  const double* grad() const { return flat.data(); }
  double loss_sum() const { return flat[flat.size() - 2]; }
  double count() const { return flat[flat.size() - 1]; }
  void add_loss(double l) { flat[flat.size() - 2] += l; }
  void add_count(double c) { flat[flat.size() - 1] += c; }

  DenseVector gradient_copy() const {
    return DenseVector(flat.begin(), flat.end() - 2);
  }

  /// Nonzero fraction of the flat layout — the density estimate the
  /// collective tuner prices the sparse ring with.
  double density() const {
    if (flat.empty()) return 1.0;
    return static_cast<double>(comp::SparseCodec<double>::count_nonzero(flat)) /
           static_cast<double>(flat.size());
  }

  // Wire codec (ser::Serializable): sparse-aware — the codec picks
  // index+value encoding whenever it is smaller than the flat layout
  // (mostly-zero gradients), and the flat layout otherwise, so dense
  // aggregators cost exactly what they always did.
  void serialize(ser::ByteBuffer& b) const {
    comp::SparseCodec<double>::write(b, flat);
  }
  static GradientAggregator deserialize(ser::ByteBuffer& b) {
    GradientAggregator agg;
    agg.flat = comp::SparseCodec<double>::read(b);
    return agg;
  }
  std::uint64_t serialized_bytes() const {
    using Codec = comp::SparseCodec<double>;
    return std::min(Codec::sparse_bytes(Codec::count_nonzero(flat)),
                    Codec::dense_bytes(flat.size()));
  }
};

/// Segment type of the gradient split spec: a slice of the flat aggregator
/// in whichever representation is cheaper to move. Dense by construction at
/// split time; the sparse ring's encode hook re-encodes density-optimally.
using GradientSegment = comp::AdaptiveVector<double>;

/// Everything needed to run one gradient-aggregation job under either
/// aggregation path.
struct GradientJob {
  engine::TreeAggSpec<LabeledPoint, GradientAggregator> tree;
  engine::SplitAggSpec<LabeledPoint, GradientAggregator, GradientSegment>
      split;
};

/// Cost model for a gradient pass (time is charged at *paper* scale; the
/// real math runs on the scaled-down data).
struct GradientCostModel {
  double modeled_rows_per_partition = 0;  ///< paper-scale rows per task.
  double modeled_avg_nnz = 0;             ///< paper-scale nonzeros/row.
  sim::Duration per_nnz = 30;             ///< ns per nonzero per pass.
  sim::Duration per_dim = 0;              ///< ns per gradient dimension/task.
  std::int64_t modeled_dim = 0;           ///< paper-scale gradient size.
};

/// Builds the tree and split specs for one gradient evaluation at weights
/// `w` (shared: the broadcast variable). `scale` = modeled/real dimension
/// ratio, applied to wire sizes.
inline GradientJob make_gradient_job(GradientKind kind,
                                     std::shared_ptr<const DenseVector> w,
                                     const GradientCostModel& cost) {
  GradientJob job;
  const auto real_dim = static_cast<std::int64_t>(w->size());
  const double bytes_scale =
      static_cast<double>(cost.modeled_dim) / static_cast<double>(real_dim);

  auto& t = job.tree;
  t.zero = GradientAggregator(real_dim);
  t.seq_op = [kind, w](GradientAggregator& agg, const LabeledPoint& p) {
    // Accumulating into `flat` directly is safe: feature indices are all
    // < dim, so the two trailing (loss, count) slots are never touched.
    const double loss = example_gradient(kind, *w, p, agg.flat);
    agg.add_loss(loss);
    agg.add_count(1.0);
  };
  t.comb_op = [](GradientAggregator& a, const GradientAggregator& b) {
    add_into(a.flat, b.flat);
  };
  t.bytes = [bytes_scale](const GradientAggregator& a) {
    return static_cast<std::uint64_t>(
        static_cast<double>(a.flat.size() * sizeof(double)) * bytes_scale);
  };
  t.partition_cost = [cost](int, const std::vector<LabeledPoint>&) {
    const double nnz_work = cost.modeled_rows_per_partition *
                            cost.modeled_avg_nnz *
                            static_cast<double>(cost.per_nnz);
    const double dim_work = static_cast<double>(cost.modeled_dim) *
                            static_cast<double>(cost.per_dim);
    return static_cast<sim::Duration>(nnz_work + dim_work);
  };

  auto& s = job.split;
  s.base = t;
  s.split_op = [](const GradientAggregator& u, int seg, int nseg) {
    auto [lo, hi] =
        slice_bounds(static_cast<std::int64_t>(u.flat.size()), seg, nseg);
    return GradientSegment::dense(slice(u.flat, lo, hi));
  };
  s.reduce_op = [](GradientSegment& a, const GradientSegment& b) { a.add(b); };
  s.concat_op = [](std::vector<std::pair<int, GradientSegment>>& segs) {
    DenseVector out;
    for (auto& [idx, v] : segs) {
      DenseVector d = std::move(v).to_dense();
      out.insert(out.end(), d.begin(), d.end());
    }
    return GradientSegment::dense(std::move(out));
  };
  // Representation-aware: dense segments cost exactly the old flat bytes,
  // sparse ones their index+value encoding — both at the modeled scale.
  s.v_bytes = [bytes_scale](const GradientSegment& v) {
    return static_cast<std::uint64_t>(
        static_cast<double>(v.serialized_bytes()) * bytes_scale);
  };
  s.density_op = [](const GradientAggregator& u) { return u.density(); };
  s.encode_op = [](GradientSegment v) {
    return GradientSegment::encode(std::move(v).to_dense());
  };
  s.is_sparse_op = [](const GradientSegment& v) { return v.is_sparse(); };
  return job;
}

/// Reassembles a GradientAggregator from the flat vector split aggregation
/// returns (its layout is the aggregator's own flat layout).
inline GradientAggregator aggregator_from_flat(DenseVector flat) {
  GradientAggregator agg;
  agg.flat = std::move(flat);
  return agg;
}

/// Same, from the segment type the split spec's concatOp returns.
inline GradientAggregator aggregator_from_flat(GradientSegment seg) {
  return aggregator_from_flat(std::move(seg).to_dense());
}

}  // namespace sparker::ml
