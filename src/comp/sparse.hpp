#pragma once

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "ser/byte_buffer.hpp"
#include "ser/codec.hpp"

/// \file sparse.hpp
/// Sparse/compressed aggregator segments (SparCML-style, PAPERS.md).
///
/// ML gradients are often mostly zeros, but the ring stage moves dense
/// aggregator bytes through every reduce-scatter hop. This subsystem gives
/// segments two interchangeable representations — dense (a plain value
/// array) and sparse (sorted index + value pairs) — plus a stream-summed
/// merge that combines segments *without densifying* while sparse pays off,
/// and an adaptive policy that switches to dense exactly when fill-in
/// crosses the byte crossover.
///
/// Cost-model integration: the representation determines the modeled wire
/// size (`serialized_bytes`), which the existing `ser` cost model then
/// prices for serialization, transport and merge. A dense-representation
/// vector reports exactly the bytes a plain `std::vector<T>` always did, so
/// the dense path's modeled numbers are unchanged; a sparse one reports
/// nnz * (index + value) bytes. Fixed-size wire headers (the tag byte and
/// varint lengths) are deliberately excluded from the model — modeled and
/// in-process sizes diverge by design (DESIGN.md §2).
///
/// The switching rule falls out of the byte accounting: sparse is kept
/// while nnz * (4 + sizeof(T)) < len * sizeof(T), i.e. while density is
/// below sizeof(T) / (4 + sizeof(T)) — 2/3 for the engine's 8-byte
/// elements. Since transport and merge costs are linear in encoded bytes,
/// the byte crossover *is* the cost crossover.

namespace sparker::comp {

/// Index + value wire codec over the ser::Serializable substrate. Encodes a
/// logical vector as either representation (1-byte tag), validates sparse
/// payloads on decode (sorted, unique, in-range indices), and centralizes
/// the byte accounting the adaptive policy and the collective tuner share.
template <typename T>
struct SparseCodec {
  using Index = std::int32_t;

  static constexpr std::uint8_t kDenseTag = 0;
  static constexpr std::uint8_t kSparseTag = 1;

  /// Bytes one encoded entry costs relative to its dense value — the 1.5x
  /// the tuner's sparse-ring pricing assumes for 8-byte elements.
  static constexpr double kEntryOverhead =
      static_cast<double>(sizeof(Index) + sizeof(T)) /
      static_cast<double>(sizeof(T));

  /// Density above which dense encoding is no larger: sizeof(T)/(4+sizeof(T)).
  static constexpr double kCrossoverDensity =
      static_cast<double>(sizeof(T)) /
      static_cast<double>(sizeof(Index) + sizeof(T));

  static std::uint64_t dense_bytes(std::uint64_t len) {
    return len * sizeof(T);
  }
  static std::uint64_t sparse_bytes(std::uint64_t nnz) {
    return nnz * (sizeof(Index) + sizeof(T));
  }
  /// The adaptive policy: sparse representation iff it is strictly smaller.
  static bool prefer_sparse(std::uint64_t nnz, std::uint64_t len) {
    return sparse_bytes(nnz) < dense_bytes(len);
  }

  /// Nonzero iff `x != T{}`, computed on the bits so that the scans below
  /// vectorize: an integer is nonzero iff any bit is set, a double iff any
  /// bit but the sign is (-0.0 is zero; NaN, infinities and subnormals are
  /// not).
  static std::uint64_t nonzero_bits(T x) {
    static_assert(std::is_integral_v<T> || std::is_same_v<T, double>);
    if constexpr (std::is_same_v<T, double>) {
      return std::bit_cast<std::uint64_t>(x) << 1;
    } else {
      return static_cast<std::uint64_t>(x);
    }
  }
  /// 1 if `x != T{}`, else 0.
  static std::uint64_t nonzero(T x) {
    const std::uint64_t u = nonzero_bits(x);
    return (u | (0 - u)) >> 63;
  }

  /// Number of elements `x != T{}` in `v`, in one branch-free pass that
  /// vectorizes (see `nonzero`).
  static std::size_t count_nonzero(const std::vector<T>& v) {
    const std::size_t n = v.size();
    const T* x = v.data();
    std::size_t nnz = 0;
    for (std::size_t i = 0; i < n; ++i) nnz += nonzero(x[i]);
    return nnz;
  }

  /// The density-optimal encode decision, shared by `write` and
  /// AdaptiveVector::encode. One branch-free pass counts the nonzeros
  /// (`x != T{}`). If sparse would not be strictly smaller, returns false
  /// and leaves `idx`/`val` untouched. Otherwise sizes them to exactly nnz
  /// and fills them in index order — sorted, unique and in range by
  /// construction — skipping all-zero blocks of 8, and returns true.
  static bool gather_if_sparse(const std::vector<T>& v,
                               std::vector<Index>& idx,
                               std::vector<T>& val) {
    const std::size_t n = v.size();
    const T* x = v.data();
    const std::size_t nnz = count_nonzero(v);
    if (!prefer_sparse(nnz, n)) return false;
    idx.resize(nnz);
    val.resize(nnz);
    Index* const out_idx = idx.data();
    T* const out_val = val.data();
    std::size_t k = 0;
    // Writes slot k whatever x[j] is; only a nonzero advances k.
    const auto put = [&](std::size_t j) {
      out_idx[k] = static_cast<Index>(j);
      out_val[k] = x[j];
      k += nonzero(x[j]);
    };
    constexpr std::size_t kBlock = 8;
    std::size_t i = 0;
    for (; i + kBlock <= n; i += kBlock) {
      std::uint64_t live = 0;
      for (std::size_t j = i; j < i + kBlock; ++j) live |= nonzero_bits(x[j]);
      if (live == 0) continue;
      if (k + kBlock <= nnz) {
        // Every slot this block can write exists: no branch per element.
        for (std::size_t j = i; j < i + kBlock; ++j) put(j);
      } else {
        for (std::size_t j = i; j < i + kBlock; ++j) {
          if (nonzero(x[j])) put(j);
        }
      }
    }
    for (; i < n; ++i) {
      if (nonzero(x[i])) put(i);
    }
    return true;
  }

  /// Scatters (index, value) pairs into a zero-filled dense vector.
  static std::vector<T> scatter(std::size_t len, const std::vector<Index>& idx,
                                const std::vector<T>& val) {
    std::vector<T> out(len, T{});
    for (std::size_t k = 0; k < idx.size(); ++k) {
      out[static_cast<std::size_t>(idx[k])] = val[k];
    }
    return out;
  }

  static void write_dense(ser::ByteBuffer& b, const std::vector<T>& v) {
    b.write<std::uint8_t>(kDenseTag);
    b.write_vector(v);
  }

  static void write_sparse(ser::ByteBuffer& b, std::uint64_t len,
                           const std::vector<Index>& idx,
                           const std::vector<T>& val) {
    b.write<std::uint8_t>(kSparseTag);
    b.write_varint(len);
    b.write_vector(idx);
    b.write_vector(val);
  }

  /// Density-optimal encoding of a logical vector.
  static void write(ser::ByteBuffer& b, const std::vector<T>& v) {
    std::vector<Index> idx;
    std::vector<T> val;
    if (gather_if_sparse(v, idx, val)) {
      write_sparse(b, v.size(), idx, val);
    } else {
      write_dense(b, v);
    }
  }

  /// Decodes either representation back to the logical dense vector.
  /// Rejects malformed sparse payloads: mismatched index/value counts,
  /// out-of-range, unsorted or duplicate indices all throw.
  static std::vector<T> read(ser::ByteBuffer& b) {
    const auto tag = b.read<std::uint8_t>();
    if (tag == kDenseTag) return b.read_vector<T>();
    if (tag != kSparseTag) {
      throw std::runtime_error("SparseCodec: unknown representation tag");
    }
    const std::uint64_t len = b.read_varint();
    auto idx = b.read_vector<Index>();
    auto val = b.read_vector<T>();
    validate(len, idx, val);
    return scatter(static_cast<std::size_t>(len), idx, val);
  }

  static void validate(std::uint64_t len, const std::vector<Index>& idx,
                       const std::vector<T>& val) {
    if (idx.size() != val.size()) {
      throw std::runtime_error("SparseCodec: index/value count mismatch");
    }
    Index prev = -1;
    for (Index i : idx) {
      if (i <= prev) {
        throw std::runtime_error(
            "SparseCodec: duplicate or unsorted sparse index");
      }
      if (static_cast<std::uint64_t>(i) >= len) {
        throw std::runtime_error("SparseCodec: sparse index out of range");
      }
      prev = i;
    }
  }
};

/// A fixed-length logical vector held in whichever representation is
/// currently cheaper to move. This is the V the sparse ring path threads
/// through the engine's SegOps: splitOp produces one per segment, reduceOp
/// is `add` (stream-summed — sparse inputs merge by index without
/// densifying), and the representation adapts as fill-in grows across
/// reduce-scatter hops.
template <typename T>
class AdaptiveVector {
 public:
  using Codec = SparseCodec<T>;
  using Index = typename Codec::Index;

  AdaptiveVector() = default;

  /// Wraps a dense vector without changing representation (the dense path's
  /// modeled bytes stay exactly a plain vector's).
  static AdaptiveVector dense(std::vector<T> v) {
    AdaptiveVector out;
    out.len_ = v.size();
    out.dense_ = std::move(v);
    out.sparse_ = false;
    return out;
  }

  /// Builds a sparse vector; throws std::invalid_argument on unsorted,
  /// duplicate or out-of-range indices (the wire-decode path throws
  /// std::runtime_error for the same defects — see SparseCodec::read).
  static AdaptiveVector sparse(std::size_t len, std::vector<Index> idx,
                               std::vector<T> val) {
    try {
      Codec::validate(len, idx, val);
    } catch (const std::runtime_error& e) {
      throw std::invalid_argument(e.what());
    }
    AdaptiveVector out;
    out.len_ = len;
    out.idx_ = std::move(idx);
    out.val_ = std::move(val);
    out.sparse_ = true;
    return out;
  }

  /// Density-optimal encoding of a dense vector: keeps whichever
  /// representation is smaller on the wire. The vector is gathered only
  /// when sparse wins; the gathered arrays are valid by construction, so
  /// they skip the `sparse()` builder's validation.
  static AdaptiveVector encode(std::vector<T> v) {
    AdaptiveVector out;
    if (!Codec::gather_if_sparse(v, out.idx_, out.val_)) {
      return dense(std::move(v));
    }
    out.len_ = v.size();
    out.sparse_ = true;
    return out;
  }

  bool is_sparse() const noexcept { return sparse_; }
  std::size_t length() const noexcept { return len_; }

  /// Stored entries: explicit (index, value) pairs when sparse, every slot
  /// when dense. Summation may leave explicit zeros in a sparse vector;
  /// they still cost wire bytes, exactly like a real stream-summed payload.
  std::size_t nnz() const noexcept {
    return sparse_ ? idx_.size() : dense_.size();
  }
  double density() const noexcept {
    return len_ == 0 ? 1.0
                     : static_cast<double>(nnz()) / static_cast<double>(len_);
  }

  T at(std::size_t i) const {
    if (!sparse_) return dense_[i];
    // Sorted indices: binary search.
    std::size_t lo = 0, hi = idx_.size();
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (static_cast<std::size_t>(idx_[mid]) < i) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo < idx_.size() && static_cast<std::size_t>(idx_[lo]) == i
               ? val_[lo]
               : T{};
  }

  std::vector<T> to_dense() const& {
    return sparse_ ? Codec::scatter(len_, idx_, val_) : dense_;
  }
  std::vector<T> to_dense() && {
    return sparse_ ? Codec::scatter(len_, idx_, val_) : std::move(dense_);
  }

  /// Stream-summed merge: `*this += other`. Sparse + sparse unions the
  /// sorted index lists without materializing a dense array; afterwards the
  /// adaptive rule densifies if fill-in has crossed the byte crossover.
  /// Dense absorbs sparse by scatter-add; sparse hit by dense densifies
  /// first (the result is at least that dense).
  void add(const AdaptiveVector& other) {
    if (len_ != other.len_) {
      throw std::invalid_argument("AdaptiveVector: length mismatch in add");
    }
    if (!sparse_ && !other.sparse_) {
      for (std::size_t i = 0; i < len_; ++i) dense_[i] += other.dense_[i];
      return;
    }
    if (!sparse_) {  // dense += sparse: scatter-add.
      for (std::size_t k = 0; k < other.idx_.size(); ++k) {
        dense_[static_cast<std::size_t>(other.idx_[k])] += other.val_[k];
      }
      return;
    }
    if (!other.sparse_) {  // sparse += dense: densify, then add.
      densify();
      for (std::size_t i = 0; i < len_; ++i) dense_[i] += other.dense_[i];
      return;
    }
    // sparse += sparse: merge the sorted index lists, summing collisions.
    std::vector<Index> idx;
    std::vector<T> val;
    idx.reserve(idx_.size() + other.idx_.size());
    val.reserve(idx_.size() + other.idx_.size());
    std::size_t a = 0, b = 0;
    while (a < idx_.size() || b < other.idx_.size()) {
      if (b == other.idx_.size() ||
          (a < idx_.size() && idx_[a] < other.idx_[b])) {
        idx.push_back(idx_[a]);
        val.push_back(val_[a]);
        ++a;
      } else if (a == idx_.size() || other.idx_[b] < idx_[a]) {
        idx.push_back(other.idx_[b]);
        val.push_back(other.val_[b]);
        ++b;
      } else {
        idx.push_back(idx_[a]);
        val.push_back(val_[a] + other.val_[b]);
        ++a;
        ++b;
      }
    }
    idx_ = std::move(idx);
    val_ = std::move(val);
    // Adaptive switch: once the union's fill-in makes sparse no cheaper on
    // the wire, go dense (and stay there — fill-in only grows under add).
    if (!Codec::prefer_sparse(idx_.size(), len_)) densify();
  }

  /// Logical equality, representation-independent.
  friend bool operator==(const AdaptiveVector& a, const AdaptiveVector& b) {
    if (a.len_ != b.len_) return false;
    for (std::size_t i = 0; i < a.len_; ++i) {
      if (a.at(i) != b.at(i)) return false;
    }
    return true;
  }

  // Wire codec (ser::Serializable). The representation is preserved on the
  // wire; decode re-validates sparse payloads.
  void serialize(ser::ByteBuffer& b) const {
    if (sparse_) {
      Codec::write_sparse(b, len_, idx_, val_);
    } else {
      Codec::write_dense(b, dense_);
    }
  }
  static AdaptiveVector deserialize(ser::ByteBuffer& b) {
    const auto tag = b.read<std::uint8_t>();
    if (tag == Codec::kDenseTag) {
      return dense(b.read_vector<T>());
    }
    if (tag != Codec::kSparseTag) {
      throw std::runtime_error("AdaptiveVector: unknown representation tag");
    }
    const std::uint64_t len = b.read_varint();
    auto idx = b.read_vector<Index>();
    auto val = b.read_vector<T>();
    Codec::validate(len, idx, val);
    AdaptiveVector out;
    out.len_ = static_cast<std::size_t>(len);
    out.idx_ = std::move(idx);
    out.val_ = std::move(val);
    out.sparse_ = true;
    return out;
  }
  /// Modeled wire size: the representation decides. Dense reports exactly a
  /// plain vector's bytes; headers are excluded from the model on purpose.
  std::uint64_t serialized_bytes() const {
    return sparse_ ? Codec::sparse_bytes(idx_.size())
                   : Codec::dense_bytes(len_);
  }

 private:
  void densify() {
    dense_ = Codec::scatter(len_, idx_, val_);
    idx_.clear();
    val_.clear();
    sparse_ = false;
  }

  std::size_t len_ = 0;
  std::vector<T> dense_;
  std::vector<Index> idx_;
  std::vector<T> val_;
  bool sparse_ = false;
};

static_assert(ser::Serializable<AdaptiveVector<double>>);
static_assert(ser::Serializable<AdaptiveVector<std::int64_t>>);

}  // namespace sparker::comp
