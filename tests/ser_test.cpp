// Tests for the serialization substrate: primitive round-trips, varints,
// vectors/strings, underrun safety, the Serializable concept and the cost
// model.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <random>
#include <string>
#include <type_traits>
#include <vector>

#include "comp/sparse.hpp"
#include "ml/aggregator.hpp"
#include "net/cluster.hpp"
#include "ser/byte_buffer.hpp"
#include "ser/codec.hpp"

namespace sparker::ser {
namespace {

TEST(ByteBuffer, PodRoundTrip) {
  ByteBuffer b;
  b.write<std::int32_t>(-7);
  b.write<double>(3.25);
  b.write<std::uint8_t>(255);
  EXPECT_EQ(b.read<std::int32_t>(), -7);
  EXPECT_DOUBLE_EQ(b.read<double>(), 3.25);
  EXPECT_EQ(b.read<std::uint8_t>(), 255);
  EXPECT_TRUE(b.exhausted());
}

TEST(ByteBuffer, VarintBoundaries) {
  ByteBuffer b;
  const std::uint64_t values[] = {0,
                                  1,
                                  127,
                                  128,
                                  16383,
                                  16384,
                                  (1ull << 32) - 1,
                                  1ull << 32,
                                  std::numeric_limits<std::uint64_t>::max()};
  for (auto v : values) b.write_varint(v);
  for (auto v : values) EXPECT_EQ(b.read_varint(), v);
  EXPECT_TRUE(b.exhausted());
}

TEST(ByteBuffer, VarintIsCompact) {
  ByteBuffer b;
  b.write_varint(5);
  EXPECT_EQ(b.size(), 1u);
  b.clear();
  b.write_varint(300);
  EXPECT_EQ(b.size(), 2u);
}

TEST(ByteBuffer, VectorAndStringRoundTrip) {
  ByteBuffer b;
  const std::vector<double> v{1.5, -2.5, 1e300};
  const std::string s = "hello \0 world";
  b.write_vector(v);
  b.write_string(s);
  EXPECT_EQ(b.read_vector<double>(), v);
  EXPECT_EQ(b.read_string(), s);
}

TEST(ByteBuffer, EmptyVector) {
  ByteBuffer b;
  b.write_vector(std::vector<std::int64_t>{});
  EXPECT_TRUE(b.read_vector<std::int64_t>().empty());
}

TEST(ByteBuffer, EmptyBuffer) {
  ByteBuffer b;
  EXPECT_EQ(b.size(), 0u);
  EXPECT_TRUE(b.exhausted());
  EXPECT_THROW(b.read<std::uint8_t>(), std::runtime_error);
  EXPECT_THROW(b.read_varint(), std::runtime_error);
  b.rewind();  // rewinding an empty buffer is a no-op, not an error
  EXPECT_TRUE(b.exhausted());
}

TEST(ByteBuffer, SingleBytePayload) {
  ByteBuffer b;
  b.write<std::uint8_t>(0x5a);
  EXPECT_EQ(b.size(), 1u);
  EXPECT_EQ(b.read<std::uint8_t>(), 0x5a);
  EXPECT_TRUE(b.exhausted());
  b.clear();
  b.write_vector(std::vector<std::uint8_t>{7});
  const auto back = b.read_vector<std::uint8_t>();
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0], 7);
}

TEST(ByteBuffer, UnderrunThrows) {
  ByteBuffer b;
  b.write<std::int32_t>(1);
  (void)b.read<std::int32_t>();
  EXPECT_THROW(b.read<std::int32_t>(), std::runtime_error);
}

TEST(ByteBuffer, TruncatedVectorThrows) {
  ByteBuffer b;
  b.write_varint(1000);  // claims 1000 elements, provides none
  EXPECT_THROW(b.read_vector<double>(), std::runtime_error);
}

TEST(ByteBuffer, MalformedVarintThrows) {
  std::vector<std::uint8_t> raw(11, 0x80);  // never-terminating varint
  ByteBuffer b(std::move(raw));
  EXPECT_THROW(b.read_varint(), std::runtime_error);
}

TEST(ByteBuffer, RewindRereads) {
  ByteBuffer b;
  b.write<int>(42);
  EXPECT_EQ(b.read<int>(), 42);
  b.rewind();
  EXPECT_EQ(b.read<int>(), 42);
}

// A Serializable aggregate mirroring the engine's task results.
struct Sample {
  std::vector<double> grad;
  double loss = 0;

  void serialize(ByteBuffer& b) const {
    b.write_vector(grad);
    b.write(loss);
  }
  static Sample deserialize(ByteBuffer& b) {
    Sample s;
    s.grad = b.read_vector<double>();
    s.loss = b.read<double>();
    return s;
  }
  std::uint64_t serialized_bytes() const {
    return grad.size() * sizeof(double) + sizeof(double);
  }
};
static_assert(Serializable<Sample>);

TEST(Codec, ConceptAndRoundTrip) {
  Sample s;
  s.grad = {1.0, 2.0, 3.0};
  s.loss = 0.5;
  Sample back = roundtrip(s);
  EXPECT_EQ(back.grad, s.grad);
  EXPECT_DOUBLE_EQ(back.loss, s.loss);
}

TEST(Codec, CostModel) {
  net::CostRates r;
  r.ser_bw = 1e9;
  r.deser_bw = 2e9;
  r.merge_bw = 4e9;
  EXPECT_EQ(serialize_time(1'000'000'000ull, r), sim::seconds(1));
  EXPECT_EQ(deserialize_time(1'000'000'000ull, r), sim::seconds(1) / 2);
  EXPECT_EQ(merge_time(2'000'000'000ull, r), sim::seconds(1) / 2);
  EXPECT_EQ(serialize_time(0, r), 0u);
}

// Modeled payloads routinely exceed what fits in memory (the simulator
// charges time for bytes it never materializes): sizes past 4 GiB must
// survive the varint wire format and stay proportional in the cost model.
TEST(Codec, ModeledSizesBeyond4GiB) {
  const std::uint64_t five_gib = 5ull << 30;
  ByteBuffer b;
  b.write_varint(five_gib);
  EXPECT_EQ(b.read_varint(), five_gib);

  net::CostRates r;
  r.ser_bw = 1e9;
  r.deser_bw = 1e9;
  r.merge_bw = 1e9;
  const sim::Duration one = serialize_time(1ull << 30, r);
  EXPECT_EQ(serialize_time(five_gib, r), one * 5);  // no 32-bit truncation
  EXPECT_GT(serialize_time(five_gib, r), serialize_time((4ull << 30) - 1, r));
  EXPECT_EQ(merge_time(five_gib, r), deserialize_time(five_gib, r));
}

// The gradient aggregator is the codec's real customer: its flat layout
// must round-trip through the wire format exactly.
static_assert(Serializable<ml::GradientAggregator>);

TEST(Codec, GradientAggregatorRoundTrip) {
  ml::GradientAggregator agg(/*dim=*/5);
  for (int i = 0; i < 5; ++i) agg.grad()[i] = 1.5 * (i + 1);
  agg.add_loss(3.25);
  agg.add_count(17.0);
  const ml::GradientAggregator back = roundtrip(agg);
  EXPECT_EQ(back.flat, agg.flat);
  EXPECT_EQ(back.dim(), 5);
  EXPECT_DOUBLE_EQ(back.loss_sum(), 3.25);
  EXPECT_DOUBLE_EQ(back.count(), 17.0);
  EXPECT_EQ(agg.serialized_bytes(), agg.flat.size() * sizeof(double));
}

TEST(Codec, GradientAggregatorZeroDimRoundTrip) {
  ml::GradientAggregator agg(/*dim=*/0);  // just [loss, count]
  agg.add_loss(1.0);
  const ml::GradientAggregator back = roundtrip(agg);
  EXPECT_EQ(back.dim(), 0);
  EXPECT_EQ(back.flat, agg.flat);
}

// ---------------------------------------------------------------------------
// Sparse codec (comp/sparse.hpp): representation choice, byte accounting
// and malformed-payload rejection, at the edges.

using DCodec = comp::SparseCodec<double>;
using DVec = comp::AdaptiveVector<double>;

std::vector<double> codec_roundtrip(const std::vector<double>& v) {
  ByteBuffer b;
  DCodec::write(b, v);
  return DCodec::read(b);
}

TEST(SparseCodec, EmptyVectorRoundTrip) {
  const std::vector<double> v;
  EXPECT_EQ(codec_roundtrip(v), v);
  const DVec av = DVec::encode(v);
  EXPECT_FALSE(av.is_sparse());  // 0 bytes either way: not strictly smaller.
  EXPECT_EQ(av.serialized_bytes(), 0u);
  EXPECT_EQ(roundtrip(av).to_dense(), v);
}

TEST(SparseCodec, AllZeroVectorGoesSparse) {
  const std::vector<double> v(100, 0.0);
  EXPECT_EQ(codec_roundtrip(v), v);
  const DVec av = DVec::encode(v);
  EXPECT_TRUE(av.is_sparse());
  EXPECT_EQ(av.nnz(), 0u);
  EXPECT_EQ(av.serialized_bytes(), 0u);  // nothing to move.
  EXPECT_EQ(roundtrip(av).to_dense(), v);
}

TEST(SparseCodec, FullyDenseStaysDense) {
  std::vector<double> v(64);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = 0.5 + double(i);
  EXPECT_EQ(codec_roundtrip(v), v);
  const DVec av = DVec::encode(v);
  EXPECT_FALSE(av.is_sparse());
  // Dense representation reports exactly a plain vector's modeled bytes.
  EXPECT_EQ(av.serialized_bytes(), v.size() * sizeof(double));
  EXPECT_EQ(roundtrip(av).to_dense(), v);
}

TEST(SparseCodec, SingleNonzeroAtLastIndex) {
  std::vector<double> v(1000, 0.0);
  v.back() = -3.25;
  EXPECT_EQ(codec_roundtrip(v), v);
  const DVec av = DVec::encode(v);
  EXPECT_TRUE(av.is_sparse());
  EXPECT_EQ(av.nnz(), 1u);
  EXPECT_EQ(av.serialized_bytes(), DCodec::sparse_bytes(1));
  EXPECT_DOUBLE_EQ(av.at(999), -3.25);
  EXPECT_EQ(roundtrip(av).to_dense(), v);
}

TEST(SparseCodec, MalformedSparsePayloadsRejected) {
  // Construction-side validation.
  EXPECT_THROW(DVec::sparse(4, {1, 1}, {2.0, 3.0}), std::invalid_argument);
  EXPECT_THROW(DVec::sparse(4, {2, 1}, {2.0, 3.0}), std::invalid_argument);
  EXPECT_THROW(DVec::sparse(4, {1, 4}, {2.0, 3.0}), std::invalid_argument);
  EXPECT_THROW(DVec::sparse(4, {1}, {2.0, 3.0}), std::invalid_argument);
  // Wire-side validation: a hand-built duplicate-index payload must not
  // decode (a real stream could otherwise smuggle one past the policy).
  ByteBuffer b;
  DCodec::write_sparse(b, 4, {1, 1}, {2.0, 3.0});
  EXPECT_THROW(DCodec::read(b), std::runtime_error);
  ByteBuffer b2;
  b2.write<std::uint8_t>(7);  // unknown representation tag.
  EXPECT_THROW(DCodec::read(b2), std::runtime_error);
}

TEST(SparseCodec, RoundTripAtSwitchBoundary) {
  // For 8-byte values the crossover density is 8/12 = 2/3: with len = 12,
  // 8 nonzeros encode to exactly the dense size (ties go dense) and 7
  // strictly win as sparse.
  ASSERT_DOUBLE_EQ(DCodec::kCrossoverDensity, 2.0 / 3.0);
  std::vector<double> at(12, 0.0), below(12, 0.0);
  for (int i = 0; i < 8; ++i) at[static_cast<std::size_t>(i)] = i + 1.0;
  for (int i = 0; i < 7; ++i) below[static_cast<std::size_t>(i)] = i + 1.0;
  ASSERT_EQ(DCodec::sparse_bytes(8), DCodec::dense_bytes(12));
  const DVec av_at = DVec::encode(at);
  const DVec av_below = DVec::encode(below);
  EXPECT_FALSE(av_at.is_sparse());
  EXPECT_TRUE(av_below.is_sparse());
  EXPECT_EQ(codec_roundtrip(at), at);
  EXPECT_EQ(codec_roundtrip(below), below);
  EXPECT_EQ(roundtrip(av_at).to_dense(), at);
  EXPECT_EQ(roundtrip(av_below).to_dense(), below);
}

TEST(SparseCodec, StreamSummedMergeDensifiesAtCrossover) {
  // Two disjoint 5-nonzero halves of a 12-wide vector: each is sparse, the
  // union has 10 entries >= the 8-entry crossover, so add() must densify —
  // the adaptive switch the ring's stream-summed merge relies on.
  std::vector<double> lo(12, 0.0), hi(12, 0.0);
  for (int i = 0; i < 5; ++i) lo[static_cast<std::size_t>(i)] = 1.0;
  for (int i = 5; i < 10; ++i) hi[static_cast<std::size_t>(i)] = 2.0;
  DVec a = DVec::encode(lo);
  const DVec b = DVec::encode(hi);
  ASSERT_TRUE(a.is_sparse());
  ASSERT_TRUE(b.is_sparse());
  a.add(b);
  EXPECT_FALSE(a.is_sparse());
  std::vector<double> want(12, 0.0);
  for (int i = 0; i < 5; ++i) want[static_cast<std::size_t>(i)] = 1.0;
  for (int i = 5; i < 10; ++i) want[static_cast<std::size_t>(i)] = 2.0;
  EXPECT_EQ(a.to_dense(), want);
}

TEST(SparseCodec, SparseAggregatorWireFormatShrinks) {
  // A mostly-zero gradient aggregator reports (and round-trips through)
  // the compressed wire size.
  ml::GradientAggregator agg(/*dim=*/1000);
  agg.grad()[3] = 1.5;
  agg.add_loss(2.0);
  agg.add_count(8.0);
  EXPECT_EQ(agg.serialized_bytes(), DCodec::sparse_bytes(3));
  EXPECT_LT(agg.serialized_bytes(), agg.flat.size() * sizeof(double));
  const ml::GradientAggregator back = roundtrip(agg);
  EXPECT_EQ(back.flat, agg.flat);

  // density() and serialized_bytes() count with the codec's bit-level
  // nonzero test, which agrees with `x != 0.0` on the edge values: -0.0 is
  // zero; NaN, both infinities and subnormals of either sign are not.
  agg.grad()[10] = -0.0;
  agg.grad()[20] = std::numeric_limits<double>::quiet_NaN();
  agg.grad()[30] = std::numeric_limits<double>::infinity();
  agg.grad()[40] = -std::numeric_limits<double>::infinity();
  agg.grad()[50] = std::numeric_limits<double>::denorm_min();
  agg.grad()[60] = -std::numeric_limits<double>::denorm_min();
  std::size_t want_nnz = 0;
  for (double x : agg.flat) want_nnz += x != 0.0;
  ASSERT_EQ(want_nnz, 8u);
  EXPECT_EQ(DCodec::count_nonzero(agg.flat), want_nnz);
  EXPECT_EQ(agg.density(), 8.0 / static_cast<double>(agg.flat.size()));
  EXPECT_EQ(agg.serialized_bytes(), DCodec::sparse_bytes(8));
}

// ---------------------------------------------------------------------------
// AdaptiveVector::encode and SparseCodec::write against their definition:
// gather every nonzero (x != T{}: -0.0 is dropped, NaN kept), then keep
// sparse iff it is strictly smaller on the wire. The oracle below is that
// gather-then-decide code written out; every optimized encode must agree
// with it byte for byte.

template <typename T>
struct OracleEncoding {
  bool sparse = false;
  std::vector<std::int32_t> idx;
  std::vector<T> val;
};

template <typename T>
OracleEncoding<T> oracle_encode(const std::vector<T>& v) {
  OracleEncoding<T> out;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (v[i] != T{}) {
      out.idx.push_back(static_cast<std::int32_t>(i));
      out.val.push_back(v[i]);
    }
  }
  out.sparse = out.idx.size() * (sizeof(std::int32_t) + sizeof(T)) <
               v.size() * sizeof(T);
  return out;
}

template <typename T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

/// A length-`len` vector with exactly `nnz` entries that compare nonzero,
/// at seeded positions. Double vectors also carry NaN, -NaN, -infinity and
/// subnormals among the nonzeros and -0.0 among the zeros.
template <typename T>
std::vector<T> table_input(std::size_t len, std::size_t nnz,
                           std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::size_t> pos(len);
  std::iota(pos.begin(), pos.end(), std::size_t{0});
  std::shuffle(pos.begin(), pos.end(), rng);
  std::vector<T> v(len, T{});
  for (std::size_t k = 0; k < len; ++k) {
    T& x = v[pos[k]];
    if constexpr (std::is_floating_point_v<T>) {
      if (k >= nnz) {
        if (k % 3 == 0) x = -0.0;
      } else if (k % 5 == 4) {
        x = std::numeric_limits<T>::quiet_NaN();
      } else if (k % 7 == 6) {
        x = -std::numeric_limits<T>::denorm_min();
      } else if (k % 11 == 10) {
        x = -std::numeric_limits<T>::infinity();
      } else if (k % 13 == 12) {
        x = -std::numeric_limits<T>::quiet_NaN();
      } else {
        x = static_cast<T>(static_cast<std::int64_t>(rng() % 2001) - 1000) +
            0.5;
      }
    } else if (k < nnz) {
      x = static_cast<T>(rng() | 1);
    }
  }
  return v;
}

template <typename T>
void check_encode_table() {
  using Codec = comp::SparseCodec<T>;
  using Vec = comp::AdaptiveVector<T>;
  const std::size_t lengths[] = {0, 1, 7, 8, 9, 63, 64, 65, 10923};
  for (std::size_t len : lengths) {
    // The smallest count at which sparse is no longer strictly smaller.
    std::size_t at = 0;
    while (at < len && Codec::prefer_sparse(at, len)) ++at;
    const std::size_t counts[] = {0,
                                  std::min<std::size_t>(1, len),
                                  len / 100,
                                  at > 0 ? at - 1 : 0,
                                  at,
                                  std::min(at + 1, len),
                                  len * 4 / 5,
                                  len};
    for (std::size_t nnz : counts) {
      SCOPED_TRACE("len " + std::to_string(len) + " nnz " +
                   std::to_string(nnz));
      const std::vector<T> v = table_input<T>(len, nnz, len * 131 + nnz);
      const OracleEncoding<T> want = oracle_encode(v);
      ASSERT_EQ(want.idx.size(), nnz);

      ByteBuffer want_wire;
      if (want.sparse) {
        Codec::write_sparse(want_wire, len, want.idx, want.val);
      } else {
        Codec::write_dense(want_wire, v);
      }
      // Dense decodes bit for bit; sparse decodes -0.0 as +0.0.
      std::vector<T> want_decoded = v;
      if (want.sparse) {
        for (T& x : want_decoded) {
          if (!(x != T{})) x = T{};
        }
      }

      const Vec av = Vec::encode(v);
      EXPECT_EQ(av.is_sparse(), want.sparse);
      EXPECT_EQ(av.length(), len);
      EXPECT_EQ(av.serialized_bytes(), want.sparse
                                           ? Codec::sparse_bytes(nnz)
                                           : Codec::dense_bytes(len));
      ByteBuffer wire;
      av.serialize(wire);
      EXPECT_EQ(wire.bytes(), want_wire.bytes());
      // The stored arrays, read back off the wire.
      ASSERT_EQ(wire.read<std::uint8_t>(),
                want.sparse ? Codec::kSparseTag : Codec::kDenseTag);
      if (want.sparse) {
        EXPECT_EQ(wire.read_varint(), len);
        EXPECT_EQ(wire.read_vector<std::int32_t>(), want.idx);
        EXPECT_TRUE(same_bits(wire.read_vector<T>(), want.val));
      } else {
        EXPECT_TRUE(same_bits(wire.read_vector<T>(), v));
      }
      wire.rewind();
      EXPECT_TRUE(same_bits(Vec::deserialize(wire).to_dense(), want_decoded));

      ByteBuffer codec_wire;
      Codec::write(codec_wire, v);
      EXPECT_EQ(codec_wire.bytes(), want_wire.bytes());
      EXPECT_TRUE(same_bits(Codec::read(codec_wire), want_decoded));
      EXPECT_TRUE(codec_wire.exhausted());
    }
  }
}

TEST(SparseCodec, EncodeMatchesGatherThenDecideInt64) {
  check_encode_table<std::int64_t>();
}

TEST(SparseCodec, EncodeMatchesGatherThenDecideDouble) {
  check_encode_table<double>();
}

}  // namespace
}  // namespace sparker::ser
