// Wire codec primitives: varint/zigzag boundary values, delta-encoded
// sorted lists, tagged-integral doubles, ValueCodec planes, presence
// encoding, and EdgeBatch framing — exhaustive boundaries plus seeded
// random round-trip fuzz. Bit-exactness here is what lets the substrate
// promise decoded state identical to kRaw in every mode.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <vector>

#include "comm/codec.h"
#include "comm/substrate.h"
#include "stream/edge_batch.h"
#include "util/rng.h"
#include "util/serialize.h"
#include "util/varint.h"

namespace mrbc {
namespace {

using comm::CodecMode;
using comm::CodecReader;
using comm::CodecWriter;
using util::RecvBuffer;
using util::SendBuffer;

constexpr CodecMode kAllModes[] = {CodecMode::kRaw, CodecMode::kMetadataOnly,
                                   CodecMode::kFull};

/// Boundary values around every varint length transition (7-bit group
/// edges), plus the extremes.
std::vector<std::uint64_t> varint_boundaries() {
  std::vector<std::uint64_t> vals = {0, 1, 2};
  for (int shift = 7; shift < 64; shift += 7) {
    const std::uint64_t edge = 1ull << shift;  // first value needing one more byte
    vals.push_back(edge - 1);
    vals.push_back(edge);
    vals.push_back(edge + 1);
  }
  vals.push_back(std::numeric_limits<std::uint32_t>::max());
  vals.push_back(std::numeric_limits<std::uint64_t>::max() - 1);
  vals.push_back(std::numeric_limits<std::uint64_t>::max());
  return vals;
}

TEST(Varint, BoundaryRoundTrip) {
  for (std::uint64_t v : varint_boundaries()) {
    std::uint8_t tmp[util::kMaxVarintBytes];
    const std::size_t n = util::encode_varint(v, tmp);
    EXPECT_EQ(n, util::varint_size(v)) << v;
    EXPECT_GE(n, 1u);
    EXPECT_LE(n, util::kMaxVarintBytes);
    std::size_t cursor = 0;
    EXPECT_EQ(util::decode_varint(tmp, n, cursor), v) << v;
    EXPECT_EQ(cursor, n);
  }
}

TEST(Varint, SizeBreakpoints) {
  EXPECT_EQ(util::varint_size(0), 1u);
  EXPECT_EQ(util::varint_size(127), 1u);
  EXPECT_EQ(util::varint_size(128), 2u);
  EXPECT_EQ(util::varint_size((1u << 14) - 1), 2u);
  EXPECT_EQ(util::varint_size(1u << 14), 3u);
  EXPECT_EQ(util::varint_size((1u << 14) + 1), 3u);
  EXPECT_EQ(util::varint_size(std::numeric_limits<std::uint32_t>::max()), 5u);
  EXPECT_EQ(util::varint_size(std::numeric_limits<std::uint64_t>::max()), 10u);
}

TEST(Varint, TruncatedThrows) {
  for (std::uint64_t v : {std::uint64_t{128}, std::uint64_t{1} << 40,
                          std::numeric_limits<std::uint64_t>::max()}) {
    std::uint8_t tmp[util::kMaxVarintBytes];
    const std::size_t n = util::encode_varint(v, tmp);
    for (std::size_t cut = 0; cut < n; ++cut) {
      std::size_t cursor = 0;
      EXPECT_THROW(util::decode_varint(tmp, cut, cursor), std::out_of_range);
    }
  }
}

TEST(Varint, OverlongAndOverflowEncodingsThrow) {
  // 11 continuation bytes: longer than any valid u64 varint.
  std::uint8_t overlong[11];
  std::memset(overlong, 0x80, sizeof(overlong));
  std::size_t cursor = 0;
  EXPECT_THROW(util::decode_varint(overlong, sizeof(overlong), cursor),
               std::out_of_range);

  // 10 bytes whose final group would push past 64 bits (top byte > 1).
  std::uint8_t wide[10];
  std::memset(wide, 0xFF, 9);
  wide[9] = 0x02;
  cursor = 0;
  EXPECT_THROW(util::decode_varint(wide, sizeof(wide), cursor), std::out_of_range);
}

TEST(Zigzag, BoundaryRoundTrip) {
  const std::int64_t vals[] = {0,
                               1,
                               -1,
                               2,
                               -2,
                               63,
                               -64,
                               64,
                               -65,
                               std::numeric_limits<std::int32_t>::max(),
                               std::numeric_limits<std::int32_t>::min(),
                               std::numeric_limits<std::int64_t>::max(),
                               std::numeric_limits<std::int64_t>::min()};
  for (std::int64_t v : vals) {
    EXPECT_EQ(util::zigzag_decode(util::zigzag_encode(v)), v) << v;
  }
  // Small magnitudes of either sign map to small codes.
  EXPECT_EQ(util::zigzag_encode(0), 0u);
  EXPECT_EQ(util::zigzag_encode(-1), 1u);
  EXPECT_EQ(util::zigzag_encode(1), 2u);
  EXPECT_EQ(util::zigzag_encode(-2), 3u);
}

TEST(Varint, RandomRoundTripFuzz) {
  util::Xoshiro256 rng(0xC0DEC5ull);
  for (int iter = 0; iter < 20000; ++iter) {
    // Mix full-range and small-magnitude draws so short encodings get
    // exercised as much as long ones.
    std::uint64_t v = rng.next();
    if (iter % 3 == 1) v &= 0xFFFF;
    if (iter % 3 == 2) v &= 0xFF;
    std::uint8_t tmp[util::kMaxVarintBytes];
    const std::size_t n = util::encode_varint(v, tmp);
    std::size_t cursor = 0;
    ASSERT_EQ(util::decode_varint(tmp, n, cursor), v);
    const std::int64_t s = static_cast<std::int64_t>(rng.next());
    ASSERT_EQ(util::zigzag_decode(util::zigzag_encode(s)), s);
  }
}

TEST(Codec, ModeNamesParse) {
  CodecMode m = CodecMode::kRaw;
  EXPECT_TRUE(comm::parse_codec_mode("full", m));
  EXPECT_EQ(m, CodecMode::kFull);
  EXPECT_TRUE(comm::parse_codec_mode("metadata", m));
  EXPECT_EQ(m, CodecMode::kMetadataOnly);
  EXPECT_TRUE(comm::parse_codec_mode("raw", m));
  EXPECT_EQ(m, CodecMode::kRaw);
  EXPECT_FALSE(comm::parse_codec_mode("zstd", m));
  for (CodecMode mode : kAllModes) {
    CodecMode back = CodecMode::kRaw;
    ASSERT_TRUE(comm::parse_codec_mode(comm::codec_mode_name(mode), back));
    EXPECT_EQ(back, mode);
  }
}

TEST(Codec, ScalarRoundTripAllModes) {
  for (CodecMode mode : kAllModes) {
    SendBuffer out;
    CodecWriter w(out, mode);
    w.u8(7);
    w.meta_u32(300);
    w.meta_u64(1ull << 40);
    w.value_u32(70000);
    w.value_u64((1ull << 50) + 3);
    w.value_i64(-123456789);
    RecvBuffer in(out.take());
    CodecReader r(in, mode);
    EXPECT_EQ(r.u8(), 7);
    EXPECT_EQ(r.meta_u32(), 300u);
    EXPECT_EQ(r.meta_u64(), 1ull << 40);
    EXPECT_EQ(r.value_u32(), 70000u);
    EXPECT_EQ(r.value_u64(), (1ull << 50) + 3);
    EXPECT_EQ(r.value_i64(), -123456789);
    EXPECT_TRUE(in.exhausted());
  }
}

TEST(Codec, RawModeMatchesFixedWidthBytes) {
  // kRaw must reproduce the historical wire byte-for-byte.
  SendBuffer legacy;
  legacy.write<std::uint32_t>(42);
  legacy.write<std::uint64_t>(9000);
  legacy.write_vector(std::vector<std::uint32_t>{5, 6, 7});
  legacy.write_vector(std::vector<double>{1.5, -2.25});

  SendBuffer coded;
  CodecWriter w(coded, CodecMode::kRaw);
  w.meta_u32(42);
  w.meta_u64(9000);
  w.sorted_u32_list({5, 6, 7});
  comm::ValueCodec<double>::write_plane(w, {1.5, -2.25});
  EXPECT_EQ(coded.bytes(), legacy.bytes());
  EXPECT_EQ(coded.raw_bytes(), coded.size());
}

TEST(Codec, U32FieldWidthViolationThrows) {
  // A 64-bit varint in a declared-u32 slot is a corrupted frame.
  SendBuffer out;
  out.write_varint(1ull << 33, 8);
  {
    RecvBuffer in(out);
    CodecReader r(in, CodecMode::kFull);
    EXPECT_THROW(r.meta_u32(), std::out_of_range);
  }
  {
    RecvBuffer in(out);
    CodecReader r(in, CodecMode::kFull);
    EXPECT_THROW(r.value_u32(), std::out_of_range);
  }
}

double from_bits(std::uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::uint64_t to_bits(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

TEST(Codec, TaggedF64BitExactEdgeCases) {
  const double kTwo53 = 9007199254740992.0;  // 2^53
  const double cases[] = {0.0,
                          -0.0,
                          1.0,
                          -1.0,
                          0.5,
                          -0.5,
                          3.0,
                          127.0,
                          128.0,
                          1e15,
                          kTwo53 - 1.0,
                          kTwo53,
                          kTwo53 + 2.0,
                          std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::quiet_NaN(),
                          std::numeric_limits<double>::denorm_min(),
                          std::numeric_limits<double>::max(),
                          -std::numeric_limits<double>::max()};
  for (CodecMode mode : kAllModes) {
    for (double v : cases) {
      SendBuffer out;
      comm::write_f64(out, v, mode);
      EXPECT_EQ(out.size(), comm::encoded_f64_size(v, mode));
      EXPECT_EQ(out.raw_bytes(), sizeof(double));
      RecvBuffer in(out.take());
      const double back = comm::read_f64(in, mode);
      // Bit-exact, including -0.0 vs 0.0 and NaN payloads.
      EXPECT_EQ(to_bits(back), to_bits(v)) << v << " mode " << static_cast<int>(mode);
      EXPECT_TRUE(in.exhausted());
    }
  }
}

TEST(Codec, TaggedF64NeverWiderThanRaw) {
  // Integral doubles compress; nothing ever exceeds the 9-byte escape
  // form, and small counts (the common sigma case) take 1-2 bytes.
  EXPECT_EQ(comm::encoded_f64_size(1.0, CodecMode::kFull), 1u);
  EXPECT_EQ(comm::encoded_f64_size(63.0, CodecMode::kFull), 1u);
  EXPECT_EQ(comm::encoded_f64_size(64.0, CodecMode::kFull), 2u);
  EXPECT_EQ(comm::encoded_f64_size(0.5, CodecMode::kFull), 9u);
  EXPECT_EQ(comm::encoded_f64_size(-0.0, CodecMode::kFull), 9u);
  EXPECT_EQ(comm::encoded_f64_size(1.0, CodecMode::kRaw), 8u);
}

TEST(Codec, CorruptedF64TagThrows) {
  // A non-escape even tag byte is not a valid tagged-integral encoding.
  SendBuffer out;
  out.write_varint(2, 8);  // even, nonzero
  RecvBuffer in(out.take());
  EXPECT_THROW(comm::read_f64(in, CodecMode::kFull), std::out_of_range);
}

TEST(Codec, TaggedF64RandomFuzz) {
  util::Xoshiro256 rng(0xF64F64ull);
  for (int iter = 0; iter < 20000; ++iter) {
    double v;
    if (iter % 2 == 0) {
      // Integral path-count-like values.
      v = static_cast<double>(rng.next_bounded(1ull << 53));
    } else {
      // Arbitrary bit patterns, NaNs and denormals included.
      v = from_bits(rng.next());
    }
    SendBuffer out;
    comm::write_f64(out, v, CodecMode::kFull);
    ASSERT_LE(out.size(), 10u);
    RecvBuffer in(out.take());
    ASSERT_EQ(to_bits(comm::read_f64(in, CodecMode::kFull)), to_bits(v));
  }
}

TEST(Codec, SortedListRoundTripAllModes) {
  const std::vector<std::vector<std::uint32_t>> lists = {
      {},
      {0},
      {0, 1, 2, 3},
      {5, 100, 101, 70000, 70001, 4000000000u},
      {4294967295u},
  };
  for (CodecMode mode : kAllModes) {
    for (const auto& list : lists) {
      SendBuffer out;
      CodecWriter w(out, mode);
      w.sorted_u32_list(list);
      RecvBuffer in(out.take());
      CodecReader r(in, mode);
      EXPECT_EQ(r.sorted_u32_list(), list);
      EXPECT_TRUE(in.exhausted());
    }
  }
}

TEST(Codec, SortedListDeltaCompresses) {
  // Dense consecutive offsets: one byte per delta after the first.
  std::vector<std::uint32_t> dense(1000);
  for (std::uint32_t i = 0; i < dense.size(); ++i) dense[i] = 500000 + i;
  SendBuffer out;
  CodecWriter w(out, CodecMode::kMetadataOnly);
  w.sorted_u32_list(dense);
  // Fixed-width would be 8 + 4000 bytes; delta varints land near 1/4 that.
  EXPECT_LT(out.size(), 1020u);
  EXPECT_EQ(out.raw_bytes(), 8u + 4u * dense.size());
}

TEST(Codec, SortedListCorruptedLengthThrows) {
  SendBuffer out;
  out.write_varint(1000, 8);  // length far beyond the remaining bytes
  out.write_varint(1, 4);
  RecvBuffer in(out.take());
  CodecReader r(in, CodecMode::kFull);
  EXPECT_THROW(r.sorted_u32_list(), std::out_of_range);
}

TEST(Codec, SortedListRandomFuzz) {
  util::Xoshiro256 rng(0x5057ull);
  for (int iter = 0; iter < 300; ++iter) {
    const std::size_t n = rng.next_bounded(200);
    std::vector<std::uint32_t> list(n);
    std::uint64_t acc = rng.next_bounded(1u << 20);
    for (auto& v : list) {
      acc = std::min<std::uint64_t>(acc + rng.next_bounded(5000), 0xFFFFFFFFull);
      v = static_cast<std::uint32_t>(acc);
    }
    for (CodecMode mode : kAllModes) {
      SendBuffer out;
      CodecWriter w(out, mode);
      w.sorted_u32_list(list);
      RecvBuffer in(out.take());
      CodecReader r(in, mode);
      ASSERT_EQ(r.sorted_u32_list(), list);
    }
  }
}

TEST(Codec, U32PlaneFrameOfReference) {
  // A plane far from zero: FoR strips the common magnitude.
  std::vector<std::uint32_t> plane(500, 3000000000u);
  for (std::uint32_t i = 0; i < plane.size(); ++i) plane[i] += i % 7;
  for (CodecMode mode : kAllModes) {
    SendBuffer out;
    CodecWriter w(out, mode);
    comm::ValueCodec<std::uint32_t>::write_plane(w, plane);
    if (mode == CodecMode::kFull) {
      // min (5 bytes) + count + one byte per residual.
      EXPECT_LT(out.size(), 520u);
      EXPECT_EQ(out.raw_bytes(), 8u + 4u * plane.size());
    } else {
      // Count prefix is 8 bytes raw, a 2-byte varint under kMetadataOnly;
      // the packed payload stays fixed-width either way.
      const std::size_t count_bytes = mode == CodecMode::kRaw ? 8u : 2u;
      EXPECT_EQ(out.size(), count_bytes + 4u * plane.size());
    }
    RecvBuffer in(out.take());
    CodecReader r(in, mode);
    EXPECT_EQ(comm::ValueCodec<std::uint32_t>::read_plane(r), plane);
    EXPECT_TRUE(in.exhausted());
  }
}

TEST(Codec, PlaneRoundTripFuzzAllModes) {
  util::Xoshiro256 rng(0x9137ull);
  for (int iter = 0; iter < 200; ++iter) {
    const std::size_t n = rng.next_bounded(64);
    std::vector<std::uint32_t> u32s(n);
    std::vector<double> f64s(n);
    for (std::size_t i = 0; i < n; ++i) {
      u32s[i] = static_cast<std::uint32_t>(rng.next());
      f64s[i] = (i % 2 == 0) ? static_cast<double>(rng.next_bounded(1u << 30))
                             : from_bits(rng.next());
    }
    for (CodecMode mode : kAllModes) {
      SendBuffer out;
      CodecWriter w(out, mode);
      comm::ValueCodec<std::uint32_t>::write_plane(w, u32s);
      comm::ValueCodec<double>::write_plane(w, f64s);
      RecvBuffer in(out.take());
      CodecReader r(in, mode);
      ASSERT_EQ(comm::ValueCodec<std::uint32_t>::read_plane(r), u32s);
      const std::vector<double> back = comm::ValueCodec<double>::read_plane(r);
      ASSERT_EQ(back.size(), f64s.size());
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(to_bits(back[i]), to_bits(f64s[i]));
      }
      ASSERT_TRUE(in.exhausted());
    }
  }
}

TEST(Codec, PresenceRoundTripBothTags) {
  util::Xoshiro256 rng(0xBEEFull);
  const std::size_t n = 512;
  // Dense (bitset tag) and sparse (offset-list tag) presence sets.
  for (double density : {0.9, 0.02}) {
    util::DynamicBitset present(n);
    std::vector<std::uint32_t> expected;
    for (std::size_t i = 0; i < n; ++i) {
      if (rng.next_bool(density)) {
        present.set(i);
        expected.push_back(static_cast<std::uint32_t>(i));
      }
    }
    // Identity exchange list: decoded lids are the presence positions.
    std::vector<graph::VertexId> list(n);
    std::iota(list.begin(), list.end(), graph::VertexId{0});
    for (CodecMode mode : kAllModes) {
      SendBuffer out;
      CodecWriter w(out, mode);
      comm::detail::write_presence(w, present.words().data(), n, expected.size());
      RecvBuffer in(out.take());
      CodecReader r(in, mode);
      std::vector<graph::VertexId> got;
      comm::detail::read_presence(r, list, got);
      EXPECT_EQ(got, expected) << "density " << density << " mode "
                               << static_cast<int>(mode);
      EXPECT_TRUE(in.exhausted());
    }
  }
}

TEST(Codec, PresenceOutsideExchangeListIsRejected) {
  // Position 300 decoded against a 100-entry exchange list is a corrupted
  // frame under either tag, never an out-of-bounds read.
  for (std::size_t set_bits : {1u, 200u}) {
    util::DynamicBitset present(512);
    for (std::size_t i = 0; i < set_bits; ++i) present.set(300 - i);
    const std::vector<graph::VertexId> list(100, 0);
    for (CodecMode mode : kAllModes) {
      SendBuffer out;
      CodecWriter w(out, mode);
      comm::detail::write_presence(w, present.words().data(), 512, set_bits);
      RecvBuffer in(out.take());
      CodecReader r(in, mode);
      std::vector<graph::VertexId> got;
      EXPECT_THROW(comm::detail::read_presence(r, list, got), std::out_of_range);
    }
  }
}

TEST(Codec, PresenceSparseCompressedUsesOffsetList) {
  // 4096 slots, 3 present: compressed metadata must pick the offset list
  // (a handful of bytes) over the 512-byte bitset.
  util::DynamicBitset present(4096);
  present.set(10);
  present.set(11);
  present.set(4000);
  SendBuffer out;
  CodecWriter w(out, CodecMode::kMetadataOnly);
  comm::detail::write_presence(w, present.words().data(), present.size(), 3);
  EXPECT_LT(out.size(), 16u);
}

TEST(Codec, EdgeBatchRoundTripAllModes) {
  stream::EdgeBatch batch;
  batch.insert(5, 9);
  batch.insert(5, 2);
  batch.erase(5, 9);
  batch.insert(1000000, 3);
  batch.insert(2, 4000000000u);
  for (CodecMode mode : kAllModes) {
    SendBuffer out;
    batch.serialize(out, mode);
    EXPECT_EQ(out.size(), batch.wire_bytes(mode));
    if (mode == CodecMode::kRaw) {
      EXPECT_EQ(out.size(), batch.wire_bytes());
    }
    RecvBuffer in(out.take());
    const stream::EdgeBatch back = stream::EdgeBatch::deserialize(in, mode);
    EXPECT_EQ(back.ops, batch.ops);
    EXPECT_TRUE(in.exhausted());
  }
}

TEST(Codec, EdgeBatchRandomFuzz) {
  util::Xoshiro256 rng(0xEDull);
  for (int iter = 0; iter < 100; ++iter) {
    stream::EdgeBatch batch;
    const std::size_t n = rng.next_bounded(64);
    std::uint32_t hot = static_cast<std::uint32_t>(rng.next_bounded(1u << 24));
    for (std::size_t i = 0; i < n; ++i) {
      // Cluster around a drifting hot vertex like real churn does.
      if (rng.next_bool(0.2)) hot = static_cast<std::uint32_t>(rng.next());
      const std::uint32_t dst = static_cast<std::uint32_t>(rng.next());
      if (rng.next_bool(0.3)) {
        batch.erase(hot, dst);
      } else {
        batch.insert(hot, dst);
      }
    }
    for (CodecMode mode : kAllModes) {
      SendBuffer out;
      batch.serialize(out, mode);
      ASSERT_EQ(out.size(), batch.wire_bytes(mode));
      RecvBuffer in(out.take());
      ASSERT_EQ(stream::EdgeBatch::deserialize(in, mode).ops, batch.ops);
    }
  }
}

}  // namespace
}  // namespace mrbc
