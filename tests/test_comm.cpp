// Tests for the Gluon-like communication substrate: reduce/broadcast
// correctness against a direct computation, reduce-reset semantics, update
// tracking, and exact byte/message accounting.

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "comm/substrate.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "test_helpers.h"

namespace mrbc::comm {
namespace {

using graph::Graph;
using graph::VertexId;
using partition::Partition;
using partition::Policy;

/// A simple "sum across proxies" label: mirrors accumulate partials; the
/// master holds the total; broadcast pushes the total back.
struct SumAccessor {
  using Value = double;
  std::vector<std::vector<double>>& labels;

  Value get(HostId h, VertexId lid) { return labels[h][lid]; }
  void reduce(HostId h, VertexId lid, Value v) { labels[h][lid] += v; }
  void set(HostId h, VertexId lid, Value v) { labels[h][lid] = v; }
  void reset(HostId h, VertexId lid) { labels[h][lid] = 0.0; }
};

struct MinAccessor {
  using Value = std::uint32_t;
  std::vector<std::vector<std::uint32_t>>& labels;

  Value get(HostId h, VertexId lid) { return labels[h][lid]; }
  void reduce(HostId h, VertexId lid, Value v) { labels[h][lid] = std::min(labels[h][lid], v); }
  void set(HostId h, VertexId lid, Value v) { labels[h][lid] = v; }
  void reset(HostId h, VertexId lid) { labels[h][lid] = graph::kInfDist; }
};

Partition make_partition(HostId hosts = 4) {
  static Graph g = graph::rmat({.scale = 6, .edge_factor = 5.0, .seed = 7});
  return Partition(g, hosts, Policy::kCartesianVertexCut);
}

TEST(Substrate, SumReduceBroadcastMatchesDirectSum) {
  Partition part = make_partition();
  Substrate sub(part);
  std::vector<std::vector<double>> labels(part.num_hosts());
  // Every proxy contributes h + 1 (arbitrary but distinct per host).
  std::vector<double> expected(part.num_global_vertices(), 0.0);
  for (HostId h = 0; h < part.num_hosts(); ++h) {
    labels[h].assign(part.host(h).num_proxies(), 0.0);
    for (VertexId l = 0; l < part.host(h).num_proxies(); ++l) {
      labels[h][l] = h + 1.0;
      expected[part.host(h).local_to_global[l]] += h + 1.0;
      sub.flag_reduce(h, l);
      if (part.host(h).is_master[l]) sub.flag_broadcast(h, l);
    }
  }
  SumAccessor acc{labels};
  sub.sync(acc);
  // All proxies must now hold the cross-host total.
  for (HostId h = 0; h < part.num_hosts(); ++h) {
    for (VertexId l = 0; l < part.host(h).num_proxies(); ++l) {
      EXPECT_DOUBLE_EQ(labels[h][l], expected[part.host(h).local_to_global[l]])
          << "host " << h << " lid " << l;
    }
  }
}

TEST(Substrate, ReduceResetPreventsDoubleCounting) {
  Partition part = make_partition();
  Substrate sub(part);
  std::vector<std::vector<double>> labels(part.num_hosts());
  for (HostId h = 0; h < part.num_hosts(); ++h) {
    labels[h].assign(part.host(h).num_proxies(), 1.0);
    for (VertexId l = 0; l < part.host(h).num_proxies(); ++l) sub.flag_reduce(h, l);
  }
  SumAccessor acc{labels};
  sub.reduce(acc);
  // Mirrors were reset; flagging and reducing again must not change masters.
  std::vector<double> after_first(part.num_global_vertices());
  for (HostId h = 0; h < part.num_hosts(); ++h) {
    for (VertexId l = 0; l < part.host(h).num_proxies(); ++l) {
      if (part.host(h).is_master[l]) after_first[part.host(h).local_to_global[l]] = labels[h][l];
      sub.flag_reduce(h, l);
    }
  }
  // Clear broadcast flags produced by the second wave of reduce arrivals.
  sub.reduce(acc);
  for (HostId h = 0; h < part.num_hosts(); ++h) {
    for (VertexId l = 0; l < part.host(h).num_proxies(); ++l) {
      if (part.host(h).is_master[l]) {
        EXPECT_DOUBLE_EQ(labels[h][l], after_first[part.host(h).local_to_global[l]]);
      }
    }
  }
}

TEST(Substrate, MinReduction) {
  Partition part = make_partition();
  Substrate sub(part);
  std::vector<std::vector<std::uint32_t>> labels(part.num_hosts());
  std::vector<std::uint32_t> expected(part.num_global_vertices(), graph::kInfDist);
  for (HostId h = 0; h < part.num_hosts(); ++h) {
    labels[h].assign(part.host(h).num_proxies(), graph::kInfDist);
    for (VertexId l = 0; l < part.host(h).num_proxies(); ++l) {
      const VertexId gv = part.host(h).local_to_global[l];
      const std::uint32_t value = (gv * 7 + h * 13) % 100;
      labels[h][l] = value;
      expected[gv] = std::min(expected[gv], value);
      sub.flag_reduce(h, l);
      if (part.host(h).is_master[l]) sub.flag_broadcast(h, l);
    }
  }
  MinAccessor acc{labels};
  sub.sync(acc);
  for (HostId h = 0; h < part.num_hosts(); ++h) {
    for (VertexId l = 0; l < part.host(h).num_proxies(); ++l) {
      EXPECT_EQ(labels[h][l], expected[part.host(h).local_to_global[l]]);
    }
  }
}

TEST(Substrate, NoFlagsMeansNoTraffic) {
  Partition part = make_partition();
  Substrate sub(part);
  std::vector<std::vector<double>> labels(part.num_hosts());
  for (HostId h = 0; h < part.num_hosts(); ++h) {
    labels[h].assign(part.host(h).num_proxies(), 5.0);
  }
  SumAccessor acc{labels};
  SyncStats stats = sub.sync(acc);
  EXPECT_EQ(stats.messages, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_EQ(stats.values, 0u);
  EXPECT_FALSE(sub.any_pending());
}

TEST(Substrate, UpdateTrackingSendsOnlyFlaggedValues) {
  Partition part = make_partition();
  Substrate sub(part);
  std::vector<std::vector<double>> labels(part.num_hosts());
  for (HostId h = 0; h < part.num_hosts(); ++h) {
    labels[h].assign(part.host(h).num_proxies(), 1.0);
  }
  // Flag exactly one mirror.
  HostId flagged_host = 0;
  VertexId flagged_lid = 0;
  bool found = false;
  for (HostId h = 0; h < part.num_hosts() && !found; ++h) {
    for (VertexId l = 0; l < part.host(h).num_proxies() && !found; ++l) {
      if (!part.host(h).is_master[l]) {
        flagged_host = h;
        flagged_lid = l;
        found = true;
      }
    }
  }
  ASSERT_TRUE(found);
  sub.flag_reduce(flagged_host, flagged_lid);
  SumAccessor acc{labels};
  SyncStats stats = sub.reduce(acc);
  EXPECT_EQ(stats.messages, 1u);
  EXPECT_EQ(stats.values, 1u);
  // Metadata bitset + one double + headers; small but nonzero.
  EXPECT_GT(stats.bytes, sizeof(double));
}

TEST(Substrate, BytesPerHostTracksEgress) {
  Partition part = make_partition();
  Substrate sub(part);
  std::vector<std::vector<double>> labels(part.num_hosts());
  for (HostId h = 0; h < part.num_hosts(); ++h) {
    labels[h].assign(part.host(h).num_proxies(), 1.0);
    for (VertexId l = 0; l < part.host(h).num_proxies(); ++l) sub.flag_reduce(h, l);
  }
  SumAccessor acc{labels};
  SyncStats stats = sub.reduce(acc);
  ASSERT_EQ(stats.bytes_per_host.size(), part.num_hosts());
  std::size_t sum = 0;
  for (std::size_t b : stats.bytes_per_host) sum += b;
  EXPECT_EQ(sum, stats.bytes);
}

TEST(Substrate, PendingFlagsAndClear) {
  Partition part = make_partition();
  Substrate sub(part);
  EXPECT_FALSE(sub.any_pending());
  sub.flag_reduce(0, 0);
  EXPECT_TRUE(sub.any_pending());
  sub.clear_flags();
  EXPECT_FALSE(sub.any_pending());
}

/// Runs one flagged sum-sync under `mode`, returning the stats and the
/// decoded label state.
std::pair<SyncStats, std::vector<std::vector<double>>> sum_sync_under(CodecMode mode) {
  Partition part = make_partition();
  Substrate sub(part);
  DeliveryOptions opts;
  opts.codec = mode;
  sub.set_delivery(opts);
  std::vector<std::vector<double>> labels(part.num_hosts());
  for (HostId h = 0; h < part.num_hosts(); ++h) {
    labels[h].assign(part.host(h).num_proxies(), 0.0);
    for (VertexId l = 0; l < part.host(h).num_proxies(); ++l) {
      labels[h][l] = h + 1.0;  // integral: the tagged-f64 fast path
      sub.flag_reduce(h, l);
      if (part.host(h).is_master[l]) sub.flag_broadcast(h, l);
    }
  }
  SumAccessor acc{labels};
  SyncStats stats = sub.sync(acc);
  return {std::move(stats), std::move(labels)};
}

TEST(Substrate, CodecModesDecodeIdenticallyAndOnlyBytesShrink) {
  const auto [raw_stats, raw_labels] = sum_sync_under(CodecMode::kRaw);
  for (CodecMode mode : {CodecMode::kMetadataOnly, CodecMode::kFull}) {
    const auto [stats, labels] = sum_sync_under(mode);
    // Decoded state is bit-identical; only the wire size changes.
    EXPECT_EQ(labels, raw_labels) << codec_mode_name(mode);
    EXPECT_EQ(stats.messages, raw_stats.messages);
    EXPECT_EQ(stats.values, raw_stats.values);
    // raw_bytes is the fixed-width equivalent of the encoding actually
    // chosen (the adaptive presence pick can differ per mode), so it is
    // not mode-invariant — but the wire itself must strictly shrink.
    EXPECT_GE(stats.raw_bytes, stats.bytes);
    EXPECT_LT(stats.bytes, raw_stats.bytes) << codec_mode_name(mode);
  }
}

TEST(Substrate, RawBytesAccounting) {
  // Under kRaw the denominator equals the wire: no compression happened.
  const auto [raw_stats, raw_labels] = sum_sync_under(CodecMode::kRaw);
  EXPECT_EQ(raw_stats.raw_bytes, raw_stats.bytes);
  EXPECT_GT(raw_stats.bytes, 0u);
  // kFull ships integral doubles as 1-2 byte varints: a real reduction
  // against its own fixed-width denominator.
  const auto [full_stats, full_labels] = sum_sync_under(CodecMode::kFull);
  EXPECT_LT(full_stats.bytes, full_stats.raw_bytes);
  EXPECT_LT(full_stats.bytes, raw_stats.bytes);
}

TEST(Substrate, SingleHostHasNoTrafficButClearsFlags) {
  Graph g = graph::erdos_renyi(30, 0.1, 3);
  Partition part(g, 1, Policy::kEdgeCutSrc);
  Substrate sub(part);
  std::vector<std::vector<double>> labels(1);
  labels[0].assign(part.host(0).num_proxies(), 2.0);
  for (VertexId l = 0; l < part.host(0).num_proxies(); ++l) {
    sub.flag_reduce(0, l);
    sub.flag_broadcast(0, l);
  }
  SumAccessor acc{labels};
  SyncStats stats = sub.sync(acc);
  EXPECT_EQ(stats.messages, 0u);
  EXPECT_FALSE(sub.any_pending()) << "flags must be consumed even with no peers";
}

// ---- Golden wire test ------------------------------------------------------
//
// Pins the exact traffic and decoded state of the substrate's four sync
// templates over every partition policy and codec, so a change to how a
// phase stages, serializes or applies its messages cannot silently move a
// byte. Each case runs two rounds on one Substrate — a seeded sparse flag
// pattern (~1% of proxies), then a dense one (~60%) — through either the
// fixed-width `sync` (a double sum and a uint32 min label) or
// `reduce_var`/`broadcast_var` (variable-length uint32 lists plus a double),
// under either framed reliable delivery with injected drops, duplicates and
// corruption, or a placement that co-locates half of the host pairs.
//
// Set MRBC_PRINT_GOLDEN=1 to print the table instead of checking it.

/// FNV-1a over 64-bit words.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  }
  void add(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    add(bits);
  }
};

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Seeded message-level faults: every consultation draws from a counter, so
/// the schedule depends only on the (deterministic) call order.
class SeededFaults final : public ChannelFaults {
 public:
  bool drop(HostId src, HostId dst, std::uint64_t seq) override {
    return draw(src, dst, seq) % 100 < 15;
  }
  bool duplicate(HostId src, HostId dst, std::uint64_t seq) override {
    return draw(src, dst, seq) % 100 < 10;
  }
  long corrupt_bit(HostId src, HostId dst, std::uint64_t seq, std::size_t payload_bytes) override {
    const std::uint64_t r = draw(src, dst, seq);
    if (r % 100 >= 10) return -1;
    return static_cast<long>((r >> 8) % (payload_bytes * 8));
  }

 private:
  std::uint64_t draw(HostId src, HostId dst, std::uint64_t seq) {
    return mix64(++calls_ ^ (std::uint64_t{src} << 48) ^ (std::uint64_t{dst} << 32) ^ seq);
  }
  std::uint64_t calls_ = 0;
};

/// Variable-length label: a list of uint32 items plus a double weight.
/// Reduce appends the mirror's items to the master and adds the weights
/// (and resets the mirror); broadcast replaces the mirror's label.
struct ListLabel {
  std::vector<std::uint32_t> items;
  double weight = 0.0;
};

struct ListAccessor {
  std::vector<std::vector<ListLabel>>& labels;

  void serialize_reduce(HostId h, VertexId lid, CodecWriter& w) {
    ListLabel& l = labels[h][lid];
    w.meta_u32(static_cast<std::uint32_t>(l.items.size()));
    for (std::uint32_t x : l.items) w.value_u32(x);
    w.f64(l.weight);
    l = ListLabel{};  // reduce-reset
  }
  void apply_reduce(HostId h, VertexId lid, CodecReader& r) {
    ListLabel& l = labels[h][lid];
    const std::uint32_t n = r.meta_u32();
    for (std::uint32_t i = 0; i < n; ++i) l.items.push_back(r.value_u32());
    l.weight += r.f64();
  }
  void serialize_broadcast(HostId h, VertexId lid, CodecWriter& w) {
    const ListLabel& l = labels[h][lid];
    w.meta_u32(static_cast<std::uint32_t>(l.items.size()));
    for (std::uint32_t x : l.items) w.value_u32(x);
    w.f64(l.weight);
  }
  void apply_broadcast(HostId h, VertexId lid, CodecReader& r) {
    ListLabel& l = labels[h][lid];
    l.items.resize(r.meta_u32());
    for (auto& x : l.items) x = r.value_u32();
    l.weight = r.f64();
  }
};

struct GoldenRow {
  std::size_t messages, bytes, raw_bytes, values;
  std::uint64_t stats_digest;  ///< per-host vectors, local and fault counters
  std::uint64_t label_digest;  ///< decoded labels on every proxy
};

struct GoldenResult {
  SyncStats stats;
  std::uint64_t label_digest = 0;
};

std::uint64_t stats_digest(const SyncStats& s) {
  Digest d;
  for (std::size_t b : s.bytes_per_host) d.add(std::uint64_t{b});
  for (std::size_t m : s.msgs_per_host) d.add(std::uint64_t{m});
  for (std::size_t v : {s.local_messages, s.local_bytes, s.drops, s.duplicates,
                        s.duplicates_suppressed, s.corruptions_detected, s.retransmits,
                        s.retransmit_bytes, s.backoff_steps, s.forced_deliveries}) {
    d.add(std::uint64_t{v});
  }
  return d.h;
}

/// One golden case: two rounds (sparse, then dense flags) on one Substrate.
GoldenResult run_golden_case(const Partition& part, CodecMode codec, bool faulty, bool var) {
  const HostId H = part.num_hosts();
  Substrate sub(part);
  SeededFaults faults;
  DeliveryOptions opts;
  opts.codec = codec;
  if (faulty) {
    opts.reliable = true;
    opts.faults = &faults;
    opts.max_attempts = 4;
  } else {
    sub.set_placement({0, 0, 1, 1, 2, 2});  // pairs (0,1), (2,3), (4,5) are local
  }
  sub.set_delivery(opts);

  std::vector<std::vector<double>> sums(H);
  std::vector<std::vector<std::uint32_t>> mins(H);
  std::vector<std::vector<ListLabel>> lists(H);
  for (HostId h = 0; h < H; ++h) {
    const VertexId np = part.host(h).num_proxies();
    sums[h].resize(np);
    mins[h].resize(np);
    lists[h].resize(np);
    for (VertexId l = 0; l < np; ++l) {
      const std::uint64_t r = mix64((std::uint64_t{h} << 32) | l);
      // Mix integral and fractional doubles (both tagged-f64 wire forms).
      sums[h][l] = (r & 1) ? static_cast<double>(r % 97) : static_cast<double>(r % 1000) / 7.0;
      mins[h][l] = static_cast<std::uint32_t>(1000 + (r >> 20) % 5000);
      lists[h][l].items.assign((r >> 40) % 4, static_cast<std::uint32_t>(r % 100000));
      lists[h][l].weight = static_cast<double>(r % 13) * 0.25;
    }
  }

  GoldenResult out;
  SumAccessor sum_acc{sums};
  MinAccessor min_acc{mins};
  ListAccessor list_acc{lists};
  for (const std::uint64_t percent : {std::uint64_t{1}, std::uint64_t{60}}) {
    auto flag = [&](std::uint64_t salt) {
      for (HostId h = 0; h < H; ++h) {
        for (VertexId l = 0; l < part.host(h).num_proxies(); ++l) {
          const std::uint64_t r = mix64(salt ^ (percent << 56) ^ (std::uint64_t{h} << 32) ^ l);
          if (r % 100 < percent) sub.flag_reduce(h, l);
          if (part.host(h).is_master[l] && (r >> 32) % 100 < percent) sub.flag_broadcast(h, l);
        }
      }
    };
    if (var) {
      flag(0x11);
      out.stats += sub.reduce_var(list_acc);
      out.stats += sub.broadcast_var(list_acc);
    } else {
      flag(0x22);
      out.stats += sub.sync(sum_acc);
      flag(0x33);
      out.stats += sub.sync(min_acc);
    }
    EXPECT_FALSE(sub.any_pending());
  }

  Digest d;
  for (HostId h = 0; h < H; ++h) {
    for (VertexId l = 0; l < part.host(h).num_proxies(); ++l) {
      if (var) {
        d.add(std::uint64_t{lists[h][l].items.size()});
        for (std::uint32_t x : lists[h][l].items) d.add(std::uint64_t{x});
        d.add(lists[h][l].weight);
      } else {
        d.add(sums[h][l]);
        d.add(std::uint64_t{mins[h][l]});
      }
    }
  }
  out.label_digest = d.h;
  return out;
}

// Recorded on the substrate that scanned whole exchange lists per pair
// (before per-lid exchange positions); order: policy, codec, delivery
// (faulty, co-located), flavor (fixed, var).
constexpr GoldenRow kGoldenRows[] = {
    {158, 13966, 13966, 1211, 0x4a668b65a1344ffbULL, 0x5578d7945210773bULL},
    {81, 18121, 18121, 612, 0xee2e14da7e3feb09ULL, 0xc54e12cbb4c58891ULL},
    {132, 9492, 9492, 1211, 0x8ec48f6010ae6eebULL, 0x5578d7945210773bULL},
    {67, 13119, 13119, 612, 0x6b95d2fcfc2f6c0aULL, 0xc54e12cbb4c58891ULL},
    {158, 10863, 14634, 1211, 0x030f1313925c4e5aULL, 0x5578d7945210773bULL},
    {81, 15237, 18445, 612, 0x2c829cd543a8e4d0ULL, 0xc54e12cbb4c58891ULL},
    {132, 6844, 10144, 1211, 0xace77b3776fc1e94ULL, 0x5578d7945210773bULL},
    {67, 10839, 13435, 612, 0x0fc268751288c1c9ULL, 0xc54e12cbb4c58891ULL},
    {158, 8337, 14634, 1211, 0x8ab53f501a0c9d90ULL, 0x5578d7945210773bULL},
    {81, 11927, 18445, 612, 0xe58c660fe9d148abULL, 0xc54e12cbb4c58891ULL},
    {132, 5027, 10144, 1211, 0x20ceeb138f14ad2bULL, 0x5578d7945210773bULL},
    {67, 8347, 13435, 612, 0x8ad9d25ad3d9fbf0ULL, 0xc54e12cbb4c58891ULL},
    {155, 13923, 13923, 1213, 0xfb4a09ea7fe76b1cULL, 0x738da6b23f3b63a5ULL},
    {84, 17992, 17992, 601, 0xe01f7874d2e2b670ULL, 0xf535144ca690c06eULL},
    {129, 9733, 9733, 1213, 0x76941b183aa092f1ULL, 0x738da6b23f3b63a5ULL},
    {70, 13562, 13562, 601, 0xd05565da2e1ff979ULL, 0xf535144ca690c06eULL},
    {155, 10877, 14499, 1213, 0xbe00abf5398b57d7ULL, 0x738da6b23f3b63a5ULL},
    {84, 15091, 18196, 601, 0x29b2ca8e449283deULL, 0xf535144ca690c06eULL},
    {129, 7179, 10249, 1213, 0x1a6e9ee4186ac785ULL, 0x738da6b23f3b63a5ULL},
    {70, 11213, 13786, 601, 0xf2a7008c27dd83adULL, 0xf535144ca690c06eULL},
    {155, 8548, 14499, 1213, 0xa6cf5f2780cf42a1ULL, 0x738da6b23f3b63a5ULL},
    {84, 12139, 18196, 601, 0xfdf7c6da449f0dcbULL, 0xf535144ca690c06eULL},
    {129, 5320, 10249, 1213, 0xaf1af1d26730c0b9ULL, 0x738da6b23f3b63a5ULL},
    {70, 8870, 13786, 601, 0xcf29dc70101c13fbULL, 0xf535144ca690c06eULL},
    {108, 11456, 11456, 1142, 0x42510ab46385dbbbULL, 0x42cd8e079e288e1eULL},
    {54, 15766, 15766, 580, 0x9e08bf85223efbdeULL, 0x7ceaa7f309811383ULL},
    {84, 7904, 7904, 1142, 0x9b2425b46f5d99a7ULL, 0x42cd8e079e288e1eULL},
    {42, 11590, 11590, 580, 0x20ab0329d198f0d7ULL, 0x7ceaa7f309811383ULL},
    {108, 9645, 12184, 1142, 0xa10d37062fa6d166ULL, 0x42cd8e079e288e1eULL},
    {54, 13448, 16130, 580, 0x089239c0119bf2dbULL, 0x7ceaa7f309811383ULL},
    {84, 6523, 8532, 1142, 0x52feb81760647a7bULL, 0x42cd8e079e288e1eULL},
    {42, 9802, 11942, 580, 0x033c491075b3ad36ULL, 0x7ceaa7f309811383ULL},
    {108, 7329, 12184, 1142, 0x42e400706960c22eULL, 0x42cd8e079e288e1eULL},
    {54, 10626, 16130, 580, 0xd4ae217a214780a4ULL, 0x7ceaa7f309811383ULL},
    {84, 4773, 8532, 1142, 0x9edfbf54bc4c0ba3ULL, 0x42cd8e079e288e1eULL},
    {42, 7616, 11942, 580, 0x8366ebfaa1cbdfaaULL, 0x7ceaa7f309811383ULL},
    {160, 14444, 14444, 1254, 0x1ff7f19259cdf1c6ULL, 0x0ff6a5ef054c9e9dULL},
    {84, 18444, 18444, 631, 0x2f6a96cbef4391acULL, 0xf219e13b15a6c496ULL},
    {128, 9896, 9896, 1254, 0x81e241d41f9ee73cULL, 0x0ff6a5ef054c9e9dULL},
    {68, 13628, 13628, 631, 0x42775b93c576a4bdULL, 0xf219e13b15a6c496ULL},
    {160, 11287, 15540, 1254, 0x60877544c2354f35ULL, 0x0ff6a5ef054c9e9dULL},
    {84, 15482, 19104, 631, 0xfb3627252dffb9d4ULL, 0xf219e13b15a6c496ULL},
    {128, 7397, 10632, 1254, 0xaca8a00a1692afd5ULL, 0x0ff6a5ef054c9e9dULL},
    {68, 11269, 14100, 631, 0x8c1e5b64d29cb53eULL, 0xf219e13b15a6c496ULL},
    {160, 8765, 15540, 1254, 0xaa0808d3fa979048ULL, 0x0ff6a5ef054c9e9dULL},
    {84, 12170, 19104, 631, 0x1b87614a7e942cdaULL, 0xf219e13b15a6c496ULL},
    {128, 5366, 10632, 1254, 0xf3ef88c375112756ULL, 0x0ff6a5ef054c9e9dULL},
    {68, 8726, 14100, 631, 0x0a9e49b853aa42b1ULL, 0xf219e13b15a6c496ULL},
    {176, 19104, 19104, 1921, 0xee45f5ceed3cb9d0ULL, 0x69c20fa2fe32a416ULL},
    {93, 28989, 28989, 965, 0xba6131ff04f1d7f5ULL, 0xc587e7e704bc337dULL},
    {140, 13360, 13360, 1921, 0x6b2d172fe2c0e178ULL, 0x69c20fa2fe32a416ULL},
    {77, 22017, 22017, 965, 0x9632c7ff5f2a0ab9ULL, 0xc587e7e704bc337dULL},
    {176, 16079, 20200, 1921, 0x8e060c7368520406ULL, 0x69c20fa2fe32a416ULL},
    {93, 25103, 29425, 965, 0x8f9366c48f580e98ULL, 0xc587e7e704bc337dULL},
    {140, 10933, 14272, 1921, 0xf52c4ae974aec859ULL, 0x69c20fa2fe32a416ULL},
    {77, 18880, 22429, 965, 0x2e715ea59124ef7bULL, 0xc587e7e704bc337dULL},
    {176, 12424, 20200, 1921, 0xb28b5e1f164cefa4ULL, 0x69c20fa2fe32a416ULL},
    {93, 19692, 29425, 965, 0x471cdbe57fa44362ULL, 0xc587e7e704bc337dULL},
    {140, 8057, 14272, 1921, 0x390ee8f93f9302deULL, 0x69c20fa2fe32a416ULL},
    {77, 14638, 22429, 965, 0x891d017942dc0672ULL, 0xc587e7e704bc337dULL},
};

TEST(Substrate, GoldenWireAcrossPoliciesCodecsAndDelivery) {
  static const Graph g = graph::rmat({.scale = 8, .edge_factor = 6.0, .seed = 11});
  const bool print = std::getenv("MRBC_PRINT_GOLDEN") != nullptr;
  std::size_t row = 0;
  for (Policy policy : {Policy::kEdgeCutSrc, Policy::kEdgeCutDst, Policy::kCartesianVertexCut,
                        Policy::kGeneralVertexCut, Policy::kRandomEdge}) {
    const Partition part(g, 6, policy);
    for (CodecMode codec : {CodecMode::kRaw, CodecMode::kMetadataOnly, CodecMode::kFull}) {
      for (bool faulty : {true, false}) {
        for (bool var : {false, true}) {
          const GoldenResult r = run_golden_case(part, codec, faulty, var);
          const GoldenRow got{r.stats.messages, r.stats.bytes,   r.stats.raw_bytes,
                              r.stats.values,   stats_digest(r.stats), r.label_digest};
          if (print) {
            std::printf("    {%zu, %zu, %zu, %zu, 0x%016llxULL, 0x%016llxULL},\n", got.messages,
                        got.bytes, got.raw_bytes, got.values,
                        static_cast<unsigned long long>(got.stats_digest),
                        static_cast<unsigned long long>(got.label_digest));
            continue;
          }
          SCOPED_TRACE(partition::to_string(policy) + " " + codec_mode_name(codec) +
                       (faulty ? " faulty" : " co-located") + (var ? " var" : " fixed"));
          ASSERT_LT(row, std::size(kGoldenRows));
          const GoldenRow& want = kGoldenRows[row++];
          EXPECT_GT(got.messages, 0u);
          EXPECT_EQ(got.messages, want.messages);
          EXPECT_EQ(got.bytes, want.bytes);
          EXPECT_EQ(got.raw_bytes, want.raw_bytes);
          EXPECT_EQ(got.values, want.values);
          EXPECT_EQ(got.stats_digest, want.stats_digest);
          EXPECT_EQ(got.label_digest, want.label_digest);
        }
      }
    }
  }
  if (!print) {
    EXPECT_EQ(row, std::size(kGoldenRows));
  }
}

}  // namespace
}  // namespace mrbc::comm
