#pragma once
// Gluon-style communication substrate over a Partition (Dathathri et al.,
// PLDI'18 — the layer the paper's D-Galois implementation runs on).
//
// Proxy labels are reconciled in two phases:
//   reduce:    mirrors send their (flagged) values to the master, which
//              combines them with an application reduction; mirror values
//              are reset to the reduction identity after sending (Gluon's
//              reduce-reset semantics, which is what makes partial sigma /
//              delta sums safe to add).
//   broadcast: masters send their (flagged) final values to all mirrors.
//
// Update tracking: the application sets per-proxy flags; only flagged
// entries are serialized. Metadata compression is modelled exactly as in
// Gluon: each host-pair message carries a bitset over the exchange list
// marking which entries are present, plus the packed values.
//
// All traffic flows through real serialization buffers so byte counts are
// measured, not estimated.
//
// Delivery modes: by default the simulated wire is lossless and messages
// are applied directly (zero framing overhead — byte counts match Gluon's
// payload accounting). With DeliveryOptions the substrate frames every
// host-pair message as [seq:u64][crc32:u32][payload] and can run a
// reliable-delivery protocol against an injected fault model:
//   - CRC32 over the payload detects corruption (frames failing the check
//     are counted and discarded, never applied);
//   - per-(src,dst) sequence numbers suppress duplicate deliveries;
//   - in reliable mode, lost/corrupt frames are retransmitted with
//     exponential backoff, bounded by max_attempts; the final attempt
//     models an escalated verified path so delivery is guaranteed, which
//     is what keeps the MRBC delayed-synchronization schedule (every label
//     arrives in its prescribed round, Lemmas 7-8) intact under faults.
// Retransmit/duplicate traffic is accounted separately in SyncStats so the
// engine's NetworkModel can cost it without distorting the headline
// payload-byte comparisons.
//
// Execution: each sync phase costs O(flagged proxies + hosts^2), not
// O(exchange lists). Staging walks each host's flag words once (hosts in
// parallel on the shared util::ThreadPool) and, through the Partition's
// per-lid exchange index, sets the proxy's bit in the presence bitset of
// every pair message it belongs to; host h only writes the pairs it sends
// on. Serialization of the active (non-empty) pairs then fans out across
// the pool — every mirror lid belongs to exactly one pair and reduce-reset
// touches only that pair's mirrors, so any interleaving serializes
// identical bytes — into per-pair SendBuffers that keep their allocations
// across rounds; it visits only the set positions and leaves the presence
// bitsets all-zero again. Delivery then walks the pairs sequentially in the
// historical loop order (reduce: mirror-host major; broadcast: master-host
// major), and each receiver applies entries in ascending exchange position,
// so ChannelFaults consultation order, sequence numbers, SyncStats
// accounting, and apply order are all bit-identical to a single-threaded
// engine that scans every exchange list.

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/codec.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "partition/partition.h"
#include "util/bitset.h"
#include "util/serialize.h"
#include "util/thread_pool.h"

namespace mrbc::comm {

using partition::HostId;
using partition::Partition;
using partition::VertexId;

/// Gluon metadata compression: the presence set of a host-pair message is
/// encoded either as a bitset over the exchange list or as an explicit
/// offset list, whichever is smaller on the wire (dense rounds favor the
/// bitset, sparse rounds the offsets).
namespace detail {

using Word = util::DynamicBitset::Word;

inline std::size_t words_for(std::size_t num_bits) { return (num_bits + 63) / 64; }

/// Writes the presence set held in `words` (`num_bits` positions, `count`
/// of them set).
inline void write_presence(CodecWriter& w, const Word* words, std::size_t num_bits,
                           std::size_t count) {
  const std::size_t num_words = words_for(num_bits);
  auto for_each = [&](auto&& emit) {
    util::bitwords::for_each_set_bit(words, num_words,
                                     [&](std::size_t i) { emit(static_cast<std::uint32_t>(i)); });
  };
  const std::size_t bitset_bytes = 8 + num_words * sizeof(Word);
  std::size_t offsets_bytes = 8 + count * sizeof(std::uint32_t);
  if (compress_metadata(w.mode())) {
    // Compressed metadata: the offset list is delta + varint encoded, so
    // compare the bitset against the *encoded* list size — sparse rounds
    // tip toward offsets much earlier than under fixed-width accounting.
    offsets_bytes = util::varint_size(count);
    std::uint32_t prev = 0;
    for_each([&](std::uint32_t v) {
      offsets_bytes += util::varint_size(v - prev);
      prev = v;
    });
  }
  if (bitset_bytes <= offsets_bytes) {
    w.u8(0);
    w.buffer().write_bitset(words, num_words, num_bits);
  } else {
    w.u8(1);
    w.sorted_u32_list(count, for_each);
  }
}

/// Decodes a received presence set in place (no bitset or offset vector is
/// materialized) and appends, in ascending position order, the receiver's
/// lid `list[pos]` of every present position to `lids` (cleared first). A
/// position outside the exchange list is a corrupted frame.
inline void read_presence(CodecReader& r, const std::vector<VertexId>& list,
                          std::vector<VertexId>& lids) {
  lids.clear();
  auto emit = [&](std::uint64_t pos) {
    if (pos >= list.size()) {
      throw std::out_of_range("substrate: presence position " + std::to_string(pos) +
                              " outside an exchange list of " + std::to_string(list.size()));
    }
    lids.push_back(list[pos]);
  };
  if (r.u8() != 0) {
    r.for_each_sorted_u32(emit);
    return;
  }
  util::RecvBuffer& in = r.buffer();
  in.read<std::uint64_t>();  // bit count; emit() bounds the positions instead
  const auto num_words = in.read<std::uint64_t>();
  if (num_words > in.remaining() / sizeof(Word)) {
    throw std::out_of_range("substrate: truncated presence bitset");
  }
  for (std::uint64_t i = 0; i < num_words; ++i) {
    for (Word word = in.read<Word>(); word != 0; word &= word - 1) {
      emit(i * 64 + static_cast<unsigned>(__builtin_ctzll(word)));
    }
  }
}

}  // namespace detail

/// Message-level fault source consulted by the delivery layer. Implemented
/// by sim::FaultInjector; the interface lives here so the comm layer does
/// not depend on the engine. All methods are called in a deterministic
/// order (host-pair loops are sequential), so seeded implementations give
/// reproducible fault schedules.
class ChannelFaults {
 public:
  virtual ~ChannelFaults() = default;
  /// True: this transmission attempt is lost on the wire.
  virtual bool drop(HostId src, HostId dst, std::uint64_t seq) = 0;
  /// True: the frame is delivered twice.
  virtual bool duplicate(HostId src, HostId dst, std::uint64_t seq) = 0;
  /// Bit index (into the payload) to flip in transit, or -1 for a clean
  /// delivery. Only payload bits are damaged, which CRC32 always detects.
  virtual long corrupt_bit(HostId src, HostId dst, std::uint64_t seq,
                           std::size_t payload_bytes) = 0;
};

/// Configuration of the delivery layer. Defaults reproduce the historical
/// lossless direct-apply path bit-for-bit (no framing bytes).
struct DeliveryOptions {
  /// Frame messages as [seq][crc32][payload] even without faults (adds 12
  /// bytes per host-pair message). Implied by `reliable` or `faults`.
  bool framing = false;
  /// Retransmit lost/corrupt frames until delivered (bounded by
  /// max_attempts; the last attempt is escalated and cannot fail).
  bool reliable = false;
  /// Fault source, or nullptr for a clean wire. Non-owning.
  ChannelFaults* faults = nullptr;
  /// Total transmission attempts per frame in reliable mode (>= 1).
  std::size_t max_attempts = 8;
  /// Wire codec for message metadata and payload planes (see comm/codec.h).
  /// kRaw reproduces the historical fixed-width bytes exactly; the other
  /// modes shrink the wire without changing any decoded value. Ablatable
  /// like delayed sync — decoded state is bit-identical across modes.
  CodecMode codec = CodecMode::kRaw;
};

/// Accounting for one or more sync phases.
struct SyncStats {
  std::size_t messages = 0;  ///< aggregated host-pair messages (Gluon sends one per pair per phase)
  std::size_t bytes = 0;     ///< serialized payload + metadata bytes (first transmission)
  /// Fixed-width-equivalent bytes of the same messages: what the chosen
  /// encodings would have cost without the codec. raw_bytes == bytes under
  /// kRaw; raw_bytes / bytes is the achieved compression ratio otherwise.
  /// (Not exactly "kRaw's bytes" — the adaptive presence pick can differ
  /// per mode, so the denominator tracks the encoding actually sent.)
  std::size_t raw_bytes = 0;
  std::size_t values = 0;  ///< proxy labels moved
  std::vector<std::size_t> bytes_per_host;  ///< egress bytes per host (network model input)
  std::vector<std::size_t> msgs_per_host;   ///< egress messages per host

  // Post-handoff locality (degraded mode): host-pair messages whose
  // endpoints share a physical host never cross the wire; they are applied
  // directly and accounted here instead of in messages/bytes.
  std::size_t local_messages = 0;  ///< pair messages short-circuited on one physical host
  std::size_t local_bytes = 0;     ///< their payload bytes (no framing, no wire)

  // Fault/recovery counters (all zero on a clean wire).
  std::size_t drops = 0;                  ///< transmission attempts lost in transit
  std::size_t duplicates = 0;             ///< frames the wire delivered twice
  std::size_t duplicates_suppressed = 0;  ///< stale-seq frames rejected by the receiver
  std::size_t corruptions_detected = 0;   ///< CRC32 mismatches (frame discarded)
  std::size_t retransmits = 0;            ///< extra transmission attempts
  std::size_t retransmit_bytes = 0;       ///< bytes of retransmit + duplicate traffic
  std::size_t backoff_steps = 0;          ///< sum of 2^(attempt-2) RTO units across retransmits
  std::size_t forced_deliveries = 0;      ///< escalated final attempts (retry budget exhausted)

  SyncStats& operator+=(const SyncStats& other);
};

/// Per-host flag sets plus the reduce/broadcast engine.
///
/// The Accessor type parameter of sync/reduce/broadcast supplies the
/// label semantics:
///   using Value = <trivially copyable>;
///   Value get(HostId h, VertexId lid);                 // read proxy label
///   void reduce(HostId h, VertexId lid, Value v);      // combine into master
///   void set(HostId h, VertexId lid, Value v);         // overwrite mirror
///   void reset(HostId h, VertexId lid);                // mirror -> identity
class Substrate {
 public:
  explicit Substrate(const Partition& part);

  /// Partition-free substrate for pure point-to-point use (scatter): the
  /// distributed matrix backend routes all of its traffic this way and has
  /// no proxy exchange lists. reduce/broadcast must not be called on a
  /// substrate built like this; scatter, delivery configuration, placement,
  /// and save/restore work identically (flags serialize as empty sets).
  explicit Substrate(HostId num_hosts);

  const Partition& partition() const { return *part_; }

  /// Installs a delivery configuration (resets sequence-number state).
  void set_delivery(const DeliveryOptions& options);
  const DeliveryOptions& delivery() const { return delivery_; }

  /// Installs a logical→physical placement after an ownership handoff
  /// (sim::Membership::logical_to_physical()). Pair messages whose
  /// endpoints are co-located on one physical host bypass the wire
  /// entirely — no framing, faults, sequence numbers, or byte accounting;
  /// they count as SyncStats::local_messages/local_bytes. The decoded
  /// values are identical either way (reliable delivery already guarantees
  /// exactly-once application), so results stay bit-identical to the
  /// healthy cluster. An empty vector restores the identity placement.
  void set_placement(std::vector<HostId> logical_to_physical);
  const std::vector<HostId>& placement() const { return placement_; }

  /// Serializes flag + delivery-protocol state (checkpoint support): the
  /// pending reduce/broadcast flags and the per-pair sequence numbers must
  /// roll back together with application labels or recovery would desync
  /// senders from receivers.
  void save_state(util::SendBuffer& buf) const;
  void restore_state(util::RecvBuffer& buf);

  /// Flags a proxy for the next reduce (mirror side) / broadcast (master
  /// side). The MRBC delayed-synchronization rule is implemented by the
  /// application flagging a vertex only in its prescribed round.
  void flag_reduce(HostId h, VertexId lid) { reduce_flags_[h].set(lid); }
  void flag_broadcast(HostId h, VertexId lid) { broadcast_flags_[h].set(lid); }

  bool any_pending() const;
  void clear_flags();

  /// reduce phase: flagged mirrors -> masters. Masters whose value received
  /// a contribution (or that were themselves reduce-flagged) become
  /// broadcast-flagged. Reduce flags are consumed when the phase starts, so
  /// an accessor's reduce() must not flag_reduce.
  template <typename Accessor>
  SyncStats reduce(Accessor& acc) {
    obs::Span span(obs::Category::kComm, "reduce");
    using Value = typename Accessor::Value;
    return run_phase(
        /*reduce=*/true, sizeof(Value),
        [&](const PairSend& send, CodecWriter& cw) {
          // Collect the flagged values first: plane codecs (frame-of-
          // reference) need the whole plane before the first wire byte. In
          // kRaw the plane serializes to exactly the count-prefixed run.
          std::vector<Value> vals;
          vals.reserve(send.count);
          send.for_each_lid([&](VertexId lid) {
            vals.push_back(acc.get(send.src, lid));
            acc.reset(send.src, lid);
          });
          ValueCodec<Value>::write_plane(cw, vals);
        },
        [&](HostId dst, CodecReader& r, const std::vector<VertexId>& lids) {
          const std::vector<Value> vals = read_values<Value>(r, lids.size());
          for (std::size_t i = 0; i < lids.size(); ++i) {
            acc.reduce(dst, lids[i], vals[i]);
            broadcast_flags_[dst].set(lids[i]);
          }
        });
  }

  /// broadcast phase: flagged masters -> all their mirrors. Broadcast flags
  /// are consumed when the phase starts.
  template <typename Accessor>
  SyncStats broadcast(Accessor& acc) {
    obs::Span span(obs::Category::kComm, "broadcast");
    using Value = typename Accessor::Value;
    // Masters are only read — a master serialized toward several mirror
    // hosts is shared read-only state.
    return run_phase(
        /*reduce=*/false, sizeof(Value),
        [&](const PairSend& send, CodecWriter& cw) {
          std::vector<Value> vals;
          vals.reserve(send.count);
          send.for_each_lid([&](VertexId lid) { vals.push_back(acc.get(send.src, lid)); });
          ValueCodec<Value>::write_plane(cw, vals);
        },
        [&](HostId dst, CodecReader& r, const std::vector<VertexId>& lids) {
          const std::vector<Value> vals = read_values<Value>(r, lids.size());
          for (std::size_t i = 0; i < lids.size(); ++i) acc.set(dst, lids[i], vals[i]);
        });
  }

  /// Full sync: reduce then broadcast, as at the start of each BSP round.
  template <typename Accessor>
  SyncStats sync(Accessor& acc) {
    SyncStats stats = reduce(acc);
    stats += broadcast(acc);
    return stats;
  }

  /// Variable-length flavor of reduce, for labels whose per-vertex payload
  /// is a list (MRBC syncs the set of (source, dist, sigma) entries that
  /// finalized, which differs per vertex and round). The accessor owns the
  /// wire format, expressed through the mode-aware codec (field-class
  /// methods pick varint/tagged encodings per DeliveryOptions::codec):
  ///   void serialize_reduce(HostId h, VertexId lid, CodecWriter&);
  ///       (must also reset the mirror's contribution — reduce-reset)
  ///   void apply_reduce(HostId h, VertexId lid, CodecReader&);
  ///   void serialize_broadcast(HostId h, VertexId lid, CodecWriter&);
  ///       (called once per mirror host; must not mutate)
  ///   void apply_broadcast(HostId h, VertexId lid, CodecReader&);
  template <typename VarAccessor>
  SyncStats reduce_var(VarAccessor& acc) {
    obs::Span span(obs::Category::kComm, "reduce");
    // serialize_reduce mutates only the serialized mirror's own state
    // (reduce-reset), and each mirror lid appears in exactly one pair, so
    // pairs stay independent.
    return run_phase(
        /*reduce=*/true, 0,
        [&](const PairSend& send, CodecWriter& cw) {
          send.for_each_lid([&](VertexId lid) { acc.serialize_reduce(send.src, lid, cw); });
        },
        [&](HostId dst, CodecReader& r, const std::vector<VertexId>& lids) {
          for (VertexId lid : lids) {
            acc.apply_reduce(dst, lid, r);
            broadcast_flags_[dst].set(lid);
          }
        });
  }

  /// Point-to-point scatter through the delivery layer: buffers[src][dst]
  /// is transmitted with the same framing / fault-injection /
  /// reliable-delivery protocol as proxy syncs and consumed at the
  /// receiver by apply(src, dst, RecvBuffer&). Unlike reduce/broadcast it
  /// is not tied to the proxy exchange lists — the streaming subsystem
  /// uses it to route EdgeBatch deltas to owning hosts. Empty buffers and
  /// the src == dst diagonal (host-local data never crosses the wire) are
  /// skipped. Callers account `values` themselves (the substrate cannot
  /// know how many application values a raw buffer holds).
  template <typename ApplyFn>
  SyncStats scatter(std::vector<std::vector<util::SendBuffer>>&& buffers, ApplyFn&& apply) {
    obs::Span span(obs::Category::kComm, "scatter");
    SyncStats stats;
    stats.bytes_per_host.assign(H_, 0);
    stats.msgs_per_host.assign(H_, 0);
    const HostId rows = static_cast<HostId>(std::min<std::size_t>(buffers.size(), H_));
    for (HostId src = 0; src < rows; ++src) {
      const HostId cols = static_cast<HostId>(std::min<std::size_t>(buffers[src].size(), H_));
      for (HostId dst = 0; dst < cols; ++dst) {
        if (src == dst || buffers[src][dst].empty()) continue;
        deliver(src, dst, buffers[src][dst], stats,
                [&](util::RecvBuffer& rbuf) { apply(src, dst, rbuf); });
      }
    }
    return stats;
  }

  /// Variable-length flavor of broadcast; see reduce_var.
  template <typename VarAccessor>
  SyncStats broadcast_var(VarAccessor& acc) {
    obs::Span span(obs::Category::kComm, "broadcast");
    // serialize_broadcast is contractually read-only, so shared masters are
    // safe.
    return run_phase(
        /*reduce=*/false, 0,
        [&](const PairSend& send, CodecWriter& cw) {
          send.for_each_lid([&](VertexId lid) { acc.serialize_broadcast(send.src, lid, cw); });
        },
        [&](HostId dst, CodecReader& r, const std::vector<VertexId>& lids) {
          for (VertexId lid : lids) acc.apply_broadcast(dst, lid, r);
        });
  }

 private:
  /// [seq:u64][crc:u32] prepended to every payload in framed mode.
  static constexpr std::size_t kFrameHeaderBytes = sizeof(std::uint64_t) + sizeof(std::uint32_t);
  /// reserve() headroom for the presence encoding's tags/length prefixes.
  static constexpr std::size_t kPresenceSlack = 32;

  using Word = util::DynamicBitset::Word;

  std::size_t pair_index(HostId src, HostId dst) const {
    return static_cast<std::size_t>(src) * H_ + dst;
  }

  /// One host-pair message of a sync phase. `send` lists the sender's lids
  /// and `recv` the receiver's, position for position (reduce: the mirror
  /// and master sides of the pair's exchange list; broadcast: the reverse).
  struct PairPlan {
    HostId src = 0;
    HostId dst = 0;
    std::size_t pair = 0;  ///< pair_index(src, dst)
    const std::vector<VertexId>* send = nullptr;
    const std::vector<VertexId>* recv = nullptr;
  };

  /// A pair with staged entries this phase: index into the phase's pair
  /// order and its entry count.
  struct ActivePair {
    std::size_t order = 0;
    std::size_t count = 0;
  };

  /// What a serialize callback sees of one pair message: the sender and
  /// the staged entries, visited in ascending exchange position.
  struct PairSend {
    HostId src;
    std::size_t count;
    const Word* words;
    std::size_t num_words;
    const std::vector<VertexId>& lids;

    template <typename Fn>
    void for_each_lid(Fn&& fn) const {
      util::bitwords::for_each_set_bit(words, num_words, [&](std::size_t i) { fn(lids[i]); });
    }
  };

  /// Decodes a fixed-width value plane that must hold one value per
  /// present entry.
  template <typename Value>
  static std::vector<Value> read_values(CodecReader& r, std::size_t expected) {
    std::vector<Value> vals = ValueCodec<Value>::read_plane(r);
    if (vals.size() != expected) {
      throw std::out_of_range("substrate: value plane of " + std::to_string(vals.size()) +
                              " for " + std::to_string(expected) + " present entries");
    }
    return vals;
  }

  /// Stages one phase (defined in substrate.cpp): consumes the phase's
  /// flags, fills the presence bitsets and pair_count_, and collects
  /// active_ in delivery order.
  void stage(bool reduce);

  /// The one body of all four sync templates. Stages the presence sets,
  /// serializes every active pair in parallel — presence encoding, then
  /// serialize(PairSend, CodecWriter&) — and delivers the pairs in order,
  /// calling apply(receiver, CodecReader&, receiver lids of the entries)
  /// once per message. `value_bytes` sizes the buffer reservation.
  template <typename SerializeFn, typename ApplyFn>
  SyncStats run_phase(bool reduce, std::size_t value_bytes, SerializeFn&& serialize,
                      ApplyFn&& apply) {
    SyncStats stats;
    stats.bytes_per_host.assign(H_, 0);
    stats.msgs_per_host.assign(H_, 0);
    stage(reduce);
    const std::vector<PairPlan>& order = reduce ? reduce_order_ : broadcast_order_;
    util::ThreadPool::global().parallel_for(0, active_.size(), 1, [&](std::size_t a) {
      const PairPlan& pp = order[active_[a].order];
      const std::size_t count = active_[a].count;
      Word* words = presence_.data() + presence_off_[pp.pair];
      const std::size_t num_words = detail::words_for(pp.send->size());
      util::SendBuffer& buf = pair_bufs_[pp.pair];
      buf.clear();
      buf.reserve(kPresenceSlack + num_words * sizeof(Word) +
                  count * (value_bytes + sizeof(std::uint32_t)));
      CodecWriter cw(buf, delivery_.codec);
      detail::write_presence(cw, words, pp.send->size(), count);
      serialize(PairSend{pp.src, count, words, num_words, *pp.send}, cw);
      std::fill_n(words, num_words, Word{0});  // all-zero again for the next phase
    });
    for (const ActivePair& a : active_) {
      const PairPlan& pp = order[a.order];
      stats.values += a.count;
      deliver(pp.src, pp.dst, pair_bufs_[pp.pair], stats, [&](util::RecvBuffer& rbuf) {
        CodecReader r(rbuf, delivery_.codec);
        detail::read_presence(r, *pp.recv, recv_lids_);
        apply(pp.dst, r, recv_lids_);
      });
    }
    return stats;
  }

  /// Transmits one host-pair message and applies it at the receiver.
  /// Unframed mode applies directly (historical behavior, identical byte
  /// accounting). Framed mode runs the fault/retransmit protocol described
  /// in the file header. `apply` is invoked at most once per logical
  /// message (duplicate copies are suppressed by sequence number). The
  /// message buffer is borrowed, not consumed — callers keep it pooled —
  /// and the receiver reads it through a zero-copy view.
  template <typename ApplyFn>
  void deliver(HostId src, HostId dst, const util::SendBuffer& msg, SyncStats& stats,
               ApplyFn&& apply) {
    if (!placement_.empty() && placement_[src] == placement_[dst]) {
      // Degraded-mode co-location: both logical endpoints execute on the
      // same physical host, so the "message" is a local memory move.
      stats.local_messages += 1;
      stats.local_bytes += msg.size();
      util::RecvBuffer rbuf(msg);
      apply(rbuf);
      return;
    }
    stats.messages += 1;
    stats.msgs_per_host[src] += 1;
    if (obs::metrics_enabled()) {
      obs::Metrics::global().histogram(obs::Hist::kMessageBytes).record(msg.size());
      if (msg.size() > 0) {
        // Compression ratio as a percentage (100 = incompressible, 250 =
        // 2.5x smaller on the wire); raw_bytes is the fixed-width size the
        // same fields would have occupied.
        obs::Metrics::global()
            .histogram(obs::Hist::kCompressionPct)
            .record(msg.raw_bytes() * 100 / msg.size());
      }
    }
    if (!framed_) {
      stats.bytes += msg.size();
      stats.raw_bytes += msg.raw_bytes();
      stats.bytes_per_host[src] += msg.size();
      if (obs::metrics_enabled()) {
        obs::Metrics::global().histogram(obs::Hist::kRetransmitAttempts).record(1);
      }
      util::RecvBuffer rbuf(msg);
      apply(rbuf);
      return;
    }
    const std::vector<std::uint8_t>& payload = msg.bytes();
    const std::uint32_t crc = util::crc32(payload);
    const std::size_t pair = pair_index(src, dst);
    const std::uint64_t seq = ++next_seq_[pair];
    const std::size_t frame_bytes = kFrameHeaderBytes + payload.size();
    const std::size_t max_attempts = std::max<std::size_t>(delivery_.max_attempts, 1);
    ChannelFaults* faults = delivery_.faults;
    for (std::size_t attempt = 1;; ++attempt) {
      if (attempt == 1) {
        stats.bytes += frame_bytes;
        stats.raw_bytes += kFrameHeaderBytes + msg.raw_bytes();
        stats.bytes_per_host[src] += frame_bytes;
      } else {
        stats.retransmits += 1;
        stats.retransmit_bytes += frame_bytes;
        stats.backoff_steps += std::size_t{1} << std::min<std::size_t>(attempt - 2, 16);
      }
      // The final reliable attempt is escalated (verified out-of-band) and
      // bypasses injection: bounded retransmission must terminate with a
      // delivery or the recovery guarantee would be probabilistic.
      const bool forced = delivery_.reliable && attempt >= max_attempts;
      if (faults && !forced && faults->drop(src, dst, seq)) {
        stats.drops += 1;
        if (!delivery_.reliable) {
          if (obs::metrics_enabled()) {
            obs::Metrics::global().histogram(obs::Hist::kRetransmitAttempts).record(attempt);
          }
          return;  // lost for good
        }
        continue;
      }
      long flip = faults && !forced && !payload.empty()
                      ? faults->corrupt_bit(src, dst, seq, payload.size())
                      : -1;
      if (flip >= 0) {
        wire_scratch_ = payload;  // assign reuses the scratch allocation
        std::vector<std::uint8_t>& wire = wire_scratch_;
        wire[static_cast<std::size_t>(flip) / 8] ^=
            static_cast<std::uint8_t>(1u << (static_cast<std::size_t>(flip) % 8));
        if (util::crc32(wire) != crc) {
          stats.corruptions_detected += 1;
          if (!delivery_.reliable) {
            if (obs::metrics_enabled()) {
              obs::Metrics::global().histogram(obs::Hist::kRetransmitAttempts).record(attempt);
            }
            return;  // detected and discarded, not repaired
          }
          continue;
        }
      }
      if (forced) stats.forced_deliveries += 1;
      const bool duplicated = faults && !forced && faults->duplicate(src, dst, seq);
      if (duplicated) {
        stats.duplicates += 1;
        stats.retransmit_bytes += frame_bytes;  // the extra copy is real traffic
      }
      for (std::size_t copy = 0; copy < (duplicated ? 2u : 1u); ++copy) {
        if (seq > last_accepted_[pair]) {
          last_accepted_[pair] = seq;
          util::RecvBuffer rbuf(payload.data(), payload.size());
          apply(rbuf);
        } else {
          stats.duplicates_suppressed += 1;
        }
      }
      if (obs::metrics_enabled()) {
        obs::Metrics::global().histogram(obs::Hist::kRetransmitAttempts).record(attempt);
      }
      return;
    }
  }

  const Partition* part_;
  HostId H_;
  std::vector<util::DynamicBitset> reduce_flags_;
  std::vector<util::DynamicBitset> broadcast_flags_;
  DeliveryOptions delivery_;
  bool framed_ = false;                       ///< effective framing switch
  std::vector<HostId> placement_;             ///< logical→physical map; empty = identity
  std::vector<std::uint64_t> next_seq_;       ///< per (src,dst) sender counter
  std::vector<std::uint64_t> last_accepted_;  ///< per (src,dst) receiver high-water mark
  std::vector<util::SendBuffer> pair_bufs_;   ///< per (src,dst) reusable message buffers
  std::vector<std::uint8_t> wire_scratch_;    ///< corruption-path frame copy
  // Sync-phase plan and staging, built once in the constructor. Both pair
  // orders list only pairs with a non-empty exchange list.
  std::vector<PairPlan> reduce_order_;     ///< (mh -> oh), mh-major
  std::vector<PairPlan> broadcast_order_;  ///< (oh -> mh), oh-major
  std::vector<Word> presence_;             ///< per-pair presence bitsets, all-zero between phases
  std::vector<std::size_t> presence_off_;  ///< per (src,dst): first word in presence_
  std::vector<std::size_t> pair_count_;    ///< per (src,dst): entries staged this phase
  std::vector<ActivePair> active_;         ///< this phase's pairs with entries, in order
  std::vector<VertexId> recv_lids_;        ///< receiver lids of the message being applied
};

}  // namespace mrbc::comm
