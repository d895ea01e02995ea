#pragma once
// Per-host MRBC labels using the data-structure layout of Section 4.3:
//   A_v — a dense array of per-source structs {dist, sigma, delta} giving
//         O(1) access by (vertex, source); the three fields share one
//         struct for spatial locality, exactly as the paper describes.
//   M_v — the vertex's (dist, source) pairs in lexicographic order (the
//         list L_v of Algorithm 3), kept as a sorted row of 64-bit keys
//         (dist << 32 | source). The paper uses a flat map from distance to
//         a source bitvector; the send schedule asks "which entry is next?"
//         every round, which that layout answers by walking buckets and
//         popcounting, while a sorted key row answers it with one load and
//         a rank query with one binary search over at most k keys.
//
// Everything the per-round drains touch per vertex — the slot row, the
// L_v key row, the pipelining cursors, the entry count, and the dirty-flag
// words — lives in ONE flat arena allocation (util/arena.h), lid-major,
// instead of a per-vertex constellation of heap vectors/bitsets. The staged
// replay walks target lids in ascending order within 64-lid ranges, so the
// physical memory order matches the access order, and the arena pages are
// first-touched through the thread pool with the same chunk deal the replay
// uses (see the locality contract in util/thread_pool.h).

#include <cassert>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "util/arena.h"
#include "util/bitset.h"
#include "util/serialize.h"

namespace mrbc::core {

using graph::VertexId;

/// One (vertex, source) label cell of the dense array A_v.
struct SourceSlot {
  std::uint32_t dist = graph::kInfDist;
  /// Named alignment padding, always zero: checkpoints copy slots bytewise,
  /// and unnamed padding would carry whatever the arena held before.
  std::uint32_t pad = 0;
  double sigma = 0.0;
  double delta = 0.0;
};

/// All MRBC labels of one simulated host for a batch of k sources.
/// Move-only: the arena owns the backing block, the spans point into it.
class HostState {
 public:
  using Word = util::bitwords::Word;

  HostState(VertexId num_proxies, std::uint32_t num_sources);
  HostState(HostState&&) noexcept = default;
  HostState& operator=(HostState&&) noexcept = default;

  std::uint32_t num_sources() const { return k_; }
  VertexId num_proxies() const { return num_proxies_; }
  /// 64-bit words per lid in the per-source flag planes (ceil(k / 64)) —
  /// the row stride shared with the runner's frontier/availability planes.
  std::uint32_t source_words() const { return kw_; }

  SourceSlot& slot(VertexId lid, std::uint32_t sidx) {
    return slots_[static_cast<std::size_t>(lid) * k_ + sidx];
  }
  const SourceSlot& slot(VertexId lid, std::uint32_t sidx) const {
    return slots_[static_cast<std::size_t>(lid) * k_ + sidx];
  }

  // --- M_v maintenance --------------------------------------------------
  // update_distance keeps slot.dist and the key row consistent: pass the new
  // (finite) distance; the old one is read from the slot.
  void update_distance(VertexId lid, std::uint32_t sidx, std::uint32_t new_dist);

  /// Removes (slot.dist, sidx) from the key row and resets the slot's dist
  /// to infinity (mirror reduce-reset).
  void clear_distance(VertexId lid, std::uint32_t sidx);

  /// Number of (dist, source) entries of vertex `lid` (|L_v|).
  std::size_t entry_count(VertexId lid) const { return entry_counts_[lid]; }

  /// idx-th (0-based) entry of L_v in lexicographic (dist, source) order.
  std::pair<std::uint32_t, std::uint32_t> nth_entry(VertexId lid, std::size_t idx) const {
    assert(idx < entry_counts_[lid]);
    const std::uint64_t entry = row(lid)[idx];
    return {static_cast<std::uint32_t>(entry >> 32), static_cast<std::uint32_t>(entry)};
  }

  /// 1-based lexicographic position of (dist, sidx) in L_v — the paper's
  /// l_v(d, s). The entry must exist.
  std::size_t position(VertexId lid, std::uint32_t dist, std::uint32_t sidx) const;

  // --- Update tracking for reduce ---------------------------------------
  /// Marks (lid, sidx) as having a pending contribution for the master;
  /// idempotent. Returns true if newly marked.
  bool mark_dirty(VertexId lid, std::uint32_t sidx);
  std::vector<std::uint32_t>& dirty_sources(VertexId lid) { return dirty_[lid]; }
  void clear_dirty(VertexId lid);

  // --- Per-vertex pipelining cursors -------------------------------------
  // Forward phase: number of leading L_v entries already broadcast.
  std::span<std::uint32_t> fwd_sent;
  // Accumulation phase: number of trailing entries already fired.
  std::span<std::uint32_t> acc_sent;
  // Broadcast staging: (sidx, is_final) pairs serialized at the next
  // broadcast; non-final entries model eager synchronization traffic for
  // the delayed-sync ablation.
  std::vector<std::vector<std::pair<std::uint32_t, bool>>> to_broadcast;

  // --- Checkpointing ------------------------------------------------------
  // Serializes / restores the complete label state for crash recovery.
  // M_v and the entry counts are derivable from A_v, so only the slots and
  // round-local cursors/queues go on the wire; restore() rebuilds the rows.
  // The wire layout is byte-identical to the historical per-vector format
  // (u64 count + packed elements), so checkpoint sizes are unchanged by the
  // arena refactor.
  void save(util::SendBuffer& buf) const;
  void restore(util::RecvBuffer& buf);

 private:
  /// Carves the arena into the lid-major spans for the current (np, k).
  void layout();
  /// Zero/identity-fills the arena through the pool's 64-lid chunk deal —
  /// the same decomposition the staged replay ranges use, so pages are
  /// first-touched by the worker whose ranges live in them.
  void first_touch_init();

  static std::uint64_t key(std::uint32_t dist, std::uint32_t sidx) {
    return std::uint64_t{dist} << 32 | sidx;
  }
  /// First key of lid's L_v row (k slots; the first entry_count are live).
  std::uint64_t* row(VertexId lid) const {
    return keys_.data() + static_cast<std::size_t>(lid) * k_;
  }
  /// Address of the live key (dist, sidx) in lid's row.
  std::uint64_t* find(VertexId lid, std::uint32_t dist, std::uint32_t sidx) const;

  VertexId num_proxies_ = 0;
  std::uint32_t k_ = 0;
  std::uint32_t kw_ = 0;  ///< ceil(k / 64): words per lid in dirty_words_
  util::Arena arena_;
  std::span<SourceSlot> slots_;
  std::span<std::uint64_t> keys_;  ///< np x k_ L_v rows, sorted ascending
  std::span<std::size_t> entry_counts_;
  std::span<Word> dirty_words_;  ///< np x kw_ idempotency bits for mark_dirty
  std::vector<std::vector<std::uint32_t>> dirty_;
};

}  // namespace mrbc::core
