#include "core/mrbc_state.h"

#include <algorithm>
#include <cassert>

#include "core/staged_drain.h"
#include "util/thread_pool.h"

namespace mrbc::core {

HostState::HostState(VertexId num_proxies, std::uint32_t num_sources)
    : num_proxies_(num_proxies), k_(num_sources) {
  layout();
  first_touch_init();
  dirty_.resize(num_proxies);
  to_broadcast.resize(num_proxies);
}

void HostState::layout() {
  const std::size_t np = num_proxies_;
  kw_ = (k_ + 63) / 64;
  using util::Arena;
  arena_.reserve(Arena::bytes_for<SourceSlot>(np * k_) + Arena::bytes_for<std::uint64_t>(np * k_) +
                 Arena::bytes_for<std::size_t>(np) + 2 * Arena::bytes_for<std::uint32_t>(np) +
                 Arena::bytes_for<Word>(np * kw_));
  slots_ = arena_.alloc<SourceSlot>(np * k_);
  keys_ = arena_.alloc<std::uint64_t>(np * k_);
  entry_counts_ = arena_.alloc<std::size_t>(np);
  fwd_sent = arena_.alloc<std::uint32_t>(np);
  acc_sent = arena_.alloc<std::uint32_t>(np);
  dirty_words_ = arena_.alloc<Word>(np * kw_);
}

void HostState::first_touch_init() {
  // 64-lid chunks: the exact decomposition the staged replay buckets by
  // (kRangeShift), so under the pool's stable deal each worker faults in
  // the arena pages its replay ranges will re-touch every round.
  const std::size_t grain = std::size_t{1} << kRangeShift;
  util::ThreadPool::global().parallel_for_chunks(
      0, static_cast<std::size_t>(num_proxies_), grain,
      [&](std::size_t, std::size_t b, std::size_t e) {
        std::fill(slots_.begin() + b * k_, slots_.begin() + e * k_, SourceSlot{});
        std::fill(keys_.begin() + b * k_, keys_.begin() + e * k_, std::uint64_t{0});
        std::fill(entry_counts_.begin() + b, entry_counts_.begin() + e, std::size_t{0});
        std::fill(fwd_sent.begin() + b, fwd_sent.begin() + e, 0u);
        std::fill(acc_sent.begin() + b, acc_sent.begin() + e, 0u);
        std::fill(dirty_words_.begin() + b * kw_, dirty_words_.begin() + e * kw_, Word{0});
      });
}

std::uint64_t* HostState::find(VertexId lid, std::uint32_t dist, std::uint32_t sidx) const {
  std::uint64_t* first = row(lid);
  std::uint64_t* at = std::lower_bound(first, first + entry_counts_[lid], key(dist, sidx));
  assert(at != first + entry_counts_[lid] && *at == key(dist, sidx));
  return at;
}

void HostState::update_distance(VertexId lid, std::uint32_t sidx, std::uint32_t new_dist) {
  assert(new_dist != graph::kInfDist);
  SourceSlot& s = slot(lid, sidx);
  if (s.dist == new_dist) return;
  // One in-row move from the old position to the new one, shifting only the
  // keys in between. A new entry enters at the row's end, as if its old key
  // were (inf, sidx).
  std::uint64_t* first = row(lid);
  std::uint64_t* at =
      s.dist == graph::kInfDist ? first + entry_counts_[lid]++ : find(lid, s.dist, sidx);
  const std::uint64_t nk = key(new_dist, sidx);
  if (new_dist < s.dist) {
    std::uint64_t* to = std::lower_bound(first, at, nk);
    std::copy_backward(to, at, at + 1);
    *to = nk;
  } else {
    std::uint64_t* to = std::lower_bound(at + 1, first + entry_counts_[lid], nk);
    std::copy(at + 1, to, at);
    to[-1] = nk;
  }
  s.dist = new_dist;
}

void HostState::clear_distance(VertexId lid, std::uint32_t sidx) {
  SourceSlot& s = slot(lid, sidx);
  if (s.dist == graph::kInfDist) return;
  std::uint64_t* at = find(lid, s.dist, sidx);
  std::copy(at + 1, row(lid) + entry_counts_[lid], at);
  --entry_counts_[lid];
  s.dist = graph::kInfDist;
}

std::size_t HostState::position(VertexId lid, std::uint32_t dist, std::uint32_t sidx) const {
  return static_cast<std::size_t>(find(lid, dist, sidx) - row(lid)) + 1;  // 1-based
}

bool HostState::mark_dirty(VertexId lid, std::uint32_t sidx) {
  Word& w = dirty_words_[static_cast<std::size_t>(lid) * kw_ + sidx / 64];
  const Word bit = Word{1} << (sidx % 64);
  if (w & bit) return false;
  w |= bit;
  dirty_[lid].push_back(sidx);
  return true;
}

void HostState::clear_dirty(VertexId lid) {
  for (std::uint32_t sidx : dirty_[lid]) {
    dirty_words_[static_cast<std::size_t>(lid) * kw_ + sidx / 64] &= ~(Word{1} << (sidx % 64));
  }
  dirty_[lid].clear();
}

void HostState::save(util::SendBuffer& buf) const {
  buf.write<std::uint32_t>(k_);
  buf.write<VertexId>(num_proxies_);
  buf.write_array(slots_.data(), slots_.size());
  for (VertexId lid = 0; lid < num_proxies_; ++lid) buf.write_vector(dirty_[lid]);
  buf.write_array(fwd_sent.data(), fwd_sent.size());
  buf.write_array(acc_sent.data(), acc_sent.size());
  // std::pair is not guaranteed trivially copyable; serialize elementwise.
  for (VertexId lid = 0; lid < num_proxies_; ++lid) {
    buf.write<std::uint64_t>(to_broadcast[lid].size());
    for (const auto& [sidx, is_final] : to_broadcast[lid]) {
      buf.write<std::uint32_t>(sidx);
      buf.write<std::uint8_t>(is_final ? 1 : 0);
    }
  }
}

void HostState::restore(util::RecvBuffer& buf) {
  const auto k = buf.read<std::uint32_t>();
  const auto np = buf.read<VertexId>();
  if (k != k_ || np != num_proxies_ || arena_.capacity() == 0) {
    // Foreign dimensions (or a moved-from shell): re-carve the arena. The
    // common in-place restore keeps the existing block and its page homes.
    k_ = k;
    num_proxies_ = np;
    layout();
    first_touch_init();
  }
  buf.read_array(slots_.data(), slots_.size());
  dirty_.assign(num_proxies_, {});
  for (VertexId lid = 0; lid < num_proxies_; ++lid) dirty_[lid] = buf.read_vector<std::uint32_t>();
  buf.read_array(fwd_sent.data(), fwd_sent.size());
  buf.read_array(acc_sent.data(), acc_sent.size());
  to_broadcast.assign(num_proxies_, {});
  for (VertexId lid = 0; lid < num_proxies_; ++lid) {
    const auto n = buf.read<std::uint64_t>();
    to_broadcast[lid].reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      const auto sidx = buf.read<std::uint32_t>();
      const bool is_final = buf.read<std::uint8_t>() != 0;
      to_broadcast[lid].emplace_back(sidx, is_final);
    }
  }
  // Rebuild the derived structures: the L_v key rows / entry counts from
  // A_v, the dirty word plane from the dirty lists.
  std::fill(dirty_words_.begin(), dirty_words_.end(), Word{0});
  for (VertexId lid = 0; lid < num_proxies_; ++lid) {
    std::uint64_t* first = row(lid);
    std::size_t n = 0;
    for (std::uint32_t sidx = 0; sidx < k_; ++sidx) {
      const std::uint32_t d = slot(lid, sidx).dist;
      if (d != graph::kInfDist) first[n++] = key(d, sidx);
    }
    std::sort(first, first + n);
    entry_counts_[lid] = n;
    for (std::uint32_t sidx : dirty_[lid]) {
      dirty_words_[static_cast<std::size_t>(lid) * kw_ + sidx / 64] |= Word{1} << (sidx % 64);
    }
  }
}

}  // namespace mrbc::core
