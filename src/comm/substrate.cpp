#include "comm/substrate.h"

#include <utility>

namespace mrbc::comm {

SyncStats& SyncStats::operator+=(const SyncStats& other) {
  messages += other.messages;
  bytes += other.bytes;
  raw_bytes += other.raw_bytes;
  values += other.values;
  if (bytes_per_host.size() < other.bytes_per_host.size()) {
    bytes_per_host.resize(other.bytes_per_host.size(), 0);
  }
  for (std::size_t h = 0; h < other.bytes_per_host.size(); ++h) {
    bytes_per_host[h] += other.bytes_per_host[h];
  }
  if (msgs_per_host.size() < other.msgs_per_host.size()) {
    msgs_per_host.resize(other.msgs_per_host.size(), 0);
  }
  for (std::size_t h = 0; h < other.msgs_per_host.size(); ++h) {
    msgs_per_host[h] += other.msgs_per_host[h];
  }
  local_messages += other.local_messages;
  local_bytes += other.local_bytes;
  drops += other.drops;
  duplicates += other.duplicates;
  duplicates_suppressed += other.duplicates_suppressed;
  corruptions_detected += other.corruptions_detected;
  retransmits += other.retransmits;
  retransmit_bytes += other.retransmit_bytes;
  backoff_steps += other.backoff_steps;
  forced_deliveries += other.forced_deliveries;
  return *this;
}

Substrate::Substrate(const Partition& part) : Substrate(part.num_hosts()) {
  part_ = &part;
  for (HostId h = 0; h < H_; ++h) {
    reduce_flags_[h].resize(part.host(h).num_proxies());
    broadcast_flags_[h].resize(part.host(h).num_proxies());
  }
  // Pair orders of the historical delivery loops, over non-empty exchange
  // lists: reduce (mh -> oh) mh-major, broadcast (oh -> mh) oh-major.
  for (HostId a = 0; a < H_; ++a) {
    for (HostId b = 0; b < H_; ++b) {
      if (a == b) continue;
      if (!part.mirror_lids(a, b).empty()) {
        reduce_order_.push_back(
            {a, b, pair_index(a, b), &part.mirror_lids(a, b), &part.master_lids(a, b)});
      }
      if (!part.master_lids(b, a).empty()) {
        broadcast_order_.push_back(
            {a, b, pair_index(a, b), &part.master_lids(b, a), &part.mirror_lids(b, a)});
      }
    }
  }
  // Pair slot (a, b) carries a's reduce message to b (list (a, b)) and a's
  // broadcast message to b (list (b, a)); phases never overlap, so one
  // bitset sized for the longer list serves both.
  for (HostId a = 0; a < H_; ++a) {
    for (HostId b = 0; b < H_; ++b) {
      const std::size_t bits =
          a == b ? 0 : std::max(part.mirror_lids(a, b).size(), part.mirror_lids(b, a).size());
      const std::size_t pair = pair_index(a, b);
      presence_off_[pair + 1] = presence_off_[pair] + detail::words_for(bits);
    }
  }
  presence_.assign(presence_off_.back(), 0);
}

Substrate::Substrate(HostId num_hosts) : part_(nullptr), H_(num_hosts) {
  reduce_flags_.resize(H_);
  broadcast_flags_.resize(H_);
  const std::size_t pairs = static_cast<std::size_t>(H_) * H_;
  pair_bufs_.resize(pairs);
  presence_off_.assign(pairs + 1, 0);
  pair_count_.assign(pairs, 0);
}

void Substrate::stage(bool reduce) {
  const Partition& p = *part_;
  // Host h reads and clears only its own flags and writes only the pairs
  // it sends on (and, in reduce, its own broadcast flags), so hosts stage
  // concurrently.
  util::ThreadPool::global().parallel_for(0, H_, 1, [&](std::size_t hi) {
    const auto h = static_cast<HostId>(hi);
    // Sets the presence bit of one entry h sends (other host and position
    // from the exchange index).
    auto mark = [&](partition::ExchangeSlot slot) {
      const std::size_t pair = pair_index(h, slot.host);
      presence_[presence_off_[pair] + slot.pos / 64] |= Word{1} << (slot.pos % 64);
      ++pair_count_[pair];
    };
    std::vector<Word>& flags = (reduce ? reduce_flags_ : broadcast_flags_)[h].words();
    Word* w = flags.data();
    const std::size_t n = flags.size();
    for (std::size_t i = util::bitwords::find_nonzero(w, n, 0); i < n;
         i = util::bitwords::find_nonzero(w, n, i + 1)) {
      for (Word word = std::exchange(w[i], 0); word != 0; word &= word - 1) {
        const auto lid =
            static_cast<VertexId>(i * 64 + static_cast<unsigned>(__builtin_ctzll(word)));
        if (!reduce) {
          for (const partition::ExchangeSlot& slot : p.master_slots(h, lid)) mark(slot);
          continue;
        }
        const partition::ExchangeSlot slot = p.mirror_slot(h, lid);
        if (slot.host != h) {
          mark(slot);
        } else {
          // A master flagged by its own host broadcasts too.
          broadcast_flags_[h].set(lid);
        }
      }
    }
  });
  active_.clear();
  const std::vector<PairPlan>& order = reduce ? reduce_order_ : broadcast_order_;
  for (std::size_t i = 0; i < order.size(); ++i) {
    std::size_t& count = pair_count_[order[i].pair];
    if (count == 0) continue;
    active_.push_back({i, count});
    count = 0;
  }
}

void Substrate::set_delivery(const DeliveryOptions& options) {
  delivery_ = options;
  framed_ = options.framing || options.reliable || options.faults != nullptr;
  next_seq_.assign(static_cast<std::size_t>(H_) * H_, 0);
  last_accepted_.assign(static_cast<std::size_t>(H_) * H_, 0);
}

void Substrate::set_placement(std::vector<HostId> logical_to_physical) {
  placement_ = std::move(logical_to_physical);
  bool identity = true;
  for (std::size_t h = 0; h < placement_.size(); ++h) {
    identity = identity && placement_[h] == static_cast<HostId>(h);
  }
  if (identity) placement_.clear();  // keep the healthy fast path branch-cheap
}

void Substrate::save_state(util::SendBuffer& buf) const {
  for (HostId h = 0; h < H_; ++h) {
    buf.write_bitset(reduce_flags_[h]);
    buf.write_bitset(broadcast_flags_[h]);
  }
  buf.write_vector(next_seq_);
  buf.write_vector(last_accepted_);
}

void Substrate::restore_state(util::RecvBuffer& buf) {
  for (HostId h = 0; h < H_; ++h) {
    reduce_flags_[h] = buf.read_bitset();
    broadcast_flags_[h] = buf.read_bitset();
  }
  next_seq_ = buf.read_vector<std::uint64_t>();
  last_accepted_ = buf.read_vector<std::uint64_t>();
}

bool Substrate::any_pending() const {
  for (HostId h = 0; h < H_; ++h) {
    if (reduce_flags_[h].any() || broadcast_flags_[h].any()) return true;
  }
  return false;
}

void Substrate::clear_flags() {
  for (HostId h = 0; h < H_; ++h) {
    reduce_flags_[h].reset_all();
    broadcast_flags_[h].reset_all();
  }
}

}  // namespace mrbc::comm
