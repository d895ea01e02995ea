#include "util/serialize.h"

namespace mrbc::util {

void SendBuffer::write_bitset(const DynamicBitset::Word* words, std::size_t num_words,
                              std::size_t num_bits) {
  // One up-front reserve covers the bit-count header, the word-count prefix
  // and the word payload — large frontier bitsets would otherwise grow the
  // backing store through repeated resize steps.
  reserve(bytes_.size() + 2 * sizeof(std::uint64_t) + num_words * sizeof(DynamicBitset::Word));
  write<std::uint64_t>(num_bits);
  write_array(words, num_words);
}

void SendBuffer::write_raw(const void* data, std::size_t n) {
  const std::size_t offset = bytes_.size();
  bytes_.resize(offset + n);
  if (n > 0) std::memcpy(bytes_.data() + offset, data, n);
  raw_bytes_ += n;
}

void SendBuffer::write_string(const std::string& s) {
  write<std::uint64_t>(s.size());
  const std::size_t offset = bytes_.size();
  bytes_.resize(offset + s.size());
  if (!s.empty()) std::memcpy(bytes_.data() + offset, s.data(), s.size());
  raw_bytes_ += s.size();
}

DynamicBitset RecvBuffer::read_bitset() {
  const auto num_bits = read<std::uint64_t>();
  auto words = read_vector<DynamicBitset::Word>();
  DynamicBitset bits(num_bits);
  bits.words() = std::move(words);
  return bits;
}

namespace {

struct Crc32Table {
  std::uint32_t entries[256];
  Crc32Table() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) c = (c >> 1) ^ ((c & 1u) ? 0xEDB88320u : 0u);
      entries[i] = c;
    }
  }
};

}  // namespace

std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t seed) {
  static const Crc32Table table;
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) c = table.entries[(c ^ bytes[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

std::string RecvBuffer::read_string() {
  const auto n = read<std::uint64_t>();
  if (n > remaining()) {
    throw std::out_of_range("RecvBuffer: truncated string");
  }
  std::string s(reinterpret_cast<const char*>(data_ + cursor_), n);
  cursor_ += n;
  return s;
}

}  // namespace mrbc::util
