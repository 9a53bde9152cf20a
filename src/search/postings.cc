#include "search/postings.h"

#include <algorithm>

namespace censys::search {
namespace {

std::uint16_t KeyOf(std::uint32_t id) {
  return static_cast<std::uint16_t>(id >> 16);
}
std::uint16_t LowOf(std::uint32_t id) {
  return static_cast<std::uint16_t>(id & 0xFFFF);
}

// The first container whose key is not below `key`.
template <typename It>
It FindContainer(It first, It last, std::uint16_t key) {
  return std::lower_bound(first, last, key, [](const auto& c, std::uint16_t k) {
    return c.key < k;
  });
}

}  // namespace

bool PostingList::Insert(std::uint32_t id) {
  const std::uint16_t key = KeyOf(id);
  const std::uint16_t low = LowOf(id);
  auto it = FindContainer(containers_.begin(), containers_.end(), key);
  if (it == containers_.end() || it->key != key) {
    it = containers_.insert(it, Container{});
    it->key = key;
  }
  Container& c = *it;
  if (!c.bits.empty()) {
    std::uint64_t& word = c.bits[low >> 6];
    const std::uint64_t mask = std::uint64_t{1} << (low & 63);
    if ((word & mask) != 0) return false;
    word |= mask;
  } else {
    const auto pos = std::lower_bound(c.array.begin(), c.array.end(), low);
    if (pos != c.array.end() && *pos == low) return false;
    c.array.insert(pos, low);
    if (c.array.size() > kArrayMax) {
      c.bits.assign(kBitmapWords, 0);
      for (const std::uint16_t v : c.array) {
        c.bits[v >> 6] |= std::uint64_t{1} << (v & 63);
      }
      c.array = {};
    }
  }
  ++c.count;
  ++size_;
  return true;
}

bool PostingList::Erase(std::uint32_t id) {
  const std::uint16_t key = KeyOf(id);
  const std::uint16_t low = LowOf(id);
  const auto it = FindContainer(containers_.begin(), containers_.end(), key);
  if (it == containers_.end() || it->key != key) return false;
  Container& c = *it;
  if (!c.bits.empty()) {
    std::uint64_t& word = c.bits[low >> 6];
    const std::uint64_t mask = std::uint64_t{1} << (low & 63);
    if ((word & mask) == 0) return false;
    word &= ~mask;
    if (c.count - 1 <= kArrayMax / 2) {
      c.array.reserve(c.count - 1);
      for (std::size_t w = 0; w < kBitmapWords; ++w) {
        for (std::uint64_t bits = c.bits[w]; bits != 0; bits &= bits - 1) {
          c.array.push_back(static_cast<std::uint16_t>(
              w * 64 + static_cast<std::size_t>(__builtin_ctzll(bits))));
        }
      }
      c.bits = {};
    }
  } else {
    const auto pos = std::lower_bound(c.array.begin(), c.array.end(), low);
    if (pos == c.array.end() || *pos != low) return false;
    c.array.erase(pos);
  }
  --size_;
  if (--c.count == 0) containers_.erase(it);
  return true;
}

bool PostingList::Contains(std::uint32_t id) const {
  const std::uint16_t key = KeyOf(id);
  const std::uint16_t low = LowOf(id);
  const auto it = FindContainer(containers_.begin(), containers_.end(), key);
  if (it == containers_.end() || it->key != key) return false;
  if (!it->bits.empty()) {
    return (it->bits[low >> 6] >> (low & 63) & 1) != 0;
  }
  return std::binary_search(it->array.begin(), it->array.end(), low);
}

void PostingList::AppendTo(std::vector<std::uint32_t>* out) const {
  out->reserve(out->size() + size_);
  for (const Container& c : containers_) {
    const std::uint32_t high = static_cast<std::uint32_t>(c.key) << 16;
    if (c.bits.empty()) {
      for (const std::uint16_t v : c.array) out->push_back(high | v);
      continue;
    }
    for (std::size_t w = 0; w < kBitmapWords; ++w) {
      for (std::uint64_t bits = c.bits[w]; bits != 0; bits &= bits - 1) {
        out->push_back(high | static_cast<std::uint32_t>(
                                  w * 64 + static_cast<std::size_t>(
                                               __builtin_ctzll(bits))));
      }
    }
  }
}

}  // namespace censys::search
