// Posting lists over dense document ids (the Lucene half of §5.3's
// Elasticsearch tier), stored the Roaring way (Lemire et al., "Better
// bitmap performance with Roaring bitmaps", 2016).
//
// An id splits into a 16-bit container key and a 16-bit low half. A
// container keeps its low halves as a sorted array while it holds at most
// kArrayMax of them and as a 65,536-bit bitmap past that, so one insert or
// erase moves at most 8 KB whatever the list's length, and a dense list
// costs about a bit per id.
//
// Not thread-safe: SearchIndex guards its lists with its own lock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace censys::search {

class PostingList {
 public:
  // Returns true when `id` was not yet in the list.
  bool Insert(std::uint32_t id);
  // Returns true when `id` was in the list.
  bool Erase(std::uint32_t id);
  bool Contains(std::uint32_t id) const;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  // Appends every id to *out, ascending.
  void AppendTo(std::vector<std::uint32_t>* out) const;

 private:
  // Largest array container; a bitmap past it. A bitmap goes back to an
  // array only at half this, so an id flapping at the boundary does not
  // convert the container on every call.
  static constexpr std::size_t kArrayMax = 4096;
  static constexpr std::size_t kBitmapWords = 65536 / 64;

  struct Container {
    std::uint16_t key = 0;
    std::uint32_t count = 0;
    std::vector<std::uint16_t> array;  // sorted low halves, array form
    std::vector<std::uint64_t> bits;   // kBitmapWords words, bitmap form
  };

  std::vector<Container> containers_;  // ascending key
  std::size_t size_ = 0;
};

}  // namespace censys::search
