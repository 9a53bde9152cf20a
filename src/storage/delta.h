// Field-level delta encoding.
//
// "Journal events are delta encoded such that only differences to a service
// are stored to disk rather than the entire scan record since most services
// change very little across refresh scans" (§5.2). A delta is a list of
// set/remove operations on a field map; applying a delta to the old state
// yields the new state exactly.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace censys::storage {

using FieldMap = std::map<std::string, std::string>;

struct FieldOp {
  enum class Kind : std::uint8_t { kSet, kRemove } kind = Kind::kSet;
  std::string key;
  std::string value;  // empty for kRemove

  bool operator==(const FieldOp&) const = default;
};

struct Delta {
  std::vector<FieldOp> ops;  // sorted by key; at most one op per key

  bool empty() const { return ops.empty(); }
  std::size_t size() const { return ops.size(); }

  std::string Encode() const;
  static std::optional<Delta> Decode(std::string_view data);

  bool operator==(const Delta&) const = default;
};

// The delta that transforms `before` into `after`.
Delta ComputeDelta(const FieldMap& before, const FieldMap& after);

// Same, with `before` the sorted range [before_begin, before_end) of a
// larger map (one service's fields of a host entity, say).
Delta ComputeDelta(FieldMap::const_iterator before_begin,
                   FieldMap::const_iterator before_end, const FieldMap& after);

// Applies `delta` to `state` in place.
void ApplyDelta(FieldMap& state, const Delta& delta);

}  // namespace censys::storage
