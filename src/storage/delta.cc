#include "storage/delta.h"

#include "storage/serialize.h"

namespace censys::storage {

std::string Delta::Encode() const {
  std::string out;
  PutVarint(out, ops.size());
  for (const FieldOp& op : ops) {
    out.push_back(op.kind == FieldOp::Kind::kSet ? 'S' : 'R');
    PutLengthPrefixed(out, op.key);
    if (op.kind == FieldOp::Kind::kSet) PutLengthPrefixed(out, op.value);
  }
  return out;
}

std::optional<Delta> Delta::Decode(std::string_view data) {
  std::size_t pos = 0;
  const auto count = GetVarint(data, &pos);
  if (!count.has_value()) return std::nullopt;
  Delta delta;
  delta.ops.reserve(*count);
  for (std::uint64_t i = 0; i < *count; ++i) {
    if (pos >= data.size()) return std::nullopt;
    const char kind = data[pos++];
    if (kind != 'S' && kind != 'R') return std::nullopt;
    const auto key = GetLengthPrefixed(data, &pos);
    if (!key.has_value()) return std::nullopt;
    FieldOp op;
    op.key = std::string(*key);
    if (kind == 'S') {
      const auto value = GetLengthPrefixed(data, &pos);
      if (!value.has_value()) return std::nullopt;
      op.kind = FieldOp::Kind::kSet;
      op.value = std::string(*value);
    } else {
      op.kind = FieldOp::Kind::kRemove;
    }
    delta.ops.push_back(std::move(op));
  }
  if (pos != data.size()) return std::nullopt;
  return delta;
}

Delta ComputeDelta(const FieldMap& before, const FieldMap& after) {
  return ComputeDelta(before.begin(), before.end(), after);
}

Delta ComputeDelta(FieldMap::const_iterator before_begin,
                   FieldMap::const_iterator before_end, const FieldMap& after) {
  Delta delta;
  // Merge-walk the two sorted ranges.
  auto b = before_begin;
  auto a = after.begin();
  while (b != before_end || a != after.end()) {
    if (a == after.end() || (b != before_end && b->first < a->first)) {
      delta.ops.push_back({FieldOp::Kind::kRemove, b->first, {}});
      ++b;
    } else if (b == before_end || a->first < b->first) {
      delta.ops.push_back({FieldOp::Kind::kSet, a->first, a->second});
      ++a;
    } else {
      if (b->second != a->second) {
        delta.ops.push_back({FieldOp::Kind::kSet, a->first, a->second});
      }
      ++b;
      ++a;
    }
  }
  return delta;
}

void ApplyDelta(FieldMap& state, const Delta& delta) {
  for (const FieldOp& op : delta.ops) {
    if (op.kind == FieldOp::Kind::kSet) {
      state[op.key] = op.value;
    } else {
      state.erase(op.key);
    }
  }
}

}  // namespace censys::storage
