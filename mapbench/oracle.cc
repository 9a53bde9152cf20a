#include "oracle.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <unordered_map>

namespace mapbench {

using censys::storage::FieldMap;

RecordedView Record(const std::optional<censys::pipeline::HostView>& view) {
  RecordedView out;
  if (!view.has_value()) return out;
  out.present = true;
  out.watermark = view->watermark;
  out.records.reserve(view->services.size());
  for (const auto& service : view->services) out.records.push_back(service.record);
  return out;
}

bool SameView(const RecordedView& got, const RecordedView& want,
              bool compare_watermark, std::string* why) {
  if (got.present != want.present) {
    *why = got.present ? "view present, expected none" : "view missing";
    return false;
  }
  if (compare_watermark && got.watermark != want.watermark) {
    *why = "watermark " + std::to_string(got.watermark) + " != " +
           std::to_string(want.watermark);
    return false;
  }
  if (got.records.size() != want.records.size()) {
    *why = std::to_string(got.records.size()) + " services, expected " +
           std::to_string(want.records.size());
    return false;
  }
  for (std::size_t i = 0; i < got.records.size(); ++i) {
    if (!(got.records[i] == want.records[i])) {
      *why = "service " + std::to_string(i) + " differs";
      return false;
    }
  }
  return true;
}

std::vector<std::string> OwnTokens(std::string_view value) {
  std::vector<std::string> out;
  std::string cur;
  for (const char raw : value) {
    const unsigned char c = static_cast<unsigned char>(raw);
    if (std::isalnum(c) != 0 || c == '.' || c == '_' || c == '-') {
      cur.push_back(static_cast<char>(std::tolower(c)));
    } else if (!cur.empty()) {
      out.push_back(std::move(cur));
      cur.clear();
    }
  }
  if (!cur.empty()) out.push_back(std::move(cur));
  return out;
}

std::string SearchText(const std::vector<Term>& terms) {
  std::string text;
  for (const Term& term : terms) {
    if (!text.empty()) text += " AND ";
    text += term.field + ": " + term.token;
  }
  return text;
}

bool CheckSearch(
    std::vector<std::string> got, std::vector<std::string> fresh,
    const std::vector<Term>& terms,
    const std::function<const FieldMap*(std::string_view)>& doc,
    std::string* why) {
  if (!SameSet(got, fresh, why)) {
    *why = "differs from the expected answer: " + *why;
    return false;
  }
  for (const std::string& id : got) {
    const FieldMap* fields = doc(id);
    if (fields == nullptr) {
      *why = "returned " + id + ", which has no document";
      return false;
    }
    for (const Term& term : terms) {
      const auto it = fields->find(term.field);
      const std::vector<std::string> tokens =
          it == fields->end() ? std::vector<std::string>{}
                              : OwnTokens(it->second);
      if (std::find(tokens.begin(), tokens.end(), term.token) == tokens.end()) {
        *why = "returned " + id + " without '" + term.token + "' in " +
               term.field;
        return false;
      }
    }
  }
  return true;
}

std::vector<std::vector<std::string>> OwnSearch(
    const censys::storage::EventJournal& journal,
    const std::vector<const std::vector<Term>*>& searches) {
  // field -> token -> term slot; one slot per distinct (field, token).
  std::unordered_map<std::string, std::map<std::string, std::size_t>> slots;
  std::vector<std::vector<std::size_t>> search_slots;
  std::size_t slot_count = 0;
  for (const std::vector<Term>* terms : searches) {
    std::vector<std::size_t> mine;
    for (const Term& term : *terms) {
      auto [it, inserted] = slots[term.field].emplace(term.token, slot_count);
      if (inserted) ++slot_count;
      mine.push_back(it->second);
    }
    search_slots.push_back(std::move(mine));
  }
  std::vector<std::vector<std::string>> out(searches.size());
  std::vector<bool> present(slot_count);
  journal.ForEachEntity([&](std::string_view id, const FieldMap& fields) {
    if (fields.empty()) return;
    std::fill(present.begin(), present.end(), false);
    for (const auto& [field, value] : fields) {
      const auto tokens = slots.find(field);
      if (tokens == slots.end()) continue;
      for (const std::string& token : OwnTokens(value)) {
        const auto slot = tokens->second.find(token);
        if (slot != tokens->second.end()) present[slot->second] = true;
      }
    }
    for (std::size_t s = 0; s < search_slots.size(); ++s) {
      bool all = true;
      for (const std::size_t slot : search_slots[s]) all = all && present[slot];
      if (all) out[s].emplace_back(id);
    }
  });
  return out;
}

Groups OwnGroupCount(const censys::storage::EventJournal& journal,
                     const std::string& field, bool suffix) {
  Groups out;
  journal.ForEachEntity([&](std::string_view, const FieldMap& fields) {
    if (fields.empty()) return;
    if (!suffix) {
      const auto it = fields.find(field);
      if (it != fields.end()) ++out[it->second];
      return;
    }
    for (const auto& [key, value] : fields) {
      if (key.size() >= field.size() &&
          key.compare(key.size() - field.size(), field.size(), field) == 0) {
        ++out[value];
      }
    }
  });
  return out;
}

bool SameGroups(const Groups& got, const Groups& want, std::string* why) {
  if (got == want) return true;
  for (const auto& [value, count] : want) {
    const auto it = got.find(value);
    const std::uint64_t have = it == got.end() ? 0 : it->second;
    if (have != count) {
      *why = "group '" + value + "' counts " + std::to_string(have) +
             ", expected " + std::to_string(count);
      return false;
    }
  }
  *why = "answer has groups the journal does not";
  return false;
}

bool ServedAggregateMatches(const censys::serving::QueryOutcome& served,
                            const Groups& want, std::string* why) {
  if (served.failed || served.degraded) {
    *why = "failed or answered by a journal walk";
    return false;
  }
  if (served.hit == !want.empty() && served.results == want.size()) {
    return true;
  }
  *why = std::to_string(served.results) + " groups served, expected " +
         std::to_string(want.size());
  return false;
}

bool SameSet(std::vector<std::string> got, std::vector<std::string> want,
             std::string* why) {
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  if (got == want) return true;
  *why = std::to_string(got.size()) + " ids, expected " +
         std::to_string(want.size());
  if (got.size() == want.size()) *why += " (same size, different members)";
  return false;
}

bool SameDigest(std::uint64_t follower, std::uint64_t leader,
                std::string* why) {
  if (follower == leader) return true;
  char buf[96];
  std::snprintf(buf, sizeof(buf), "digest %016llx != leader %016llx",
                static_cast<unsigned long long>(follower),
                static_cast<unsigned long long>(leader));
  *why = buf;
  return false;
}

bool LiveShareAtLeast(std::uint64_t live, std::uint64_t returned,
                      double floor, std::string* why) {
  const double share =
      returned == 0 ? 0.0 : static_cast<double>(live) / static_cast<double>(returned);
  if (returned > 0 && share >= floor) return true;
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%llu of %llu live (%.3f < floor %.2f)",
                static_cast<unsigned long long>(live),
                static_cast<unsigned long long>(returned), share, floor);
  *why = buf;
  return false;
}

}  // namespace mapbench
