#include "search/index.h"

#include <algorithm>

#include "core/strings.h"
#include "search/match.h"
#include "storage/journal.h"

namespace censys::search {
namespace {

constexpr char kSep = '\x1f';

bool HasWildcard(std::string_view pattern) {
  return pattern.find('*') != std::string_view::npos ||
         pattern.find('?') != std::string_view::npos;
}

// The distinct tokens of `value`, sorted. Tokenization is shared with the
// per-document matcher (search/match.h) so the index and standing-query
// evaluations can never tokenize differently.
std::vector<std::string> DistinctWords(std::string_view value) {
  std::vector<std::string> words = TokenizeValue(value);
  std::sort(words.begin(), words.end());
  words.erase(std::unique(words.begin(), words.end()), words.end());
  return words;
}

// Intersection of two ascending id vectors.
std::vector<std::uint32_t> Intersect(const std::vector<std::uint32_t>& a,
                                     const std::vector<std::uint32_t>& b) {
  const std::vector<std::uint32_t>& small = a.size() <= b.size() ? a : b;
  const std::vector<std::uint32_t>& large = a.size() <= b.size() ? b : a;
  std::vector<std::uint32_t> out;
  if (small.size() * 16 < large.size()) {
    // Skewed sizes: gallop through the large side by binary search.
    auto lo = large.begin();
    for (const std::uint32_t id : small) {
      lo = std::lower_bound(lo, large.end(), id);
      if (lo == large.end()) break;
      if (*lo == id) out.push_back(id);
    }
    return out;
  }
  std::set_intersection(small.begin(), small.end(), large.begin(),
                        large.end(), std::back_inserter(out));
  return out;
}

}  // namespace

void SearchIndex::BindMetrics(metrics::Registry* registry) {
  docs_metric_ = metrics::BindGauge(registry, "censys.search.docs");
  indexed_metric_ = metrics::BindCounter(registry, "censys.search.indexed");
  queries_metric_ = metrics::BindCounter(registry, "censys.search.queries");
}

void SearchIndex::Index(std::string_view doc_id,
                        const storage::FieldMap& fields) {
  const core::MutexLock lock(mu_);
  auto it = docs_.find(doc_id);
  if (it == docs_.end()) {
    it = docs_.emplace(std::string(doc_id), Doc{}).first;
    if (free_docs_.empty()) {
      it->second.id = static_cast<DocId>(slots_.size());
      slots_.push_back(nullptr);
    } else {
      it->second.id = free_docs_.back();
      free_docs_.pop_back();
    }
    slots_[it->second.id] = &*it;
  }
  UpdateLocked(it->second, fields);
  indexed_metric_.Add();
  docs_metric_.Set(static_cast<std::int64_t>(docs_.size()));
}

void SearchIndex::Remove(std::string_view doc_id) {
  const core::MutexLock lock(mu_);
  RemoveLocked(doc_id);
}

void SearchIndex::Clear() {
  const core::MutexLock lock(mu_);
  docs_.clear();
  slots_.clear();
  free_docs_.clear();
  term_ids_.clear();
  terms_.clear();
  free_terms_.clear();
  field_docs_.clear();
  docs_metric_.Set(0);
}

void SearchIndex::RemoveLocked(std::string_view doc_id) {
  const auto it = docs_.find(doc_id);
  if (it == docs_.end()) return;
  UpdateLocked(it->second, storage::FieldMap{});
  slots_[it->second.id] = nullptr;
  free_docs_.push_back(it->second.id);
  docs_.erase(it);
  docs_metric_.Set(static_cast<std::int64_t>(docs_.size()));
}

void SearchIndex::UpdateLocked(Doc& doc, const storage::FieldMap& fields) {
  // Both maps are sorted by field: one merge pass pairs them up.
  auto have = doc.fields.begin();
  auto want = fields.begin();
  while (have != doc.fields.end() || want != fields.end()) {
    if (want == fields.end() ||
        (have != doc.fields.end() && have->first < want->first)) {
      RetokenizeLocked(doc, have->first, have->second, {});
      const auto present = field_docs_.find(have->first);
      present->second.Erase(doc.id);
      if (present->second.empty()) field_docs_.erase(present);
      have = doc.fields.erase(have);
    } else if (have == doc.fields.end() || want->first < have->first) {
      RetokenizeLocked(doc, want->first, {}, want->second);
      field_docs_[want->first].Insert(doc.id);
      doc.fields.emplace_hint(have, want->first, want->second);
      ++want;
    } else {
      if (have->second != want->second) {
        RetokenizeLocked(doc, have->first, have->second, want->second);
        have->second = want->second;
      }
      ++have;
      ++want;
    }
  }
}

void SearchIndex::RetokenizeLocked(Doc& doc, const std::string& field,
                                   std::string_view before,
                                   std::string_view after) {
  const std::vector<std::string> old_words = DistinctWords(before);
  const std::vector<std::string> new_words = DistinctWords(after);
  std::string key = field;
  key += kSep;
  const std::size_t field_len = field.size();
  const auto keyed = [&](const std::string& word) -> std::string_view {
    key.resize(field_len + 1);
    key += word;
    return key;
  };
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < old_words.size() || j < new_words.size()) {
    if (j == new_words.size() ||
        (i < old_words.size() && old_words[i] < new_words[j])) {
      DropWordLocked(doc, keyed(old_words[i++]), field_len);
    } else if (i == old_words.size() || new_words[j] < old_words[i]) {
      AddWordLocked(doc, keyed(new_words[j++]), field_len);
    } else {
      ++i;
      ++j;
    }
  }
}

void SearchIndex::AddWordLocked(Doc& doc, std::string_view key,
                                std::size_t field_len) {
  terms_[InternLocked(key)].docs.Insert(doc.id);
  const TermId any = InternLocked(key.substr(field_len));
  const auto count = std::lower_bound(
      doc.any_counts.begin(), doc.any_counts.end(), any,
      [](const auto& entry, TermId term) { return entry.first < term; });
  if (count != doc.any_counts.end() && count->first == any) {
    ++count->second;
    return;
  }
  doc.any_counts.insert(count, {any, 1});
  terms_[any].docs.Insert(doc.id);
}

void SearchIndex::DropWordLocked(Doc& doc, std::string_view key,
                                 std::size_t field_len) {
  ErasePostingLocked(term_ids_.find(key)->second, doc.id);
  const TermId any = term_ids_.find(key.substr(field_len))->second;
  const auto count = std::lower_bound(
      doc.any_counts.begin(), doc.any_counts.end(), any,
      [](const auto& entry, TermId term) { return entry.first < term; });
  if (--count->second > 0) return;  // another field still holds the word
  doc.any_counts.erase(count);
  ErasePostingLocked(any, doc.id);
}

SearchIndex::TermId SearchIndex::InternLocked(std::string_view key) {
  if (const auto it = term_ids_.find(key); it != term_ids_.end()) {
    return it->second;
  }
  TermId id;
  if (free_terms_.empty()) {
    id = static_cast<TermId>(terms_.size());
    terms_.emplace_back();
  } else {
    id = free_terms_.back();
    free_terms_.pop_back();
  }
  terms_[id].text = &term_ids_.emplace(std::string(key), id).first->first;
  return id;
}

void SearchIndex::ErasePostingLocked(TermId term, DocId doc) {
  Term& entry = terms_[term];
  entry.docs.Erase(doc);
  if (!entry.docs.empty()) return;
  term_ids_.erase(term_ids_.find(*entry.text));
  entry.text = nullptr;
  free_terms_.push_back(term);
}

std::vector<std::string> SearchIndex::Search(std::string_view query,
                                             std::string* error) const {
  queries_metric_.Add();
  const auto parsed = ParseQuery(query, error);
  if (!parsed.has_value()) return {};
  const core::ReaderLock lock(mu_);
  return Names(EvalNode(*parsed));
}

std::vector<std::string> SearchIndex::Execute(const QueryPtr& query) const {
  const core::ReaderLock lock(mu_);
  return Names(EvalNode(query));
}

std::vector<std::string> SearchIndex::Names(const DocIds& matches) const {
  std::vector<const std::string*> names;
  names.reserve(matches.size());
  for (const DocId id : matches) names.push_back(&slots_[id]->first);
  std::sort(names.begin(), names.end(),
            [](const std::string* a, const std::string* b) { return *a < *b; });
  std::vector<std::string> out;
  out.reserve(names.size());
  for (const std::string* name : names) out.push_back(*name);
  return out;
}

SearchIndex::DocIds SearchIndex::AllDocs() const {
  DocIds all;
  all.reserve(docs_.size());
  for (DocId id = 0; id < slots_.size(); ++id) {
    if (slots_[id] != nullptr) all.push_back(id);
  }
  return all;
}

const PostingList* SearchIndex::FindPosting(std::string_view key) const {
  const auto it = term_ids_.find(key);
  return it == term_ids_.end() ? nullptr : &terms_[it->second].docs;
}

SearchIndex::DocIds SearchIndex::EvalNode(const QueryPtr& node) const {
  switch (node->kind) {
    case QueryNode::Kind::kTerm:
      return EvalTerm(*node);
    case QueryNode::Kind::kAnd: {
      DocIds acc = EvalNode(node->children[0]);
      for (std::size_t i = 1; i < node->children.size() && !acc.empty(); ++i) {
        acc = Intersect(acc, EvalNode(node->children[i]));
      }
      return acc;
    }
    case QueryNode::Kind::kOr: {
      DocIds acc;
      for (const QueryPtr& child : node->children) {
        const DocIds next = EvalNode(child);
        DocIds merged;
        merged.reserve(acc.size() + next.size());
        std::set_union(acc.begin(), acc.end(), next.begin(), next.end(),
                       std::back_inserter(merged));
        acc = std::move(merged);
      }
      return acc;
    }
    case QueryNode::Kind::kNot: {
      const DocIds excluded = EvalNode(node->children[0]);
      const DocIds all = AllDocs();
      DocIds result;
      result.reserve(all.size() - excluded.size());
      std::set_difference(all.begin(), all.end(), excluded.begin(),
                          excluded.end(), std::back_inserter(result));
      return result;
    }
  }
  return {};
}

SearchIndex::DocIds SearchIndex::EvalTerm(const QueryNode& term) const {
  const auto fields_of = [&](DocId id) -> const storage::FieldMap& {
    return slots_[id]->second.fields;
  };

  if (HasWildcard(term.pattern)) {
    // Wildcard: narrow to documents having the field, then glob-match the
    // stored value.
    const std::string pattern_lower = ToLower(term.pattern);
    DocIds candidates;
    if (!term.field.empty()) {
      const auto fd = field_docs_.find(term.field);
      if (fd == field_docs_.end()) return {};
      fd->second.AppendTo(&candidates);
    } else {
      candidates = AllDocs();
    }
    DocIds result;
    for (const DocId id : candidates) {
      const storage::FieldMap& fields = fields_of(id);
      if (!term.field.empty()) {
        const auto it = fields.find(term.field);
        if (GlobMatch(pattern_lower, ToLower(it->second))) result.push_back(id);
        continue;
      }
      for (const auto& [field, value] : fields) {
        if (GlobMatch(pattern_lower, ToLower(value))) {
          result.push_back(id);
          break;
        }
      }
    }
    return result;
  }

  const std::vector<std::string> words = TokenizeValue(term.pattern);
  if (words.empty()) return {};

  // AND of word postings, smallest first, probing the larger ones.
  std::vector<const PostingList*> lists;
  std::string key = term.field;
  key += kSep;
  for (const std::string& word : words) {
    key.resize(term.field.size() + 1);
    key += word;
    const PostingList* posting = FindPosting(key);
    if (posting == nullptr) return {};
    lists.push_back(posting);
  }
  std::sort(lists.begin(), lists.end(),
            [](const PostingList* a, const PostingList* b) {
              return a->size() < b->size();
            });
  DocIds acc;
  lists[0]->AppendTo(&acc);
  for (std::size_t i = 1; i < lists.size() && !acc.empty(); ++i) {
    std::erase_if(acc, [&](DocId id) { return !lists[i]->Contains(id); });
  }

  // Multi-word phrases post-filter for contiguity.
  if (term.is_phrase && words.size() > 1) {
    std::erase_if(acc, [&](DocId id) {
      const storage::FieldMap& fields = fields_of(id);
      if (!term.field.empty()) {
        const auto it = fields.find(term.field);
        return it == fields.end() ||
               !ContainsIgnoreCase(it->second, term.pattern);
      }
      return std::none_of(fields.begin(), fields.end(), [&](const auto& kv) {
        return ContainsIgnoreCase(kv.second, term.pattern);
      });
    });
  }
  return acc;
}

std::size_t SearchIndex::doc_count() const {
  const core::ReaderLock lock(mu_);
  return docs_.size();
}

std::size_t SearchIndex::term_count() const {
  const core::ReaderLock lock(mu_);
  return term_ids_.size();
}

const storage::FieldMap* SearchIndex::GetDocument(
    std::string_view doc_id) const {
  const core::ReaderLock lock(mu_);
  const auto it = docs_.find(doc_id);
  return it == docs_.end() ? nullptr : &it->second.fields;
}

std::size_t IndexJournal(const storage::EventJournal& journal,
                         SearchIndex& index) {
  std::size_t indexed = 0;
  journal.ForEachEntity(
      [&](std::string_view entity_id, const storage::FieldMap& fields) {
        if (fields.empty()) {
          index.Remove(entity_id);
          return;
        }
        index.Index(entity_id, fields);
        ++indexed;
      });
  return indexed;
}

}  // namespace censys::search
