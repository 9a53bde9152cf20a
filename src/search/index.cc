#include "search/index.h"

#include <algorithm>

#include "core/strings.h"
#include "search/match.h"

namespace censys::search {
namespace {

constexpr char kSep = '\x1f';

bool HasWildcard(std::string_view pattern) {
  return pattern.find('*') != std::string_view::npos ||
         pattern.find('?') != std::string_view::npos;
}

}  // namespace

std::vector<std::string> SearchIndex::Tokenize(std::string_view value) {
  // Shared with the per-document matcher (search/match.h) so the index
  // and standing-query evaluations can never tokenize differently.
  return TokenizeValue(value);
}

void SearchIndex::BindMetrics(metrics::Registry* registry) {
  docs_metric_ = metrics::BindGauge(registry, "censys.search.docs");
  indexed_metric_ = metrics::BindCounter(registry, "censys.search.indexed");
  queries_metric_ = metrics::BindCounter(registry, "censys.search.queries");
}

void SearchIndex::Index(std::string_view doc_id,
                        const storage::FieldMap& fields) {
  const core::MutexLock lock(mu_);
  RemoveLocked(doc_id);
  const std::string id(doc_id);
  for (const auto& [field, value] : fields) {
    field_docs_[field].insert(id);
    for (const std::string& token : Tokenize(value)) {
      postings_[field + kSep + token].insert(id);
      postings_[kSep + token].insert(id);
    }
  }
  docs_[id] = fields;
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
  postings_.clear();
  field_docs_.clear();
  docs_metric_.Set(0);
}

void SearchIndex::RemoveLocked(std::string_view doc_id) {
  const auto it = docs_.find(doc_id);
  if (it == docs_.end()) return;
  const std::string id(doc_id);
  for (const auto& [field, value] : it->second) {
    if (const auto fd = field_docs_.find(field); fd != field_docs_.end()) {
      fd->second.erase(id);
      if (fd->second.empty()) field_docs_.erase(fd);
    }
    for (const std::string& token : Tokenize(value)) {
      for (const std::string& key : {field + kSep + token, kSep + token}) {
        if (const auto p = postings_.find(key); p != postings_.end()) {
          p->second.erase(id);
          if (p->second.empty()) postings_.erase(p);
        }
      }
    }
  }
  docs_.erase(it);
  docs_metric_.Set(static_cast<std::int64_t>(docs_.size()));
}

std::vector<std::string> SearchIndex::Search(std::string_view query,
                                             std::string* error) const {
  queries_metric_.Add();
  const auto parsed = ParseQuery(query, error);
  if (!parsed.has_value()) return {};
  const core::ReaderLock lock(mu_);
  const DocSet result = EvalNode(*parsed);
  return std::vector<std::string>(result.begin(), result.end());
}

std::vector<std::string> SearchIndex::Execute(const QueryPtr& query) const {
  const core::ReaderLock lock(mu_);
  const DocSet result = EvalNode(query);
  return std::vector<std::string>(result.begin(), result.end());
}

SearchIndex::DocSet SearchIndex::EvalNode(const QueryPtr& node) const {
  switch (node->kind) {
    case QueryNode::Kind::kTerm:
      return EvalTerm(*node);
    case QueryNode::Kind::kAnd: {
      DocSet acc = EvalNode(node->children[0]);
      for (std::size_t i = 1; i < node->children.size() && !acc.empty(); ++i) {
        const DocSet next = EvalNode(node->children[i]);
        DocSet intersection;
        std::set_intersection(
            acc.begin(), acc.end(), next.begin(), next.end(),
            std::inserter(intersection, intersection.begin()));
        acc = std::move(intersection);
      }
      return acc;
    }
    case QueryNode::Kind::kOr: {
      DocSet acc;
      for (const QueryPtr& child : node->children) {
        const DocSet next = EvalNode(child);
        acc.insert(next.begin(), next.end());
      }
      return acc;
    }
    case QueryNode::Kind::kNot: {
      const DocSet excluded = EvalNode(node->children[0]);
      DocSet result;
      for (const auto& [id, fields] : docs_) {
        if (!excluded.contains(id)) result.insert(id);
      }
      return result;
    }
  }
  return {};
}

SearchIndex::DocSet SearchIndex::EvalTerm(const QueryNode& term) const {
  const std::string pattern_lower = ToLower(term.pattern);

  if (HasWildcard(term.pattern)) {
    // Wildcard: narrow to documents having the field, then glob-match the
    // stored value.
    DocSet result;
    auto match_doc = [&](const std::string& id,
                         const storage::FieldMap& fields) {
      if (!term.field.empty()) {
        const auto it = fields.find(term.field);
        if (it != fields.end() && GlobMatch(pattern_lower, ToLower(it->second)))
          result.insert(id);
        return;
      }
      for (const auto& [field, value] : fields) {
        if (GlobMatch(pattern_lower, ToLower(value))) {
          result.insert(id);
          return;
        }
      }
    };
    if (!term.field.empty()) {
      const auto fd = field_docs_.find(term.field);
      if (fd == field_docs_.end()) return {};
      for (const std::string& id : fd->second) {
        match_doc(id, docs_.find(id)->second);
      }
    } else {
      for (const auto& [id, fields] : docs_) match_doc(id, fields);
    }
    return result;
  }

  const std::vector<std::string> words = Tokenize(term.pattern);
  if (words.empty()) return {};

  // AND of word postings.
  DocSet acc;
  for (std::size_t i = 0; i < words.size(); ++i) {
    const std::string key =
        (term.field.empty() ? std::string() : term.field) + kSep + words[i];
    const auto p = postings_.find(key);
    if (p == postings_.end()) return {};
    if (i == 0) {
      acc = p->second;
    } else {
      DocSet intersection;
      std::set_intersection(
          acc.begin(), acc.end(), p->second.begin(), p->second.end(),
          std::inserter(intersection, intersection.begin()));
      acc = std::move(intersection);
    }
    if (acc.empty()) return acc;
  }

  // Multi-word phrases post-filter for contiguity.
  if (term.is_phrase && words.size() > 1) {
    DocSet filtered;
    for (const std::string& id : acc) {
      const storage::FieldMap& fields = docs_.find(id)->second;
      auto contains_phrase = [&](const std::string& value) {
        return ContainsIgnoreCase(value, term.pattern);
      };
      if (!term.field.empty()) {
        const auto it = fields.find(term.field);
        if (it != fields.end() && contains_phrase(it->second))
          filtered.insert(id);
      } else {
        for (const auto& [field, value] : fields) {
          if (contains_phrase(value)) {
            filtered.insert(id);
            break;
          }
        }
      }
    }
    return filtered;
  }
  return acc;
}

std::size_t SearchIndex::doc_count() const {
  const core::ReaderLock lock(mu_);
  return docs_.size();
}

std::size_t SearchIndex::term_count() const {
  const core::ReaderLock lock(mu_);
  return postings_.size();
}

const storage::FieldMap* SearchIndex::GetDocument(
    std::string_view doc_id) const {
  const core::ReaderLock lock(mu_);
  const auto it = docs_.find(doc_id);
  return it == docs_.end() ? nullptr : &it->second;
}

}  // namespace censys::search
