// Full-text search over entity state (the Elasticsearch role in §5.3).
//
// Documents are entity field maps. Values are word-tokenized into an
// inverted index; term queries resolve through posting lists, wildcard and
// phrase queries narrow via the index where possible and post-filter
// against the stored document. NOT is evaluated against the full document
// universe, exactly like a boolean filter context.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "core/metrics.h"
#include "core/thread_safety.h"
#include "search/query.h"
#include "storage/delta.h"

namespace censys::search {

// Concurrency: one reader/writer lock guards the document store and both
// posting maps. Writers (Index / Remove) take it exclusively; queries and
// size probes share it, so the serving frontend can search from many
// threads concurrently with a rebuild.
class SearchIndex {
 public:
  // Indexes (or re-indexes) a document.
  void Index(std::string_view doc_id, const storage::FieldMap& fields);
  void Remove(std::string_view doc_id);
  // Drops every document.
  void Clear();

  // Executes a parsed query; result ids are sorted. Malformed queries (from
  // Search()) return an empty result with *error set. Queries take the
  // index's reader lock, so the serving frontend can search from many
  // threads concurrently with an Index/Remove rebuild.
  std::vector<std::string> Search(std::string_view query,
                                  std::string* error) const;
  std::vector<std::string> Execute(const QueryPtr& query) const;

  std::size_t doc_count() const;
  std::size_t term_count() const;
  // Pointer remains valid only until the next Index/Remove of that doc;
  // cross-thread callers must not hold it across a rebuild.
  const storage::FieldMap* GetDocument(std::string_view doc_id) const;

  // Registers censys.search.* instruments (docs gauge, index operations;
  // rebuild timing is recorded by the engine's RebuildSearchIndex).
  void BindMetrics(metrics::Registry* registry);

 private:
  using DocSet = std::set<std::string>;

  void RemoveLocked(std::string_view doc_id) CENSYS_REQUIRES(mu_);
  DocSet EvalNode(const QueryPtr& node) const CENSYS_REQUIRES_SHARED(mu_);
  DocSet EvalTerm(const QueryNode& term) const CENSYS_REQUIRES_SHARED(mu_);
  static std::vector<std::string> Tokenize(std::string_view value);

  // Writers (Index / Remove / Clear) exclusive, queries shared.
  mutable core::SharedMutex mu_;
  std::map<std::string, storage::FieldMap, std::less<>> docs_
      CENSYS_GUARDED_BY(mu_);
  // token -> doc ids. Tokens are "field\x1fword" plus "\x1fword" (any-field).
  std::map<std::string, DocSet, std::less<>> postings_ CENSYS_GUARDED_BY(mu_);
  // field -> doc ids that have the field (accelerates wildcard terms).
  std::map<std::string, DocSet, std::less<>> field_docs_
      CENSYS_GUARDED_BY(mu_);

  metrics::GaugeHandle docs_metric_;
  metrics::CounterHandle indexed_metric_;
  metrics::CounterHandle queries_metric_;
};

}  // namespace censys::search
