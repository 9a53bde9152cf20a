// Full-text search over entity state (the Elasticsearch role in §5.3).
//
// Documents are entity field maps. Values are word-tokenized into an
// inverted index; term queries resolve through posting lists, wildcard and
// phrase queries narrow via the index where possible and post-filter
// against the stored document. NOT is evaluated against the full document
// universe, exactly like a boolean filter context.
//
// Like Lucene under Elasticsearch, the index works on dense uint32 doc
// ids: a dictionary maps each string id to one (freed ids are reused),
// terms "field\x1fword" and "\x1fword" (any field) are hash-interned to
// term ids, and each term's posting is a Roaring-style PostingList. AND,
// OR and NOT are merges over ascending id vectors; answers map back to
// string ids, sorted. Re-indexing a document diffs the new field map
// against the stored copy and touches only the tokens that appear in or
// vanish from a changed field; per-document counts of the fields holding
// each word keep the any-field postings exact.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/metrics.h"
#include "core/thread_safety.h"
#include "search/postings.h"
#include "search/query.h"
#include "storage/delta.h"

namespace censys::storage {
class EventJournal;
}  // namespace censys::storage

namespace censys::search {

// Concurrency: one reader/writer lock guards the documents, the
// dictionaries and every posting. Writers (Index / Remove / Clear) take it
// exclusively; queries and size probes share it, so the serving frontend
// can search from many threads concurrently with a rebuild.
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
  using DocId = std::uint32_t;
  using TermId = std::uint32_t;
  using DocIds = std::vector<DocId>;  // ascending

  // String-keyed hash map with string_view lookups.
  struct StringHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  template <typename V>
  using StringMap =
      std::unordered_map<std::string, V, StringHash, std::equal_to<>>;

  struct Doc {
    DocId id = 0;
    storage::FieldMap fields;
    // (any-field term, number of this document's fields holding the
    // word), ascending by term: the word leaves the "\x1fword" posting
    // when its count reaches zero.
    std::vector<std::pair<TermId, std::uint32_t>> any_counts;
  };
  using DocEntry = StringMap<Doc>::value_type;
  struct Term {
    const std::string* text = nullptr;  // key in term_ids_; null when free
    PostingList docs;
  };

  void RemoveLocked(std::string_view doc_id) CENSYS_REQUIRES(mu_);
  // Brings `doc` (its postings, field presence and stored fields) to
  // exactly `fields`, touching only the fields whose values differ.
  void UpdateLocked(Doc& doc, const storage::FieldMap& fields)
      CENSYS_REQUIRES(mu_);
  // Moves one field of `doc` from value `before` to `after` (either may
  // be empty): only tokens in one value and not the other change.
  void RetokenizeLocked(Doc& doc, const std::string& field,
                        std::string_view before, std::string_view after)
      CENSYS_REQUIRES(mu_);
  // Adds / drops one word of one field: `key` is "field\x1fword", whose
  // suffix from `field_len` is the any-field term "\x1fword".
  void AddWordLocked(Doc& doc, std::string_view key, std::size_t field_len)
      CENSYS_REQUIRES(mu_);
  void DropWordLocked(Doc& doc, std::string_view key, std::size_t field_len)
      CENSYS_REQUIRES(mu_);
  TermId InternLocked(std::string_view key) CENSYS_REQUIRES(mu_);
  // Removes `doc` from term `term`'s posting, freeing the term when it
  // empties.
  void ErasePostingLocked(TermId term, DocId doc) CENSYS_REQUIRES(mu_);

  DocIds EvalNode(const QueryPtr& node) const CENSYS_REQUIRES_SHARED(mu_);
  DocIds EvalTerm(const QueryNode& term) const CENSYS_REQUIRES_SHARED(mu_);
  DocIds AllDocs() const CENSYS_REQUIRES_SHARED(mu_);
  const PostingList* FindPosting(std::string_view key) const
      CENSYS_REQUIRES_SHARED(mu_);
  // String ids of `matches`, sorted.
  std::vector<std::string> Names(const DocIds& matches) const
      CENSYS_REQUIRES_SHARED(mu_);

  // Writers (Index / Remove / Clear) exclusive, queries shared.
  mutable core::SharedMutex mu_;
  StringMap<Doc> docs_ CENSYS_GUARDED_BY(mu_);
  // Dense id -> its entry in docs_ (null when free); node pointers are
  // stable across rehashes.
  std::vector<const DocEntry*> slots_ CENSYS_GUARDED_BY(mu_);
  std::vector<DocId> free_docs_ CENSYS_GUARDED_BY(mu_);
  // "field\x1fword" and "\x1fword" -> term id.
  StringMap<TermId> term_ids_ CENSYS_GUARDED_BY(mu_);
  std::vector<Term> terms_ CENSYS_GUARDED_BY(mu_);
  std::vector<TermId> free_terms_ CENSYS_GUARDED_BY(mu_);
  // field -> docs that have the field (accelerates wildcard terms).
  StringMap<PostingList> field_docs_ CENSYS_GUARDED_BY(mu_);

  metrics::GaugeHandle docs_metric_;
  metrics::CounterHandle indexed_metric_;
  metrics::CounterHandle queries_metric_;
};

// Brings `index` in line with the journal's current entity states: indexes
// every non-empty entity and removes the document of every emptied one (a
// no-op when it holds none). The one rebuild walk, shared by the engine's
// RebuildSearchIndex and a follower's bootstrap. Returns the number of
// documents indexed.
std::size_t IndexJournal(const storage::EventJournal& journal,
                         SearchIndex& index);

}  // namespace censys::search
