// Correctness oracles for the map benchmark.
//
// Every check compares an answer the program served against a value the
// benchmark computed apart from the code path under test (its own
// recording, its own count, a from-scratch index), or against a property
// the method must have (equal replica digests). The checks are plain
// functions of (answer, expectation) so the self-test can feed each one a
// deliberately altered answer and confirm it is rejected. All of them run
// outside the timed windows.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "pipeline/read_side.h"
#include "serving/frontend.h"
#include "storage/delta.h"
#include "storage/journal.h"

namespace mapbench {

// A host view reduced to what leader and follower must agree on: the
// journaled service records and the entity's journal watermark. (Context
// the follower has no source for — geo/ASN enrichment, scan state — is
// left out; see the FOUND notes in CHANGES.md.)
struct RecordedView {
  bool present = false;
  std::uint64_t watermark = 0;
  std::vector<censys::pipeline::ServiceRecord> records;
};

RecordedView Record(const std::optional<censys::pipeline::HostView>& view);

// `compare_watermark` is off for history answers (GetHostAt reconstructs
// and stamps watermark 0 by contract).
bool SameView(const RecordedView& got, const RecordedView& want,
              bool compare_watermark, std::string* why);

// The benchmark's own tokenizer: lowercased maximal runs of ASCII letters,
// digits, '.', '_' and '-'.
std::vector<std::string> OwnTokens(std::string_view value);

// One field-constrained search term "field: token".
struct Term {
  std::string field;
  std::string token;
};

// The search expression the benchmark sends for `terms` (AND of terms).
std::string SearchText(const std::vector<Term>& terms);

// A search answer must equal the expected answer as a set, and every
// returned document must hold every term's token in the term's field, by
// the benchmark's own tokenizer. `doc` returns a document's fields (null
// when absent).
bool CheckSearch(
    std::vector<std::string> got, std::vector<std::string> fresh,
    const std::vector<Term>& terms,
    const std::function<const censys::storage::FieldMap*(std::string_view)>&
        doc,
    std::string* why);

// The benchmark's own answers to AND-of-terms searches: one walk over the
// journal's non-empty entity states, testing each term with OwnTokens.
// Returns one sorted id list per search.
std::vector<std::vector<std::string>> OwnSearch(
    const censys::storage::EventJournal& journal,
    const std::vector<const std::vector<Term>*>& searches);

using Groups = std::map<std::string, std::uint64_t>;

// The benchmark's own group count over the journal's non-empty entity
// states: per exact field (one per host holding it) or, with `suffix`,
// per value across every field ending in `field` (one per matching field).
Groups OwnGroupCount(const censys::storage::EventJournal& journal,
                     const std::string& field, bool suffix);

bool SameGroups(const Groups& got, const Groups& want, std::string* why);

// A served kAggregate answer carries only a hit flag and a group count: it
// must be a segment answer (not failed, not degraded) that agrees with
// `want` on both.
bool ServedAggregateMatches(const censys::serving::QueryOutcome& served,
                            const Groups& want, std::string* why);

bool SameSet(std::vector<std::string> got, std::vector<std::string> want,
             std::string* why);

bool SameDigest(std::uint64_t follower, std::uint64_t leader,
                std::string* why);

// Share of reported services that answer a liveness probe, against a
// floor.
bool LiveShareAtLeast(std::uint64_t live, std::uint64_t returned,
                      double floor, std::string* why);

}  // namespace mapbench
