// Tests for the Lisp-like DSL, declarative fingerprints, and CVE matching.
#include <gtest/gtest.h>

#include "fingerprint/dsl.h"
#include "fingerprint/fingerprints.h"
#include "fingerprint/vulns.h"

namespace censys::fingerprint {
namespace {

storage::FieldMap HttpFields(const std::string& title,
                             const std::string& banner = "") {
  return {{"service.name", "HTTP"},
          {"http.html_title", title},
          {"service.banner", banner}};
}

// ------------------------------------------------------------------------ DSL

TEST(DslParseTest, ParsesNestedExpressions) {
  std::string error;
  const auto expr = Parse(
      R"((and (= service.name "HTTP") (contains http.html_title "Router")))",
      &error);
  ASSERT_TRUE(expr.has_value()) << error;
  EXPECT_EQ((*expr)->kind, Expr::Kind::kList);
  EXPECT_EQ((*expr)->items.size(), 3u);
}

TEST(DslParseTest, RejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(Parse("(and (= a b)", &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(Parse("(= a \"unterminated)", &error).has_value());
  EXPECT_FALSE(Parse("(= a b) trailing", &error).has_value());
  EXPECT_FALSE(Parse(")", &error).has_value());
  EXPECT_FALSE(Parse("", &error).has_value());
}

TEST(DslParseTest, StringEscapes) {
  std::string error;
  const auto expr = Parse(R"((= x "quote \" inside"))", &error);
  ASSERT_TRUE(expr.has_value()) << error;
  EXPECT_EQ((*expr)->items[2]->atom, "quote \" inside");
}

struct EvalCase {
  const char* label;
  const char* source;
  bool expected;
};

// ctest names value-parameterized cases by their printed value; print the
// label so the names stay stable instead of showing the raw bytes, which
// hold a string pointer and differ from run to run.
void PrintTo(const EvalCase& c, std::ostream* os) { *os << c.label; }

class DslEvalTest : public ::testing::TestWithParam<EvalCase> {};

TEST_P(DslEvalTest, EvaluatesAgainstHttpRecord) {
  const storage::FieldMap env = {
      {"service.name", "HTTP"},
      {"service.banner", "Server: nginx/1.25.3"},
      {"http.html_title", "RouterOS router configuration page"},
  };
  CompiledRule rule = CompiledRule::Compile(GetParam().source);
  ASSERT_TRUE(rule.valid()) << rule.error();
  EXPECT_EQ(rule.Matches(env), GetParam().expected) << GetParam().source;
}

INSTANTIATE_TEST_SUITE_P(
    Rules, DslEvalTest,
    ::testing::Values(
        EvalCase{"eq_match", R"((= service.name "HTTP"))", true},
        EvalCase{"eq_mismatch", R"((= service.name "SSH"))", false},
        EvalCase{"neq", R"((!= service.name "SSH"))", true},
        EvalCase{"contains_ci", R"((contains http.html_title "routeros"))",
                 true},
        EvalCase{"starts_with", R"((starts-with service.banner "Server:"))",
                 true},
        EvalCase{"ends_with", R"((ends-with http.html_title "page"))", true},
        EvalCase{"glob_match", R"((glob service.banner "*nginx/1.25*"))", true},
        EvalCase{"glob_mismatch", R"((glob service.banner "*apache*"))", false},
        EvalCase{"and", R"((and (= service.name "HTTP")
                         (contains http.html_title "RouterOS")))", true},
        EvalCase{"or",
                 R"((or (= service.name "SSH") (= service.name "HTTP")))",
                 true},
        EvalCase{"not", R"((not (= service.name "SSH")))", true},
        EvalCase{"lower", R"((= (lower service.name) "http"))", true},
        EvalCase{"field", R"((= (field "service.name") "HTTP"))", true},
        EvalCase{"concat", R"((= (concat service.name "!") "HTTP!"))", true},
        EvalCase{"if", R"((if (= service.name "HTTP") (contains http.html_title
                    "RouterOS") (= 1 2)))", true},
        EvalCase{"missing_field_empty", R"((= missing.field ""))", true}));

TEST(DslEvalTest, ErrorsAreReportedNotThrown) {
  CompiledRule bad = CompiledRule::Compile("(unknown-fn x)");
  EXPECT_TRUE(bad.valid());          // parses fine
  EXPECT_FALSE(bad.Matches({}));     // but evaluation fails closed
  CompiledRule syntax = CompiledRule::Compile("(((");
  EXPECT_FALSE(syntax.valid());
  EXPECT_FALSE(syntax.error().empty());
  EXPECT_FALSE(syntax.Matches({}));
}

TEST(DslEvalTest, AndShortCircuits) {
  // The second arm would error, but the first is false.
  CompiledRule rule =
      CompiledRule::Compile(R"((and (= a "nope") (boom x)))");
  EXPECT_FALSE(rule.Matches({{"a", "other"}}));
}

// --------------------------------------------------------------- fingerprints

TEST(FingerprintEngineTest, PaperExampleWac6552dS) {
  const FingerprintEngine engine = FingerprintEngine::BuiltIn(0);
  const auto labels = engine.Evaluate(HttpFields("WAC6552D-S"));
  ASSERT_TRUE(labels.has_value());
  EXPECT_EQ(labels->manufacturer, "Zyxel");
  EXPECT_EQ(labels->device_type, "access-point");
}

TEST(FingerprintEngineTest, GlobPatternsMatchTitleVariants) {
  const FingerprintEngine engine = FingerprintEngine::BuiltIn(0);
  const auto labels =
      engine.Evaluate(HttpFields("RouterOS router configuration page"));
  ASSERT_TRUE(labels.has_value());
  EXPECT_EQ(labels->manufacturer, "MikroTik");
}

TEST(FingerprintEngineTest, DslRulesMatchIcsRecords) {
  const FingerprintEngine engine = FingerprintEngine::BuiltIn(0);
  const storage::FieldMap fields = {
      {"service.name", "S7"},
      {"device.manufacturer", "Siemens"},
      {"device.model", "SIMATIC S7-1200"},
  };
  const auto labels = engine.Evaluate(fields);
  ASSERT_TRUE(labels.has_value());
  EXPECT_EQ(labels->device_type, "plc");
}

TEST(FingerprintEngineTest, NoMatchYieldsNothing) {
  const FingerprintEngine engine = FingerprintEngine::BuiltIn(100);
  EXPECT_FALSE(engine.Evaluate(HttpFields("Some Unremarkable Page"))
                   .has_value());
}

TEST(FingerprintEngineTest, GeneratedTailCountsTowardCorpusSize) {
  EXPECT_GT(FingerprintEngine::BuiltIn(2000).size(), 2000u);
  EXPECT_LT(FingerprintEngine::BuiltIn(0).size(), 100u);
}

// ---------------------------------------------------------------------- vulns

TEST(VersionCompareTest, OrdersDottedVersions) {
  EXPECT_LT(CompareVersions("1.2.3", "1.2.10"), 0);
  EXPECT_GT(CompareVersions("2.0", "1.9.9"), 0);
  EXPECT_EQ(CompareVersions("1.2.3", "1.2.3"), 0);
  EXPECT_LT(CompareVersions("8.2p1", "8.9p1"), 0);
  EXPECT_LT(CompareVersions("8.9", "9.3p2"), 0);
  EXPECT_LT(CompareVersions("2.4.49", "2.4.51"), 0);
  EXPECT_GT(CompareVersions("10.0", "9.9"), 0);
}

TEST(CveDatabaseTest, MatchesAffectedRange) {
  const CveDatabase db = CveDatabase::BuiltIn();
  // OpenSSH 7.4 < 7.7: affected by CVE-2018-15473.
  const auto hits = db.Lookup({"openbsd", "openssh", "7.4"});
  bool found = false;
  for (const VulnEntry* v : hits) found |= (v->cve == "CVE-2018-15473");
  EXPECT_TRUE(found);
  // 9.3p2 is at the fixed bound of CVE-2023-38408: not affected.
  for (const VulnEntry* v : db.Lookup({"openbsd", "openssh", "9.3p2"})) {
    EXPECT_NE(v->cve, "CVE-2023-38408");
  }
}

TEST(CveDatabaseTest, IntroducedBoundIsRespected) {
  const CveDatabase db = CveDatabase::BuiltIn();
  // Apache 2.4.49 is the introduced version of CVE-2021-41773...
  bool found = false;
  for (const VulnEntry* v : db.Lookup({"apache", "httpd", "2.4.49"})) {
    found |= (v->cve == "CVE-2021-41773");
  }
  EXPECT_TRUE(found);
  // ...2.4.48 predates it.
  for (const VulnEntry* v : db.Lookup({"apache", "httpd", "2.4.48"})) {
    EXPECT_NE(v->cve, "CVE-2021-41773");
  }
}

TEST(CveDatabaseTest, UnknownSoftwareHasNoCves) {
  const CveDatabase db = CveDatabase::BuiltIn();
  EXPECT_TRUE(db.Lookup({"acme", "widgetd", "1.0"}).empty());
}

TEST(CveDatabaseTest, KevFlagSurvivesLookup) {
  const CveDatabase db = CveDatabase::BuiltIn();
  bool any_kev = false;
  for (const VulnEntry* v : db.Lookup({"exim", "exim", "4.90"})) {
    any_kev |= v->kev;
  }
  EXPECT_TRUE(any_kev);
}

}  // namespace
}  // namespace censys::fingerprint
