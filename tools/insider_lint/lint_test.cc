// Tests for the insider_check v2 rules: every rule must fire on its
// planted fixture (an auditor that never fails is untestable), must stay
// quiet on idiomatic clean code, and the real tree must lint clean. Also
// covers the rule registry, suppressions (used, unused, and filtered),
// fingerprint stability, and the SARIF export's structure.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lint.h"
#include "sarif.h"

namespace insider::lint {
namespace {

namespace fs = std::filesystem;

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::vector<std::string> RulesOf(const std::vector<Finding>& findings) {
  std::vector<std::string> rules;
  for (const Finding& f : findings) rules.push_back(f.rule);
  return rules;
}

bool HasRule(const std::vector<Finding>& findings, const std::string& rule) {
  return std::any_of(findings.begin(), findings.end(),
                     [&](const Finding& f) { return f.rule == rule; });
}

std::size_t CountRule(const std::vector<Finding>& findings,
                      const std::string& rule) {
  return static_cast<std::size_t>(
      std::count_if(findings.begin(), findings.end(),
                    [&](const Finding& f) { return f.rule == rule; }));
}

fs::path Testdata() { return fs::path(INSIDER_LINT_TESTDATA); }

// ---------------------------------------------------------------------------
// The rule registry.
// ---------------------------------------------------------------------------

TEST(InsiderLintTest, RegistryListsEveryRuleOnce) {
  const auto& rules = AllRules();
  EXPECT_EQ(rules.size(), 13u);
  std::set<std::string> ids;
  for (const RuleInfo& r : rules) {
    EXPECT_FALSE(r.summary.empty()) << r.id;
    EXPECT_TRUE(ids.insert(r.id).second) << "duplicate rule id " << r.id;
    EXPECT_TRUE(IsKnownRule(r.id));
  }
  EXPECT_TRUE(ids.count("layer-dag"));
  EXPECT_TRUE(ids.count("discarded-status"));
  EXPECT_TRUE(ids.count("simtime-cast"));
  EXPECT_TRUE(ids.count("unused-suppression"));
  EXPECT_FALSE(IsKnownRule("no-such-rule"));
}

TEST(InsiderLintTest, LayerTableIsADagRootedAtCommon) {
  const auto& deps = LayerAllowedDeps();
  EXPECT_TRUE(deps.at("common").empty());
  EXPECT_TRUE(deps.at("host").count("ftl"));
  EXPECT_FALSE(deps.at("ftl").count("host"));
  EXPECT_FALSE(deps.at("nand").count("ftl"));
  // Every named dependency must itself be a known module.
  for (const auto& [module, allowed] : deps) {
    for (const std::string& dep : allowed) {
      EXPECT_TRUE(deps.count(dep)) << module << " -> " << dep;
      EXPECT_NE(dep, module) << "self-edges are implicit";
    }
  }
}

// ---------------------------------------------------------------------------
// v1 rules, ported onto the token engine.
// ---------------------------------------------------------------------------

TEST(InsiderLintTest, FlagsWallClockFixture) {
  auto findings = LintSource("testdata/bad_wallclock.cc",
                             ReadFile(Testdata() / "bad_wallclock.cc"));
  EXPECT_TRUE(HasRule(findings, "wall-clock")) << findings.size();
  // system_clock twice, time(), gettimeofday().
  EXPECT_GE(findings.size(), 4u);
}

TEST(InsiderLintTest, FlagsUnseededRngFixture) {
  auto findings = LintSource("testdata/bad_rng.cc",
                             ReadFile(Testdata() / "bad_rng.cc"));
  EXPECT_TRUE(HasRule(findings, "unseeded-rng"));
  EXPECT_GE(findings.size(), 3u);  // random_device, srand, rand
}

TEST(InsiderLintTest, FlagsAssertOnStatusFixture) {
  auto findings = LintSource("testdata/bad_assert.cc",
                             ReadFile(Testdata() / "bad_assert.cc"));
  EXPECT_TRUE(HasRule(findings, "assert-on-status"));
}

TEST(InsiderLintTest, FlagsNakedTimestampAndMissingPragmaFixture) {
  auto findings = LintSource("testdata/bad_timestamp.h",
                             ReadFile(Testdata() / "bad_timestamp.h"));
  EXPECT_TRUE(HasRule(findings, "naked-timestamp"));
  EXPECT_TRUE(HasRule(findings, "pragma-once"));
  // written_at, expiry_deadline, now, release_horizon.
  EXPECT_EQ(CountRule(findings, "naked-timestamp"), 4u);
}

TEST(InsiderLintTest, FlagsIncludeCycleFixture) {
  std::vector<std::pair<std::string, std::string>> headers = {
      {"cycle/cycle_a.h", ReadFile(Testdata() / "src/cycle/cycle_a.h")},
      {"cycle/cycle_b.h", ReadFile(Testdata() / "src/cycle/cycle_b.h")},
  };
  auto findings = CheckIncludeCycles(headers);
  ASSERT_TRUE(HasRule(findings, "include-cycle"));
  EXPECT_NE(findings.front().message.find("->"), std::string::npos);
}

TEST(InsiderLintTest, FlagsRawOutputFixture) {
  auto findings = LintSource("testdata/src/bad_output.cc",
                             ReadFile(Testdata() / "src" / "bad_output.cc"));
  for (const Finding& f : findings) {
    EXPECT_EQ(f.rule, "raw-output") << Format(f);
  }
  // cout, cerr, clog, printf, fprintf, puts, fputs, fputc, putchar — but
  // NOT the snprintf.
  EXPECT_EQ(findings.size(), 9u);
}

TEST(InsiderLintTest, RawOutputRuleScopesToSimulatorCode) {
  const std::string printing = "std::printf(\"hello\\n\");\n";
  EXPECT_TRUE(HasRule(LintSource("src/ftl/page_ftl.cc", printing),
                      "raw-output"));
  // The logging substrate and non-src code (CLIs, benches, tests) may print.
  EXPECT_TRUE(LintSource("src/common/log.cc", printing).empty());
  EXPECT_TRUE(LintSource("tools/trace_dump/main.cc", printing).empty());
  EXPECT_TRUE(LintSource("bench/mqueue_throughput.cc", printing).empty());
  // String formatting stays allowed everywhere.
  EXPECT_TRUE(
      LintSource("src/ftl/page_ftl.cc", "std::snprintf(buf, n, \"%d\", v);\n")
          .empty());
}

TEST(InsiderLintTest, FlagsRawThreadFixture) {
  auto findings = LintSource("testdata/bad_thread.cc",
                             ReadFile(Testdata() / "bad_thread.cc"));
  EXPECT_TRUE(HasRule(findings, "raw-thread")) << findings.size();
  EXPECT_GE(findings.size(), 4u);
}

TEST(InsiderLintTest, RawThreadRuleExemptsOnlyParallelForAndLog) {
  const std::string threaded =
      "std::mutex mu;\nstd::thread t;\nstd::atomic<int> n{0};\n";
  EXPECT_TRUE(HasRule(LintSource("src/ftl/page_ftl.cc", threaded),
                      "raw-thread"));
  EXPECT_TRUE(HasRule(LintSource("tests/some_test.cc", threaded),
                      "raw-thread"));
  // io::ParallelFor and the log-level atomic are the sanctioned homes of
  // thread primitives; the rest of io/ and common/ are not.
  EXPECT_FALSE(HasRule(LintSource("src/io/parallel_for.cc", threaded),
                       "raw-thread"));
  EXPECT_FALSE(HasRule(LintSource("src/io/parallel_for.h", threaded),
                       "raw-thread"));
  EXPECT_TRUE(HasRule(LintSource("src/io/io_engine.cc", threaded),
                      "raw-thread"));
  EXPECT_TRUE(HasRule(LintSource("src/common/arena.h", threaded),
                      "raw-thread"));
  EXPECT_FALSE(
      HasRule(LintSource("src/common/log.cc",
                         "std::atomic<LogLevel> g_level;\n"),
              "raw-thread"));
  // Prose about std::thread does not trip the rule.
  EXPECT_FALSE(HasRule(
      LintSource("src/nand/flash_array.h", "// no std::thread here\n"),
      "raw-thread"));
}

// ---------------------------------------------------------------------------
// journal-hook v2: brace-aware pairing.
// ---------------------------------------------------------------------------

TEST(InsiderLintTest, FlagsJournalHookFixtureScopeAware) {
  auto findings = LintSource("testdata/bad_journal_hook.cc",
                             ReadFile(Testdata() / "bad_journal_hook.cc"));
  // TrimPageBad (no scope), TrimPageStillBad (scope in the neighbouring
  // function — v1's ±3-line window wrongly accepted this), ScopeDiesEarly
  // (scope in a nested block that closes before the audit). TrimPageGood
  // pairs correctly and must NOT fire.
  EXPECT_EQ(CountRule(findings, "journal-hook"), 3u) << findings.size();
  for (const Finding& f : findings) {
    EXPECT_NE(f.line, 45u) << "TrimPageGood is paired: " << Format(f);
  }
}

TEST(InsiderLintTest, JournalHookRuleAcceptsThePairedPrologue) {
  // The idiomatic entry-point prologue: audit hook and journal batching
  // scope opened together. Declarations and the class definition are not
  // instantiations and never trip the rule.
  const std::string paired =
      "void PageFtl::TrimPage(Lba lba, SimTime now) {\n"
      "  MutationAudit audit_scope(*this, \"TrimPage\");\n"
      "  JournalBatchScope journal_scope(*this, now);\n"
      "}\n";
  EXPECT_FALSE(
      HasRule(LintSource("src/ftl/page_ftl.cc", paired), "journal-hook"));
  const std::string declarations =
      "#pragma once\n"
      "class MutationAudit {\n"
      "  MutationAudit(const PageFtl& ftl, const char* op);\n"
      "  ~MutationAudit();\n"
      "  MutationAudit(const MutationAudit&) = delete;\n"
      "};\n";
  EXPECT_TRUE(LintSource("src/ftl/page_ftl.h", declarations).empty());
}

TEST(InsiderLintTest, JournalHookAcceptsScopeInOuterBlock) {
  // A scope opened in an ANCESTOR block stays alive at the audit point.
  const std::string outer =
      "void PageFtl::WriteBatch(SimTime now) {\n"
      "  JournalBatchScope journal_scope(*this, now);\n"
      "  if (dirty_) {\n"
      "    MutationAudit audit_scope(*this, \"WriteBatch\");\n"
      "  }\n"
      "}\n";
  EXPECT_FALSE(
      HasRule(LintSource("src/ftl/page_ftl.cc", outer), "journal-hook"));
}

// ---------------------------------------------------------------------------
// layer-dag.
// ---------------------------------------------------------------------------

TEST(InsiderLintTest, FlagsLayerDagFixture) {
  auto findings =
      LintSource("testdata/src/ftl/bad_layer.cc",
                 ReadFile(Testdata() / "src" / "ftl" / "bad_layer.cc"));
  // host/ssd.h and workload/apps.h are above ftl; nand/flash_array.h and
  // the module's own ftl/ftl_types.h are fine.
  EXPECT_EQ(CountRule(findings, "layer-dag"), 2u)
      << (findings.empty() ? "none" : Format(findings.front()));
}

TEST(InsiderLintTest, LayerDagAllowsSanctionedAndSelfIncludes) {
  EXPECT_TRUE(LintSource("src/ftl/page_ftl.cc",
                         "#include \"ftl/page_ftl.h\"\n"
                         "#include \"nand/flash_array.h\"\n"
                         "#include \"common/time.h\"\n")
                  .empty());
  // Angled system includes and non-module quoted includes never match.
  EXPECT_TRUE(LintSource("src/ftl/page_ftl.cc",
                         "#include <vector>\n#include \"page_ftl.h\"\n")
                  .empty());
  // Files outside src/ are not in any module.
  EXPECT_TRUE(LintSource("tests/ftl_test.cc",
                         "#include \"host/ssd.h\"\n")
                  .empty());
}

TEST(InsiderLintTest, LayerDagFlagsUpwardInclude) {
  auto findings = LintSource("src/nand/flash_array.cc",
                             "#include \"ftl/page_ftl.h\"\n");
  ASSERT_EQ(CountRule(findings, "layer-dag"), 1u);
  EXPECT_NE(findings.front().message.find("'nand'"), std::string::npos)
      << Format(findings.front());
}

// ---------------------------------------------------------------------------
// discarded-status.
// ---------------------------------------------------------------------------

TEST(InsiderLintTest, FlagsDiscardedStatusFixture) {
  auto findings =
      LintSource("testdata/bad_discarded_status.cc",
                 ReadFile(Testdata() / "bad_discarded_status.cc"));
  // Submit, Flush, RebuildFromNand, TryPush. PlainCount (plain int),
  // (void)Submit, and the consumed Submit must not fire.
  EXPECT_EQ(CountRule(findings, "discarded-status"), 4u);
  std::vector<std::string> rules = RulesOf(findings);
  EXPECT_EQ(findings.size(), 4u) << "only discarded-status expected";
}

TEST(InsiderLintTest, DiscardedStatusSanctionsVoidCastAndConsumption) {
  const std::string decl = "DeviceStatus Submit(int lba);\n";
  EXPECT_TRUE(HasRule(LintSource("src/io/io_engine.cc",
                                 decl + "void F() { Submit(1); }\n"),
                      "discarded-status"));
  EXPECT_FALSE(HasRule(LintSource("src/io/io_engine.cc",
                                  decl + "void F() { (void)Submit(1); }\n"),
                       "discarded-status"));
  EXPECT_FALSE(HasRule(
      LintSource("src/io/io_engine.cc",
                 decl + "void F() { DeviceStatus s = Submit(1); (void)s; }\n"),
      "discarded-status"));
  // Unknown callees are not status-returning as far as the index knows.
  EXPECT_FALSE(HasRule(LintSource("src/io/io_engine.cc",
                                  "void F() { Mystery(1); }\n"),
                       "discarded-status"));
}

// ---------------------------------------------------------------------------
// simtime-cast.
// ---------------------------------------------------------------------------

TEST(InsiderLintTest, FlagsSimtimeCastFixture) {
  auto findings =
      LintSource("testdata/bad_simtime_cast.cc",
                 ReadFile(Testdata() / "bad_simtime_cast.cc"));
  // raw -> SimTime in FromCount, SimTime -> long long in ToRaw. The
  // double render in RenderSeconds must not fire.
  EXPECT_EQ(CountRule(findings, "simtime-cast"), 2u);
}

TEST(InsiderLintTest, SimtimeCastExemptsTheSanctionedHomes) {
  const std::string cast =
      "SimTime F(unsigned n) { return static_cast<SimTime>(n); }\n";
  EXPECT_TRUE(HasRule(LintSource("src/ftl/page_ftl.cc", cast),
                      "simtime-cast"));
  EXPECT_TRUE(HasRule(LintSource("tests/ftl_test.cc", cast),
                      "simtime-cast"));
  // The time substrate defines the helpers; obs serializes for dashboards.
  EXPECT_FALSE(HasRule(LintSource("src/common/time.h", cast),
                       "simtime-cast"));
  EXPECT_FALSE(HasRule(LintSource("src/obs/trace_log.cc", cast),
                       "simtime-cast"));
  // Casting an untracked integer to another integer type is fine.
  EXPECT_FALSE(HasRule(
      LintSource("src/ftl/page_ftl.cc",
                 "int F(unsigned n) { return static_cast<int>(n); }\n"),
      "simtime-cast"));
}

// ---------------------------------------------------------------------------
// Suppressions.
// ---------------------------------------------------------------------------

TEST(InsiderLintTest, SuppressionCoversItsOwnLine) {
  auto findings = LintSource(
      "src/ftl/x.cc",
      "std::uint64_t t = time(nullptr);  "
      "// insider-lint: allow(wall-clock): boot stamp for the report\n");
  EXPECT_TRUE(findings.empty())
      << Format(findings.front());
}

TEST(InsiderLintTest, LineOpeningSuppressionCoversTheNextLine) {
  auto findings = LintSource(
      "src/ftl/x.cc",
      "// insider-lint: allow(wall-clock): boot stamp for the report\n"
      "std::uint64_t t = time(nullptr);\n");
  EXPECT_TRUE(findings.empty()) << Format(findings.front());
}

TEST(InsiderLintTest, SuppressionOnlySilencesItsOwnRule) {
  auto findings = LintSource(
      "src/ftl/x.cc",
      "// insider-lint: allow(unseeded-rng): wrong rule\n"
      "std::uint64_t t = time(nullptr);\n");
  EXPECT_TRUE(HasRule(findings, "wall-clock"));
  EXPECT_TRUE(HasRule(findings, "unused-suppression"));
}

TEST(InsiderLintTest, UnusedSuppressionIsAFinding) {
  auto findings =
      LintSource("testdata/suppression/unused_suppression.cc",
                 ReadFile(Testdata() / "suppression" /
                          "unused_suppression.cc"));
  ASSERT_EQ(CountRule(findings, "unused-suppression"), 1u);
  EXPECT_NE(findings.front().message.find("wall-clock"), std::string::npos);
}

TEST(InsiderLintTest, UnusedSuppressionNotJudgedWhenItsRuleIsFiltered) {
  // Under --rule=unseeded-rng the wall-clock rule never ran, so the
  // engine cannot call its suppression stale.
  Options only_rng;
  only_rng.rules = {"unseeded-rng", "unused-suppression"};
  auto findings = LintSource(
      "src/ftl/x.cc",
      "// insider-lint: allow(wall-clock): judged only when rule runs\n"
      "std::uint64_t t = time(nullptr);\n",
      only_rng);
  EXPECT_TRUE(findings.empty()) << Format(findings.front());
}

TEST(InsiderLintTest, ProseMentioningTheSyntaxIsNotASuppression) {
  // Documentation that quotes `insider-lint: allow(rule)` mid-sentence —
  // like the engine's own header comment — must not register (and thus
  // must not later report itself unused).
  auto findings = LintSource(
      "src/ftl/x.cc",
      "// Suppress with an `insider-lint: allow(wall-clock)` comment.\n"
      "int x = 1;\n");
  EXPECT_TRUE(findings.empty()) << Format(findings.front());
}

// ---------------------------------------------------------------------------
// Rule filtering.
// ---------------------------------------------------------------------------

TEST(InsiderLintTest, RuleFilterRunsOnlySelectedRules) {
  const std::string both =
      "std::uint64_t t = time(nullptr);\nint r = rand();\n";
  Options only_clock;
  only_clock.rules = {"wall-clock"};
  auto findings = LintSource("src/ftl/x.cc", both, only_clock);
  EXPECT_TRUE(HasRule(findings, "wall-clock"));
  EXPECT_FALSE(HasRule(findings, "unseeded-rng"));
}

// ---------------------------------------------------------------------------
// Engine-level behaviors shared by all rules.
// ---------------------------------------------------------------------------

TEST(InsiderLintTest, LintTreeOnTestdataFiresEveryFileRule) {
  auto findings = LintTree({Testdata()});
  for (const RuleInfo& r : AllRules()) {
    EXPECT_TRUE(HasRule(findings, r.id)) << "no fixture fires " << r.id;
  }
}

TEST(InsiderLintTest, CommentsAndStringsDoNotTrip) {
  const std::string clean = R"cpp(
// Comparing against time() and rand() would break determinism.
/* std::chrono::system_clock is banned; gettimeofday too. */
#pragma once
const char* kDoc = "call time(nullptr) and rand() at your peril";
SimTime runtime(SimTime now);
)cpp";
  auto findings = LintSource("src/example.h", clean);
  EXPECT_TRUE(findings.empty()) << Format(findings.front());
}

TEST(InsiderLintTest, DigitSeparatorsDoNotDesyncTheTokenizer) {
  // 0xBE5C'0000 and 1'000'000 contain apostrophes that are digit
  // separators, not char-literal starts. A lexer that opens a char
  // literal there swallows real code until the next apostrophe — here the
  // one in "device's" — and then exposes comment text like "time (" to
  // the wall-clock rule.
  const std::string code =
      "Rng rng(0xBE5C'0000 + depth);\n"
      "std::uint64_t stamp = q * 1'000'000ull;\n"
      "// the device's elapsed time (virtual) stays on the SimTime clock\n";
  auto findings = LintSource("src/example.cc", code);
  EXPECT_TRUE(findings.empty()) << Format(findings.front());
}

TEST(InsiderLintTest, SimTimeIdentifiersAreNotWallClockCalls) {
  auto findings = LintSource(
      "src/example.cc",
      "SimTime t = SimTime(5); RetentionTime(t); my_time(t);\n");
  EXPECT_TRUE(findings.empty()) << Format(findings.front());
}

TEST(InsiderLintTest, TimeAndRngSubstrateIsExempt) {
  const std::string substrate =
      "#pragma once\nstd::uint64_t wall_time = time(nullptr);\n"
      "int r = rand();\n";
  EXPECT_FALSE(LintSource("src/ftl/clock.h", substrate).empty());
  EXPECT_TRUE(LintSource("src/common/time.h", substrate).empty());
  EXPECT_TRUE(LintSource("src/common/rng.h", substrate).empty());
}

TEST(InsiderLintTest, PlainAssertIsAllowed) {
  auto findings =
      LintSource("src/example.cc", "assert(index < pages.size());\n");
  EXPECT_TRUE(findings.empty()) << Format(findings.front());
}

TEST(InsiderLintTest, SimTimeTimestampsAreAllowed) {
  auto findings = LintSource(
      "src/example.h",
      "#pragma once\nSimTime written_at = 0;\nstd::uint64_t seq = 0;\n");
  EXPECT_TRUE(findings.empty()) << Format(findings.front());
}

TEST(InsiderLintTest, FormatCarriesFileLineColRule) {
  Finding f{"src/a.cc", 12, 7, "wall-clock", "boom", ""};
  EXPECT_EQ(Format(f), "src/a.cc:12:7: [wall-clock] boom");
  Finding no_col{"src/a.cc", 12, 0, "wall-clock", "boom", ""};
  EXPECT_EQ(Format(no_col), "src/a.cc:12: [wall-clock] boom");
  Finding whole_file{"src/b.h", 0, 0, "pragma-once", "missing", ""};
  EXPECT_EQ(Format(whole_file), "src/b.h: [pragma-once] missing");
}

// ---------------------------------------------------------------------------
// Fingerprints.
// ---------------------------------------------------------------------------

TEST(InsiderLintTest, FingerprintsAreStableAcrossLineRenumbering) {
  const std::string before = "std::uint64_t t = time(nullptr);\n";
  const std::string after =  // same offending line, pushed down two lines
      "// prologue comment\n\nstd::uint64_t t = time(nullptr);\n";
  auto a = LintSource("src/ftl/x.cc", before);
  auto b = LintSource("src/ftl/x.cc", after);
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(a.front().fingerprint.size(), 16u);
  EXPECT_EQ(a.front().fingerprint, b.front().fingerprint);
}

TEST(InsiderLintTest, IdenticalAnchorsGetDistinctFingerprints) {
  auto findings = LintSource(
      "src/ftl/x.cc",
      "std::uint64_t a = time(nullptr);\nstd::uint64_t a = time(nullptr);\n");
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_NE(findings[0].fingerprint, findings[1].fingerprint);
}

// ---------------------------------------------------------------------------
// SARIF export.
// ---------------------------------------------------------------------------

TEST(InsiderLintTest, SarifDocumentCarriesRulesResultsAndFingerprints) {
  auto findings = LintSource("testdata/bad_rng.cc",
                             ReadFile(Testdata() / "bad_rng.cc"));
  ASSERT_FALSE(findings.empty());
  const std::string sarif = ToSarif(findings);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"name\": \"insider_check\""), std::string::npos);
  // Every registered rule appears as a reportingDescriptor.
  for (const RuleInfo& r : AllRules()) {
    EXPECT_NE(sarif.find("\"id\": \"" + r.id + "\""), std::string::npos)
        << r.id;
  }
  // Every finding appears as a result with its fingerprint.
  for (const Finding& f : findings) {
    EXPECT_NE(sarif.find(f.fingerprint), std::string::npos) << Format(f);
  }
  EXPECT_NE(sarif.find("\"ruleId\": \"unseeded-rng\""), std::string::npos);
  EXPECT_NE(sarif.find("\"insiderLint/v1\""), std::string::npos);
  EXPECT_NE(sarif.find("testdata/bad_rng.cc"), std::string::npos);
}

TEST(InsiderLintTest, SarifEmptyRunIsStillAValidDocument) {
  const std::string sarif = ToSarif({});
  EXPECT_NE(sarif.find("\"results\": ["), std::string::npos);
  EXPECT_EQ(sarif.find("\"ruleId\""), std::string::npos);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
}

TEST(InsiderLintTest, SarifEscapesMessageText) {
  Finding f{"src/a.cc", 1, 1, "wall-clock", "say \"hi\"\\now", ""};
  const std::string sarif = ToSarif({f});
  EXPECT_NE(sarif.find("say \\\"hi\\\"\\\\now"), std::string::npos) << sarif;
}

// The gate that matters: the real tree lints clean — including this tool
// linting itself — with zero unused suppressions. This is the same scan
// CI's insider_lint job runs via the CLI binary.
TEST(InsiderLintTest, RepositoryTreeIsClean) {
  fs::path root(INSIDER_LINT_SOURCE_ROOT);
  auto findings =
      LintTree({root / "src", root / "tests", root / "bench",
                root / "examples", root / "tools"});
  for (const Finding& f : findings) ADD_FAILURE() << Format(f);
}

}  // namespace
}  // namespace insider::lint
