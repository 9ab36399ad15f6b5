// insider_check v2 — project-specific semantic lint for the SSD-Insider tree.
//
// The simulator's results are only reproducible if every component runs on
// the deterministic substrate: virtual SimTime microseconds, the seeded
// SplitMix64 Rng, one totally-ordered event stream, and the journal/audit
// discipline around every mapping mutation. Generic linters cannot know
// these rules. v1 enforced them with regexes over a character-level scrub;
// v2 lexes each file into a token stream (tokenizer.h), builds a per-TU
// structural index (index.h — functions with return types, call statements,
// include edges, brace-matched bodies), and matches rules against that.
//
// Rules (ids as printed and as accepted by --rule=; see AllRules()):
//
//   wall-clock         std::chrono::system_clock / time() / gettimeofday()
//                      outside src/common/time.* — all simulation time must
//                      flow through SimTime.
//   unseeded-rng       rand() / srand() / std::random_device outside
//                      src/common/rng.* — randomness must come from the
//                      seeded Rng so runs replay bit-for-bit.
//   assert-on-status   assert() whose condition inspects a status value.
//                      Media errors are modeled outcomes — return them.
//   naked-timestamp    uint64_t declarations whose name reads as a point in
//                      time; timestamps must be SimTime.
//   raw-output         std::cout / stdio output in simulator code (src/)
//                      outside src/common/log.* — use INSIDER_LOG.
//   raw-thread         std::thread / mutex / atomic outside the fleet
//                      parallelism helper (src/io/parallel_for.*, i.e.
//                      io::ParallelFor) and the log substrate's level
//                      atomic.
//   pragma-once        every header must carry #pragma once.
//   include-cycle      quoted project includes must form a DAG.
//   journal-hook       a MutationAudit instantiation must have a
//                      JournalBatchScope instantiated in an enclosing brace
//                      scope of the same function body (v2: brace-aware —
//                      a scope in a neighbouring function no longer
//                      satisfies the rule the way v1's ±3-line window did).
//   layer-dag          includes between src/ modules must follow the
//                      architecture DAG in DESIGN.md §14 (the table in
//                      LayerAllowedDeps() is the machine-readable copy).
//   discarded-status   an expression-statement call to a function whose
//                      indexed return type is DeviceStatus / NandStatus /
//                      FtlStatus / RebuildReport (or bool for Try* APIs)
//                      silently drops the status. `(void)Call();` is the
//                      sanctioned explicit discard and does not match.
//   simtime-cast       static_cast between SimTime and raw integer types
//                      outside src/common/time.* and src/obs/ — use the
//                      sanctioned helpers in src/common/time.h
//                      (CostOf / TruncateMicros / RawMicros).
//   unused-suppression an `// insider-lint: allow(rule)` comment that
//                      suppressed nothing — stale suppressions rot.
//
// Suppressions: `// insider-lint: allow(rule)` (comma-list accepted;
// `allow(rule): justification` is the house style — see DESIGN.md §14)
// suppresses that rule on the comment's own line; a comment that is alone
// on its line also covers the next line. Unused suppressions are findings.
//
// Every finding carries a stable fingerprint (FNV-1a over rule, path, and
// the whitespace-squeezed scrubbed line) so SARIF consumers can track
// findings across unrelated edits.
#pragma once

#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace insider::lint {

struct Finding {
  std::string file;      ///< path as given to the linter
  std::size_t line = 0;  ///< 1-based; 0 for whole-file findings
  std::size_t col = 0;   ///< 1-based; 0 when unknown
  std::string rule;      ///< rule id, e.g. "wall-clock"
  std::string message;
  std::string fingerprint;  ///< stable hex id for SARIF baselining
};

struct RuleInfo {
  std::string id;
  std::string summary;  ///< one line, shown by --list-rules and in SARIF
};

/// The registry: every rule the engine can emit, in display order.
const std::vector<RuleInfo>& AllRules();

/// True if `id` names a registered rule.
bool IsKnownRule(const std::string& id);

/// The architecture-layering table enforced by `layer-dag`: module name ->
/// modules it may include. Mirrors the table in DESIGN.md §14; a module
/// may always include itself.
const std::map<std::string, std::set<std::string>>& LayerAllowedDeps();

struct Options {
  /// Rule ids to run; empty means all. Unknown ids are the caller's error
  /// (main.cc rejects them before building Options).
  std::set<std::string> rules;
};

/// "path:line:col: [rule] message" (col omitted when 0, line when 0).
std::string Format(const Finding& finding);

/// Lint one file's content in isolation. Return-type knowledge for
/// `discarded-status` is limited to functions declared in this same file
/// (self-contained fixtures fire; LintTree supplies the cross-file map).
std::vector<Finding> LintSource(const std::string& path_label,
                                const std::string& content,
                                const Options& options = {});

/// Cross-file pass: detect a cycle among quoted project includes.
/// `headers` maps include-spelling (e.g. "ftl/page_ftl.h") to file content.
std::vector<Finding> CheckIncludeCycles(
    const std::vector<std::pair<std::string, std::string>>& headers);

/// Walk the given roots (skipping any path containing "testdata"), index
/// every C++ source/header, then evaluate all rules with the cross-file
/// return-type map and the include graph over headers found under "src".
std::vector<Finding> LintTree(const std::vector<std::filesystem::path>& roots,
                              const Options& options = {});

}  // namespace insider::lint
