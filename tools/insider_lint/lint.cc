#include "lint.h"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <fstream>
#include <functional>
#include <sstream>
#include <utility>

#include "index.h"
#include "tokenizer.h"

namespace insider::lint {
namespace {

std::string Lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return s;
}

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

bool IsPunct(const Token& t, const char* text) {
  return t.kind == TokKind::kPunct && t.text == text;
}
bool IsIdent(const Token& t, const char* text) {
  return t.kind == TokKind::kIdentifier && t.text == text;
}

/// The deterministic substrate itself is the one place allowed to name the
/// banned primitives (it wraps or documents them).
bool TimeRngExempt(const std::string& path) {
  return Contains(path, "src/common/time") || Contains(path, "src/common/rng");
}

/// raw-output covers simulator code only: anything under src/ except the
/// logging substrate. CLIs (tools/, bench/, examples/) print by design.
bool RawOutputApplies(const std::string& path) {
  return Contains(path, "src/") && !Contains(path, "src/common/log");
}

/// Thread primitives live only in the fleet-parallel helper
/// (io::ParallelFor) and the logging substrate's level atomic.
bool RawThreadExempt(const std::string& path) {
  return Contains(path, "src/io/parallel_for.") ||
         Contains(path, "src/common/log");
}

/// The sanctioned cast helpers live in src/common/time.*; src/common/rng
/// hosts the substrate's own SimTime bridge (Rng::BelowTime); src/obs
/// renders SimTime for humans and is allowed its own conversions.
bool SimtimeCastExempt(const std::string& path) {
  return Contains(path, "src/common/time") ||
         Contains(path, "src/common/rng") || Contains(path, "src/obs");
}

bool IsHeaderPath(const std::string& path) {
  return path.size() > 2 &&
         (path.rfind(".h") == path.size() - 2 ||
          (path.size() > 4 && path.rfind(".hpp") == path.size() - 4));
}

/// A declared uint64_t whose name reads as a point in time.
bool NameLooksLikeTimestamp(const std::string& raw_name) {
  std::string n = Lower(raw_name);
  while (!n.empty() && n.back() == '_') n.pop_back();  // member suffix
  if (n == "now" || n == "when") return true;
  if (n.size() >= 3 && n.rfind("_at") == n.size() - 3) return true;
  return Contains(n, "time") || Contains(n, "deadline") ||
         Contains(n, "horizon") || Contains(n, "timestamp");
}

std::vector<std::string> SplitLines(const std::string& content) {
  std::vector<std::string> lines;
  std::string cur;
  for (char c : content) {
    if (c == '\n') {
      lines.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) lines.push_back(cur);
  return lines;
}

std::string Squeeze(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (!std::isspace(static_cast<unsigned char>(c))) out.push_back(c);
  }
  return out;
}

std::uint64_t Fnv1a64(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string Hex64(std::uint64_t v) {
  static const char* kDigits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kDigits[v & 0xF];
    v >>= 4;
  }
  return out;
}

/// Stable fingerprints: FNV-1a over rule | path | the whitespace-squeezed
/// scrubbed source line (or the message for whole-file findings) | an
/// ordinal among identical anchors, so a finding survives unrelated edits
/// that merely renumber lines. Call on the final, sorted finding list.
void AssignFingerprints(std::vector<Finding>& findings,
                        const std::vector<std::string>* scrubbed_lines) {
  std::map<std::string, int> ordinals;
  for (Finding& f : findings) {
    std::string anchor;
    if (f.line != 0 && scrubbed_lines != nullptr &&
        f.line <= scrubbed_lines->size()) {
      anchor = Squeeze((*scrubbed_lines)[f.line - 1]);
    } else {
      anchor = f.message;
    }
    const std::string key = f.rule + "|" + f.file + "|" + anchor;
    const int ordinal = ordinals[key]++;
    f.fingerprint = Hex64(Fnv1a64(key + "|" + std::to_string(ordinal)));
  }
}

// ---------------------------------------------------------------------------
// Suppressions: `// insider-lint: allow(rule)` or `allow(r1, r2): reason`.
// A suppression covers its comment's own line(s); a comment that opens its
// line also covers the line after the comment ends.
// ---------------------------------------------------------------------------

struct Suppression {
  std::string rule;
  std::size_t line = 0;  ///< comment start line (reported for unused)
  std::size_t col = 0;
  std::size_t first_covered = 0;  ///< comment start line
  std::size_t last_covered = 0;   ///< comment end line, +1 if line-opening
  bool used = false;
};

std::vector<Suppression> FindSuppressions(const std::vector<Token>& tokens) {
  // A comment "opens its line" when no token starts earlier on that line.
  std::set<std::size_t> seen_lines;
  std::vector<Suppression> sups;
  for (const Token& t : tokens) {
    const bool opens_line = seen_lines.insert(t.line).second;
    if (!IsComment(t)) continue;
    // The directive must open the comment (after the marker): a comment
    // that merely *mentions* the syntax mid-sentence — like this engine's
    // own documentation — is not a suppression.
    std::size_t pos = 0;
    while (pos < t.text.size() &&
           (t.text[pos] == '/' || t.text[pos] == '*' ||
            std::isspace(static_cast<unsigned char>(t.text[pos])))) {
      ++pos;
    }
    if (t.text.compare(pos, 13, "insider-lint:") != 0) continue;
    pos += 13;
    std::size_t allow = t.text.find("allow", pos);
    if (allow == std::string::npos) continue;
    std::size_t open = t.text.find('(', allow);
    std::size_t close =
        open == std::string::npos ? std::string::npos : t.text.find(')', open);
    if (close == std::string::npos) continue;
    std::string list = t.text.substr(open + 1, close - open - 1);
    std::size_t end_line =
        t.line + static_cast<std::size_t>(
                     std::count(t.text.begin(), t.text.end(), '\n'));
    std::stringstream ss(list);
    std::string rule;
    while (std::getline(ss, rule, ',')) {
      while (!rule.empty() &&
             std::isspace(static_cast<unsigned char>(rule.front()))) {
        rule.erase(rule.begin());
      }
      while (!rule.empty() &&
             std::isspace(static_cast<unsigned char>(rule.back()))) {
        rule.pop_back();
      }
      if (rule.empty()) continue;
      Suppression s;
      s.rule = rule;
      s.line = t.line;
      s.col = t.col;
      s.first_covered = t.line;
      s.last_covered = opens_line ? end_line + 1 : end_line;
      sups.push_back(s);
    }
  }
  return sups;
}

// ---------------------------------------------------------------------------
// Rule implementations. Each appends raw candidates; suppression filtering,
// sorting, and fingerprinting happen in EvaluateFile.
// ---------------------------------------------------------------------------

struct FileCtx {
  const std::string& path;
  const TuIndex& index;
  /// Cross-file (LintTree) or TU-local (LintSource) map: function name ->
  /// status type it returns ("DeviceStatus", ..., or "bool" for Try*).
  const std::map<std::string, std::string>& status_of;
};

void Emit(std::vector<Finding>& out, const FileCtx& ctx, const Token& at,
          const char* rule, std::string message) {
  out.push_back({ctx.path, at.line, at.col, rule, std::move(message), ""});
}

/// tokens[i] is an identifier: true when the previous two code tokens are
/// `std ::` (or just `:: member` when qualified deeper — the check is for
/// the immediate `NS :: ident` shape).
bool QualifiedBy(const std::vector<Token>& toks, std::size_t i,
                 const char* ns) {
  std::size_t p = i;
  while (p > 0 && IsComment(toks[--p])) {
  }
  if (p >= toks.size() || !IsPunct(toks[p], "::")) return false;
  while (p > 0 && IsComment(toks[--p])) {
  }
  return p < toks.size() && IsIdent(toks[p], ns);
}

bool NextIsCall(const std::vector<Token>& toks, std::size_t i) {
  std::size_t n = NextCode(toks, i + 1);
  return n < toks.size() && IsPunct(toks[n], "(");
}

void RuleWallClock(const FileCtx& ctx, std::vector<Finding>& out) {
  if (TimeRngExempt(ctx.path)) return;
  const auto& toks = ctx.index.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdentifier) continue;
    const bool clock_type =
        t.text == "system_clock" && QualifiedBy(toks, i, "chrono");
    const bool clock_call = (t.text == "time" || t.text == "gettimeofday") &&
                            NextIsCall(toks, i);
    if (clock_type || clock_call) {
      Emit(out, ctx, t, "wall-clock",
           "wall-clock access outside src/common/time; simulation time must "
           "flow through SimTime");
    }
  }
}

void RuleUnseededRng(const FileCtx& ctx, std::vector<Finding>& out) {
  if (TimeRngExempt(ctx.path)) return;
  const auto& toks = ctx.index.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdentifier) continue;
    const bool device =
        t.text == "random_device" && QualifiedBy(toks, i, "std");
    const bool call =
        (t.text == "rand" || t.text == "srand") && NextIsCall(toks, i);
    if (device || call) {
      Emit(out, ctx, t, "unseeded-rng",
           "unseeded randomness outside src/common/rng; use the seeded "
           "insider::Rng");
    }
  }
}

void RuleAssertOnStatus(const FileCtx& ctx, std::vector<Finding>& out) {
  const auto& toks = ctx.index.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!IsIdent(toks[i], "assert")) continue;
    std::size_t open = NextCode(toks, i + 1);
    if (open >= toks.size() || !IsPunct(toks[open], "(")) continue;
    std::size_t close = MatchingClose(toks, open);
    bool status = false;
    for (std::size_t j = open + 1; j < close && j < toks.size(); ++j) {
      const Token& a = toks[j];
      if (a.kind == TokKind::kIdentifier &&
          (Contains(a.text, "Status") ||
           (a.text.size() >= 6 &&
            a.text.rfind("status") == a.text.size() - 6))) {
        status = true;
        break;
      }
      if (IsIdent(a, "ok") && NextIsCall(toks, j) && j > 0) {
        std::size_t p = j;
        while (p > 0 && IsComment(toks[--p])) {
        }
        if (IsPunct(toks[p], ".") || IsPunct(toks[p], "->")) {
          status = true;
          break;
        }
      }
    }
    if (status) {
      Emit(out, ctx, toks[i], "assert-on-status",
           "assert() on a status value; media errors are modeled outcomes — "
           "return a status instead");
    }
  }
}

void RuleNakedTimestamp(const FileCtx& ctx, std::vector<Finding>& out) {
  if (TimeRngExempt(ctx.path)) return;
  const auto& toks = ctx.index.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!IsIdent(toks[i], "uint64_t")) continue;
    std::size_t j = NextCode(toks, i + 1);
    if (j < toks.size() && IsIdent(toks[j], "const")) j = NextCode(toks, j + 1);
    if (j < toks.size() && IsPunct(toks[j], "&")) j = NextCode(toks, j + 1);
    if (j >= toks.size() || toks[j].kind != TokKind::kIdentifier) continue;
    if (NameLooksLikeTimestamp(toks[j].text)) {
      Emit(out, ctx, toks[j], "naked-timestamp",
           "uint64_t '" + toks[j].text +
               "' reads as a point in time; declare it SimTime");
    }
  }
}

void RuleRawOutput(const FileCtx& ctx, std::vector<Finding>& out) {
  if (!RawOutputApplies(ctx.path)) return;
  static const std::set<std::string> kStdio = {
      "printf", "fprintf", "vprintf", "vfprintf",
      "puts",   "fputs",   "fputc",   "putchar"};
  const auto& toks = ctx.index.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdentifier) continue;
    const bool stream =
        (t.text == "cout" || t.text == "cerr" || t.text == "clog") &&
        QualifiedBy(toks, i, "std");
    const bool stdio = kStdio.count(t.text) != 0 && NextIsCall(toks, i);
    if (stream || stdio) {
      Emit(out, ctx, t, "raw-output",
           "direct console output in simulator code; route diagnostics "
           "through INSIDER_LOG (src/common/log.h)");
    }
  }
}

void RuleRawThread(const FileCtx& ctx, std::vector<Finding>& out) {
  if (RawThreadExempt(ctx.path)) return;
  static const std::set<std::string> kPrimitives = {
      "jthread",      "thread",
      "shared_mutex", "recursive_mutex",
      "timed_mutex",  "mutex",
      "condition_variable_any", "condition_variable"};
  const auto& toks = ctx.index.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdentifier) continue;
    if (!QualifiedBy(toks, i, "std")) continue;
    if (kPrimitives.count(t.text) != 0 || t.text.rfind("atomic", 0) == 0) {
      Emit(out, ctx, t, "raw-thread",
           "raw thread primitive outside src/io/parallel_for.*; simulation "
           "code is single-threaded by design — run independent devices "
           "through io::ParallelFor");
    }
  }
}

void RulePragmaOnce(const FileCtx& ctx, std::vector<Finding>& out) {
  if (!IsHeaderPath(ctx.path)) return;
  const auto& toks = ctx.index.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!IsPunct(toks[i], "#")) continue;
    std::size_t a = NextCode(toks, i + 1);
    if (a >= toks.size() || !IsIdent(toks[a], "pragma")) continue;
    std::size_t b = NextCode(toks, a + 1);
    if (b < toks.size() && IsIdent(toks[b], "once")) return;
  }
  out.push_back({ctx.path, 0, 0, "pragma-once",
                 "header is missing #pragma once", ""});
}

/// An instantiation `TypeName var(` — declarations (`TypeName f();` at class
/// scope reads the same) are told apart well enough for these two RAII
/// types, which are only ever instantiated.
bool IsInstantiation(const std::vector<Token>& toks, std::size_t i) {
  std::size_t name = NextCode(toks, i + 1);
  if (name >= toks.size() || toks[name].kind != TokKind::kIdentifier) {
    return false;
  }
  std::size_t paren = NextCode(toks, name + 1);
  return paren < toks.size() &&
         (IsPunct(toks[paren], "(") || IsPunct(toks[paren], "{"));
}

void RuleJournalHook(const FileCtx& ctx, std::vector<Finding>& out) {
  const auto& toks = ctx.index.tokens;
  for (const FunctionInfo& fn : ctx.index.functions) {
    if (fn.body_end == 0) continue;
    // One pass with a brace stack: record each MutationAudit's chain of
    // enclosing blocks and each JournalBatchScope's innermost block.
    std::vector<std::size_t> stack = {fn.body_begin};
    struct Audit {
      std::size_t token;
      std::vector<std::size_t> blocks;
    };
    std::vector<Audit> audits;
    std::set<std::size_t> scope_blocks;  // blocks holding a JournalBatchScope
    for (std::size_t i = fn.body_begin + 1; i < fn.body_end; ++i) {
      const Token& t = toks[i];
      if (IsComment(t)) continue;
      if (IsPunct(t, "{")) {
        stack.push_back(i);
      } else if (IsPunct(t, "}")) {
        if (stack.size() > 1) stack.pop_back();
      } else if (IsIdent(t, "MutationAudit") && IsInstantiation(toks, i)) {
        audits.push_back({i, stack});
      } else if (IsIdent(t, "JournalBatchScope") && IsInstantiation(toks, i)) {
        scope_blocks.insert(stack.back());
      }
    }
    for (const Audit& a : audits) {
      bool paired = false;
      for (std::size_t b : a.blocks) {
        if (scope_blocks.count(b) != 0) {
          paired = true;
          break;
        }
      }
      if (!paired) {
        Emit(out, ctx, toks[a.token], "journal-hook",
             "audited mutating entry point without a JournalBatchScope in an "
             "enclosing scope; redo records must batch-flush with the op "
             "(src/ftl/mapping_journal.h)");
      }
    }
  }
}

/// Module of a path under src/ ("src/ftl/page_ftl.cc" -> "ftl"), or "".
std::string ModuleOf(const std::string& path) {
  std::size_t pos = path.rfind("src/");
  if (pos == std::string::npos) return "";
  std::size_t begin = pos + 4;
  std::size_t slash = path.find('/', begin);
  if (slash == std::string::npos) return "";
  return path.substr(begin, slash - begin);
}

void RuleLayerDag(const FileCtx& ctx, std::vector<Finding>& out) {
  const std::string mod = ModuleOf(ctx.path);
  const auto& table = LayerAllowedDeps();
  auto it = table.find(mod);
  if (it == table.end()) return;
  for (const IncludeEdge& inc : ctx.index.includes) {
    if (inc.angled) continue;
    std::size_t slash = inc.spelling.find('/');
    if (slash == std::string::npos) continue;
    const std::string dep = inc.spelling.substr(0, slash);
    if (dep == mod || table.count(dep) == 0) continue;
    if (it->second.count(dep) == 0) {
      out.push_back(
          {ctx.path, inc.line, 1, "layer-dag",
           "include of \"" + inc.spelling + "\" violates the layer DAG: "
           "module '" + mod + "' may not depend on '" + dep +
           "' (DESIGN.md §14)",
           ""});
    }
  }
}

void RuleDiscardedStatus(const FileCtx& ctx, std::vector<Finding>& out) {
  for (const CallStatement& call : ctx.index.discard_candidates) {
    auto it = ctx.status_of.find(call.callee);
    if (it == ctx.status_of.end()) continue;
    const std::string& type = it->second;
    const std::string what =
        type == "bool" ? "bool (a Try* API)" : type;
    out.push_back({ctx.path, call.line, call.col, "discarded-status",
                   "call to '" + call.callee + "' discards its " + what +
                       " result; handle it or cast to (void) with a comment",
                   ""});
  }
}

const std::set<std::string>& RawIntTypeTokens() {
  static const std::set<std::string> kTypes = {
      "unsigned", "signed",   "long",     "int",      "short",
      "size_t",   "int8_t",   "int16_t",  "int32_t",  "int64_t",
      "uint8_t",  "uint16_t", "uint32_t", "uint64_t", "intmax_t",
      "uintmax_t", "ptrdiff_t"};
  return kTypes;
}

void RuleSimtimeCast(const FileCtx& ctx, std::vector<Finding>& out) {
  if (SimtimeCastExempt(ctx.path)) return;
  const auto& toks = ctx.index.tokens;

  // Names declared SimTime, per function body (params + locals), so the
  // SimTime->raw direction can recognize `static_cast<uint64_t>(now)`.
  auto collect_simtime_names = [&](std::size_t begin, std::size_t end,
                                   std::set<std::string>& names) {
    for (std::size_t i = begin; i < end && i < toks.size(); ++i) {
      if (!IsIdent(toks[i], "SimTime")) continue;
      std::size_t j = NextCode(toks, i + 1);
      if (j < end && IsPunct(toks[j], "&")) j = NextCode(toks, j + 1);
      if (j < end && toks[j].kind == TokKind::kIdentifier) {
        names.insert(toks[j].text);
      }
    }
  };

  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!IsIdent(toks[i], "static_cast")) continue;
    std::size_t lt = NextCode(toks, i + 1);
    if (lt >= toks.size() || !IsPunct(toks[lt], "<")) continue;
    // The target type of every cast in this tree is short; scan to the
    // first '>' collecting its tokens.
    std::vector<std::string> type_tokens;
    std::size_t gt = NextCode(toks, lt + 1);
    while (gt < toks.size() && !IsPunct(toks[gt], ">") &&
           type_tokens.size() < 8) {
      type_tokens.push_back(toks[gt].text);
      gt = NextCode(toks, gt + 1);
    }
    if (gt >= toks.size() || !IsPunct(toks[gt], ">")) continue;
    std::size_t open = NextCode(toks, gt + 1);
    if (open >= toks.size() || !IsPunct(toks[open], "(")) continue;

    const bool to_simtime =
        !type_tokens.empty() && type_tokens.back() == "SimTime" &&
        std::all_of(type_tokens.begin(), type_tokens.end() - 1,
                    [](const std::string& s) {
                      return s == "insider" || s == "::";
                    });
    if (to_simtime) {
      Emit(out, ctx, toks[i], "simtime-cast",
           "static_cast to SimTime outside src/common/time; use "
           "Microseconds()/CostOf()/TruncateMicros() (src/common/time.h)");
      continue;
    }

    bool pure_int = !type_tokens.empty();
    bool has_type = false;
    for (const std::string& s : type_tokens) {
      if (RawIntTypeTokens().count(s) != 0) {
        has_type = true;
      } else if (s != "std" && s != "::" && s != "const") {
        pure_int = false;
      }
    }
    if (!pure_int || !has_type) continue;
    // Cast argument starts with a name declared SimTime in the enclosing
    // function (params or body)?
    std::size_t arg = NextCode(toks, open + 1);
    if (arg >= toks.size() || toks[arg].kind != TokKind::kIdentifier) {
      continue;
    }
    for (const FunctionInfo& fn : ctx.index.functions) {
      if (fn.body_end == 0 || i <= fn.body_begin || i >= fn.body_end) {
        continue;
      }
      std::set<std::string> names;
      collect_simtime_names(fn.param_begin, fn.param_end, names);
      collect_simtime_names(fn.body_begin, fn.body_end, names);
      if (names.count(toks[arg].text) != 0) {
        Emit(out, ctx, toks[i], "simtime-cast",
             "static_cast from SimTime to a raw integer; use RawMicros() "
             "(src/common/time.h)");
      }
      break;
    }
  }
}

// ---------------------------------------------------------------------------
// Orchestration.
// ---------------------------------------------------------------------------

/// Function name -> status type, from one TU's index.
void AccumulateStatusMap(const TuIndex& index,
                         std::map<std::string, std::string>& status_of) {
  static const std::set<std::string> kStatusTypes = {
      "DeviceStatus", "NandStatus", "FtlStatus", "RebuildReport"};
  for (const FunctionInfo& fn : index.functions) {
    for (const std::string& tok : fn.return_tokens) {
      if (kStatusTypes.count(tok) != 0) {
        status_of[fn.name] = tok;
        break;
      }
    }
    if (status_of.count(fn.name) == 0 && fn.name.rfind("Try", 0) == 0) {
      for (const std::string& tok : fn.return_tokens) {
        if (tok == "bool") {
          status_of[fn.name] = "bool";
          break;
        }
      }
    }
  }
}

std::vector<Finding> EvaluateFile(
    const std::string& path, const std::string& content, const TuIndex& index,
    const std::map<std::string, std::string>& status_of,
    const Options& options) {
  auto enabled = [&](const char* rule) {
    return options.rules.empty() || options.rules.count(rule) != 0;
  };

  FileCtx ctx{path, index, status_of};
  std::vector<Finding> raw;
  if (enabled("wall-clock")) RuleWallClock(ctx, raw);
  if (enabled("unseeded-rng")) RuleUnseededRng(ctx, raw);
  if (enabled("assert-on-status")) RuleAssertOnStatus(ctx, raw);
  if (enabled("naked-timestamp")) RuleNakedTimestamp(ctx, raw);
  if (enabled("raw-output")) RuleRawOutput(ctx, raw);
  if (enabled("raw-thread")) RuleRawThread(ctx, raw);
  if (enabled("pragma-once")) RulePragmaOnce(ctx, raw);
  if (enabled("journal-hook")) RuleJournalHook(ctx, raw);
  if (enabled("layer-dag")) RuleLayerDag(ctx, raw);
  if (enabled("discarded-status")) RuleDiscardedStatus(ctx, raw);
  if (enabled("simtime-cast")) RuleSimtimeCast(ctx, raw);

  std::vector<Suppression> sups = FindSuppressions(index.tokens);
  std::vector<Finding> findings;
  for (Finding& f : raw) {
    bool suppressed = false;
    for (Suppression& s : sups) {
      if (s.rule != f.rule) continue;
      if (f.line >= s.first_covered && f.line <= s.last_covered) {
        s.used = true;
        suppressed = true;
      }
    }
    if (!suppressed) findings.push_back(std::move(f));
  }
  if (enabled("unused-suppression")) {
    for (const Suppression& s : sups) {
      if (s.used) continue;
      if (!options.rules.empty() && options.rules.count(s.rule) == 0) {
        continue;  // its rule didn't run; can't judge it stale
      }
      findings.push_back({path, s.line, s.col, "unused-suppression",
                          "suppression 'allow(" + s.rule +
                              ")' matched no finding; remove it",
                          ""});
    }
  }

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.line, a.col, a.rule) <
                     std::tie(b.line, b.col, b.rule);
            });
  const std::vector<std::string> lines = SplitLines(Scrub(content));
  AssignFingerprints(findings, &lines);
  return findings;
}

}  // namespace

const std::vector<RuleInfo>& AllRules() {
  static const std::vector<RuleInfo> kRules = {
      {"wall-clock",
       "wall-clock access outside src/common/time; use SimTime"},
      {"unseeded-rng",
       "unseeded randomness outside src/common/rng; use the seeded Rng"},
      {"assert-on-status",
       "assert() on a status value; return statuses instead"},
      {"naked-timestamp",
       "uint64_t declaration named like a point in time; use SimTime"},
      {"raw-output",
       "direct console output in simulator code; use INSIDER_LOG"},
      {"raw-thread",
       "thread primitive outside io::ParallelFor (src/io/parallel_for.*)"},
      {"pragma-once", "header missing #pragma once"},
      {"include-cycle", "quoted project includes must form a DAG"},
      {"journal-hook",
       "MutationAudit without a JournalBatchScope in an enclosing scope"},
      {"layer-dag",
       "include violates the module layering table (DESIGN.md §14)"},
      {"discarded-status",
       "expression statement silently drops a returned status"},
      {"simtime-cast",
       "SimTime <-> raw integer static_cast outside the sanctioned helpers"},
      {"unused-suppression",
       "insider-lint: allow(...) comment that suppressed nothing"},
  };
  return kRules;
}

bool IsKnownRule(const std::string& id) {
  for (const RuleInfo& r : AllRules()) {
    if (r.id == id) return true;
  }
  return false;
}

const std::map<std::string, std::set<std::string>>& LayerAllowedDeps() {
  // Keep in lockstep with the table (and diagram) in DESIGN.md §14.
  static const std::map<std::string, std::set<std::string>> kDeps = {
      {"common", {}},
      {"core", {"common"}},
      {"obs", {"common", "core"}},
      {"nand", {"common", "obs"}},
      {"version", {"common", "nand", "obs"}},
      {"ftl", {"common", "nand", "obs", "version"}},
      {"io", {"common", "nand", "obs", "version"}},
      {"fs", {"common"}},
      {"workload", {"common", "io"}},
      {"host",
       {"common", "core", "fs", "ftl", "io", "nand", "obs", "version",
        "workload"}},
  };
  return kDeps;
}

std::string Format(const Finding& finding) {
  std::ostringstream out;
  out << finding.file;
  if (finding.line != 0) {
    out << ':' << finding.line;
    if (finding.col != 0) out << ':' << finding.col;
  }
  out << ": [" << finding.rule << "] " << finding.message;
  return out.str();
}

std::vector<Finding> LintSource(const std::string& path_label,
                                const std::string& content,
                                const Options& options) {
  TuIndex index = BuildIndex(content);
  std::map<std::string, std::string> status_of;
  AccumulateStatusMap(index, status_of);
  return EvaluateFile(path_label, content, index, status_of, options);
}

std::vector<Finding> CheckIncludeCycles(
    const std::vector<std::pair<std::string, std::string>>& headers) {
  std::map<std::string, std::vector<std::string>> edges;
  std::set<std::string> known;
  for (const auto& [name, _] : headers) known.insert(name);
  for (const auto& [name, content] : headers) {
    for (const IncludeEdge& inc : BuildIndex(content).includes) {
      if (!inc.angled && known.count(inc.spelling) != 0) {
        edges[name].push_back(inc.spelling);
      }
    }
  }

  // Tricolor DFS; report the first back edge's cycle.
  std::map<std::string, int> color;  // 0 white, 1 grey, 2 black
  std::vector<Finding> findings;
  std::vector<std::string> stack;
  std::function<bool(const std::string&)> visit =
      [&](const std::string& node) -> bool {
    color[node] = 1;
    stack.push_back(node);
    for (const std::string& dep : edges[node]) {
      if (color[dep] == 1) {
        std::ostringstream chain;
        auto it = std::find(stack.begin(), stack.end(), dep);
        for (; it != stack.end(); ++it) chain << *it << " -> ";
        chain << dep;
        findings.push_back(
            {dep, 0, 0, "include-cycle", "include cycle: " + chain.str(), ""});
        return true;
      }
      if (color[dep] == 0 && visit(dep)) return true;
    }
    stack.pop_back();
    color[node] = 2;
    return false;
  };
  for (const auto& [name, _] : headers) {
    if (color[name] == 0 && visit(name)) break;
  }
  AssignFingerprints(findings, nullptr);
  return findings;
}

std::vector<Finding> LintTree(const std::vector<std::filesystem::path>& roots,
                              const Options& options) {
  namespace fs = std::filesystem;
  struct FileData {
    std::string label;
    std::string content;
    TuIndex index;
  };
  std::vector<Finding> findings;
  std::vector<FileData> files;
  std::vector<std::pair<std::string, std::string>> headers;
  static const std::set<std::string> kExtensions = {".h", ".hpp", ".cc",
                                                    ".cpp", ".cxx"};
  // Pass 1: read and index every file, so pass 2 can answer cross-file
  // questions (which functions return statuses) regardless of walk order.
  for (const fs::path& root : roots) {
    if (!fs::exists(root)) {
      findings.push_back({root.generic_string(), 0, 0, "missing-root",
                          "lint root does not exist", ""});
      continue;
    }
    for (const auto& entry : fs::recursive_directory_iterator(root)) {
      if (!entry.is_regular_file()) continue;
      const std::string label = entry.path().generic_string();
      // Skip fixture directories nested under a scanned root (they hold
      // deliberately violating files) — but allow pointing a root directly
      // AT a testdata tree, which is how the negative CI check runs.
      std::error_code ec;
      const std::string rel =
          fs::relative(entry.path(), root, ec).generic_string();
      if (!ec && Contains(rel, "testdata")) continue;
      if (!kExtensions.count(entry.path().extension().string())) continue;

      std::ifstream in(entry.path(), std::ios::binary);
      std::ostringstream buf;
      buf << in.rdbuf();
      FileData fd;
      fd.label = label;
      fd.content = buf.str();
      fd.index = BuildIndex(fd.content);
      if (IsHeaderPath(label)) {
        std::size_t pos = label.rfind("src/");
        if (pos != std::string::npos) {
          headers.emplace_back(label.substr(pos + 4), fd.content);
        }
      }
      files.push_back(std::move(fd));
    }
  }

  std::map<std::string, std::string> status_of;
  for (const FileData& fd : files) AccumulateStatusMap(fd.index, status_of);

  for (const FileData& fd : files) {
    std::vector<Finding> file_findings =
        EvaluateFile(fd.label, fd.content, fd.index, status_of, options);
    findings.insert(findings.end(),
                    std::make_move_iterator(file_findings.begin()),
                    std::make_move_iterator(file_findings.end()));
  }

  if (options.rules.empty() || options.rules.count("include-cycle") != 0) {
    std::vector<Finding> cycles = CheckIncludeCycles(headers);
    findings.insert(findings.end(), cycles.begin(), cycles.end());
  }
  return findings;
}

}  // namespace insider::lint
