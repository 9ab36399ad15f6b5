// insider_check v2 — per-translation-unit index over the token stream.
//
// One pass over a file's tokens extracts the structure the semantic rules
// need and regexes could not see:
//
//   - include edges (spelling + line + quoted/angled), feeding both the
//     include-cycle DFS and the layer-dag architecture check;
//   - declared/defined functions with their return-type token spellings,
//     so `discarded-status` can answer "does Submit() return FtlStatus?"
//     across files without a real C++ frontend;
//   - brace-matched function bodies (token ranges), the scope unit for
//     `journal-hook` v2 (MutationAudit/JournalBatchScope in one scope);
//   - expression-statement calls — `Foo(x);` / `obj.Foo(x);` where the
//     whole statement is the call chain — which are exactly the sites
//     where a returned status can be silently dropped. `(void)Foo();`
//     deliberately does not match: the cast is the sanctioned discard.
//
// Everything here is heuristic token-pattern matching, tuned to this
// repository's idiom and pinned by the clean-tree gate: if the heuristics
// ever misread real code, the gate turns red, not silent.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "tokenizer.h"

namespace insider::lint {

struct IncludeEdge {
  std::string spelling;  ///< "ftl/page_ftl.h" or <vector>
  std::size_t line = 0;
  bool angled = false;
};

struct FunctionInfo {
  std::string name;  ///< unqualified: "RebuildFromNand"
  /// Tokens of the declaration between the previous boundary and the name
  /// (qualifiers stripped of the A::B:: chain). The status classifier only
  /// asks membership questions of this list.
  std::vector<std::string> return_tokens;
  std::size_t line = 0;
  /// Token indices of the parameter-list parens in TuIndex::tokens.
  std::size_t param_begin = 0;
  std::size_t param_end = 0;
  /// Token indices of the body braces in TuIndex::tokens; body_end == 0
  /// means declaration only (no body in this TU).
  std::size_t body_begin = 0;
  std::size_t body_end = 0;
};

struct CallStatement {
  std::string callee;  ///< last called name in the statement's chain
  std::size_t line = 0;
  std::size_t col = 0;
};

struct TuIndex {
  std::vector<Token> tokens;  ///< comments included (suppression scanner)
  std::vector<IncludeEdge> includes;
  std::vector<FunctionInfo> functions;
  std::vector<CallStatement> discard_candidates;
};

TuIndex BuildIndex(const std::string& content);

/// Index of the first non-comment token at or after `from`; tokens.size()
/// if none.
std::size_t NextCode(const std::vector<Token>& tokens, std::size_t from);

/// Given tokens[open] == "{" / "(" / "<", the index of its matching closer
/// (brace/paren only nest with themselves). Returns tokens.size() when
/// unbalanced.
std::size_t MatchingClose(const std::vector<Token>& tokens, std::size_t open);

}  // namespace insider::lint
