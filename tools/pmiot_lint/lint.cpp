#include "pmiot_lint/lint.h"

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <functional>
#include <map>
#include <set>
#include <tuple>
#include <utility>

#include "pmiot_lint/index.h"
#include "pmiot_lint/token.h"

namespace pmiot::lint {
namespace {

bool is_ident_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

bool starts_with(const std::string& s, std::size_t pos, const char* prefix) {
  for (std::size_t i = 0; prefix[i] != '\0'; ++i) {
    if (pos + i >= s.size() || s[pos + i] != prefix[i]) return false;
  }
  return true;
}

/// Whole-word occurrence of `word` at `pos` in `text`.
bool word_at(const std::string& text, std::size_t pos,
             const std::string& word) {
  if (!starts_with(text, pos, word.c_str())) return false;
  if (pos > 0 && is_ident_char(text[pos - 1])) return false;
  const std::size_t end = pos + word.size();
  return end >= text.size() || !is_ident_char(text[end]);
}

/// First whole-word occurrence of `word` at or after `from`, or npos.
std::size_t find_word(const std::string& text, const std::string& word,
                      std::size_t from = 0) {
  for (std::size_t pos = text.find(word, from); pos != std::string::npos;
       pos = text.find(word, pos + 1)) {
    if (word_at(text, pos, word)) return pos;
  }
  return std::string::npos;
}

std::size_t skip_spaces(const std::string& text, std::size_t pos) {
  while (pos < text.size() &&
         (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n')) {
    ++pos;
  }
  return pos;
}

/// Index of the character after the bracket that closes the one at `open`
/// (text[open] must be one of ( [ { <). Returns npos when unbalanced.
/// Brackets inside strings/comments are assumed already blanked.
std::size_t matching_close(const std::string& text, std::size_t open) {
  const char open_c = text[open];
  const char close_c = open_c == '(' ? ')'
                       : open_c == '[' ? ']'
                       : open_c == '{' ? '}'
                                       : '>';
  int depth = 0;
  for (std::size_t i = open; i < text.size(); ++i) {
    if (text[i] == open_c) ++depth;
    if (text[i] == close_c && --depth == 0) return i + 1;
  }
  return std::string::npos;
}

/// 1-based line number of offset `pos` in `text`.
std::size_t line_of(const std::string& text, std::size_t pos) {
  return 1 + static_cast<std::size_t>(
                 std::count(text.begin(), text.begin() + static_cast<std::ptrdiff_t>(
                                              std::min(pos, text.size())),
                            '\n'));
}

std::string lowercase(const std::string& s) {
  std::string out = s;
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

struct RuleInfo {
  const char* name;
  const char* description;
};

constexpr RuleInfo kRules[] = {
    {"raw-rand",
     "rand()/srand()/std::random_device: ambient randomness breaks "
     "reproducibility; use a seeded pmiot::Rng"},
    {"wall-clock",
     "system_clock/time(nullptr)/gettimeofday/clock(): results must not "
     "depend on wall-clock time (src/obs/ exempt: obs timers are outside "
     "the determinism contract)"},
    {"src-timing",
     "steady_clock/high_resolution_clock under src/: timing belongs in "
     "bench/, library results must not branch on elapsed time (src/obs/ "
     "exempt)"},
    {"par-rng-seed",
     "RNG constructed inside a parallel_for lambda must take a per-shard "
     "seed (shard_seed, a precomputed seed value, or a helper call whose "
     "definition mentions a seed)"},
    {"nested-par",
     "parallel_for inside a parallel_for lambda runs inline; restructure "
     "so one level owns the parallelism"},
    {"unordered-iter",
     "iterating an unordered container yields nondeterministic order; sort "
     "first or justify with an allow"},
    {"atomic-float",
     "std::atomic<float/double> reductions commit to a scheduling-dependent "
     "addition order; accumulate per shard and combine in index order"},
    {"include-hygiene",
     "header uses a std:: symbol without including the standard header that "
     "provides it"},
    {"simd-guard",
     "raw SIMD intrinsics, intrinsics headers, or vector pragmas anywhere in "
     "the tree, preprocessor guards included; every kernel has one scalar "
     "implementation"},
    {"privacy-flow",
     "a src/ function handling sensitive data (pmiot: sensitive names, "
     "occupancy/payload built-ins) reaches a file/stdout write sink outside "
     "the sanctioned custody modules (src/defense/, src/campaign/); hand "
     "custody off or justify with an allow"},
    {"check-coverage",
     "a parser entry point (read_*/load_*/parse_* under src/ taking input) "
     "must PMIOT_CHECK-validate decoded lengths/offsets in its body or in a "
     "directly-called helper before indexing buffers"},
    {"no-alloc",
     "a function annotated `pmiot: no-alloc` reaches a definite heap "
     "allocation (new/make_unique/make_shared/malloc family) directly or "
     "through project callees; warm-arena container growth is policed by "
     "the runtime counting-operator-new probes instead"},
    {"bad-annotation",
     "a `pmiot:` annotation that is unknown, attaches to no "
     "declaration/function, or marks egress outside a sanctioned module "
     "(meta rule)"},
    {"stale-suppression",
     "an allow(...) directive that matched no violation (meta rule; not "
     "suppressible)"},
    {"unknown-rule",
     "allow(...) names a rule pmiot-lint does not know (meta rule)"},
};

bool is_known_rule(const std::string& name) {
  for (const auto& rule : kRules) {
    if (name == rule.name) return true;
  }
  return false;
}

/// One `allow(...)` grant: a rule name suppressing findings on `target_line`.
struct Allow {
  std::size_t directive_line = 0;  // where the comment sits (for staleness)
  std::size_t target_line = 0;     // line whose findings it suppresses
  std::string rule;
  bool used = false;
};

/// Parses `pmiot-lint: allow(...)` directives out of per-line comment text.
/// A directive on a line with code targets that line; a directive on a
/// comment-only line targets the next line that has code on it.
std::vector<Allow> collect_allows(const ScanResult& source,
                                  const std::string& path,
                                  std::vector<Diagnostic>& meta) {
  std::vector<Allow> allows;
  for (std::size_t li = 0; li < source.comments.size(); ++li) {
    const std::string& comment = source.comments[li];
    std::size_t pos = comment.find("pmiot-lint:");
    if (pos == std::string::npos) continue;
    pos = comment.find("allow", pos);
    if (pos == std::string::npos) continue;
    const std::size_t open = comment.find('(', pos);
    const std::size_t close = comment.find(')', open);
    if (open == std::string::npos || close == std::string::npos) {
      meta.push_back({path, li + 1, "unknown-rule",
                      "malformed pmiot-lint directive; expected "
                      "`pmiot-lint: allow(rule)`"});
      continue;
    }
    std::size_t target = li + 1;  // 1-based
    if (!source.line_has_code(target)) {
      ++target;
      while (target <= source.comments.size() &&
             !source.line_has_code(target)) {
        ++target;
      }
    }
    std::string name;
    for (std::size_t i = open + 1; i <= close; ++i) {
      const char c = comment[i];
      if (c == ',' || c == ')') {
        if (!name.empty()) {
          if (!is_known_rule(name)) {
            meta.push_back({path, li + 1, "unknown-rule",
                            "allow(" + name + ") names no pmiot-lint rule"});
          } else {
            allows.push_back({li + 1, target, name, false});
          }
          name.clear();
        }
      } else if (is_ident_char(c) || c == '-') {
        name += c;
      }
    }
  }
  return allows;
}

/// A half-open [begin, end) offset range of a parallel_for lambda body.
struct ParRegion {
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// Bodies of lambdas passed to parallel_for calls (the parallel regions the
/// par-rng-seed and nested-par rules police).
std::vector<ParRegion> find_par_regions(const std::string& code) {
  std::vector<ParRegion> regions;
  for (std::size_t pos = find_word(code, "parallel_for");
       pos != std::string::npos;
       pos = find_word(code, "parallel_for", pos + 1)) {
    const std::size_t open = skip_spaces(code, pos + 12);
    if (open >= code.size() || code[open] != '(') continue;  // declaration
    const std::size_t args_end = matching_close(code, open);
    if (args_end == std::string::npos) continue;
    // Find the lambda introducer among the arguments: a '[' directly after
    // '(' or ',' (a subscript's '[' follows an identifier or ')' instead).
    std::size_t lambda = std::string::npos;
    for (std::size_t i = open; i + 1 < args_end; ++i) {
      if (code[i] != '(' && code[i] != ',') continue;
      const std::size_t j = skip_spaces(code, i + 1);
      if (j < args_end && code[j] == '[') {
        lambda = j;
        break;
      }
    }
    if (lambda == std::string::npos) continue;  // fn pointer / declaration
    const std::size_t captures_end = matching_close(code, lambda);
    if (captures_end == std::string::npos) continue;
    const std::size_t body = code.find('{', captures_end);
    if (body == std::string::npos || body >= args_end) continue;
    const std::size_t body_end = matching_close(code, body);
    if (body_end == std::string::npos) continue;
    regions.push_back({body + 1, body_end - 1});
  }
  return regions;
}

bool in_regions(const std::vector<ParRegion>& regions, std::size_t pos) {
  for (const auto& region : regions) {
    if (pos >= region.begin && pos < region.end) return true;
  }
  return false;
}

void check_banned_calls(const std::string& path, const std::string& code,
                        bool in_src, bool in_obs,
                        std::vector<Diagnostic>& findings) {
  const auto flag = [&](std::size_t pos, const char* rule,
                        const std::string& what) {
    findings.push_back({path, line_of(code, pos), rule, what});
  };
  static const std::pair<const char*, const char*> kRandWords[] = {
      {"rand", "rand() draws from hidden global state"},
      {"srand", "srand() seeds hidden global state"},
      {"random_device", "std::random_device is nondeterministic by design"},
      {"random_shuffle", "std::random_shuffle uses unspecified randomness"},
  };
  for (const auto& [word, why] : kRandWords) {
    for (std::size_t pos = find_word(code, word); pos != std::string::npos;
         pos = find_word(code, word, pos + 1)) {
      // `rand`/`srand` only count as calls; the other names are banned
      // outright (even constructing std::random_device is a violation).
      if ((std::string(word) == "rand" || std::string(word) == "srand")) {
        const std::size_t next = skip_spaces(code, pos + std::string(word).size());
        if (next >= code.size() || code[next] != '(') continue;
      }
      flag(pos, "raw-rand",
           std::string(why) + "; use a seeded pmiot::Rng instead");
    }
  }
  // src/obs/ is the one place in the tree allowed to read clocks: obs
  // timers report wall durations that are explicitly excluded from the
  // determinism contract. Everywhere else both rules stay armed.
  if (in_obs) return;
  static const char* kWallClockWords[] = {"system_clock", "gettimeofday",
                                          "clock_gettime"};
  for (const char* word : kWallClockWords) {
    for (std::size_t pos = find_word(code, word); pos != std::string::npos;
         pos = find_word(code, word, pos + 1)) {
      flag(pos, "wall-clock",
           std::string(word) + " reads the wall clock; results must be "
                               "reproducible across runs");
    }
  }
  // `time(...)` with no argument or a null-ish argument, and argless
  // `clock()`. `timestamp()`-style identifiers don't match (whole word).
  for (const char* word : {"time", "clock"}) {
    for (std::size_t pos = find_word(code, word); pos != std::string::npos;
         pos = find_word(code, word, pos + 1)) {
      const std::size_t open = pos + (word[0] == 't' ? 4 : 5);
      if (open >= code.size() || code[open] != '(') continue;
      const std::size_t close = matching_close(code, open);
      if (close == std::string::npos) continue;
      std::string args = code.substr(open + 1, close - open - 2);
      args.erase(std::remove_if(args.begin(), args.end(),
                                [](char c) { return c == ' ' || c == '\t'; }),
                 args.end());
      if (args.empty() || args == "nullptr" || args == "NULL" || args == "0") {
        flag(pos, "wall-clock",
             std::string(word) + "(" + args + ") reads the wall clock");
      }
    }
  }
  if (in_src) {
    for (const char* word : {"steady_clock", "high_resolution_clock"}) {
      for (std::size_t pos = find_word(code, word); pos != std::string::npos;
           pos = find_word(code, word, pos + 1)) {
        flag(pos, "src-timing",
             std::string(word) + " in library code: move timing to bench/; "
                                 "results must not depend on elapsed time");
      }
    }
  }
}

/// Answers "does a project function with this name mention a seed?" — the
/// one-level helper hop the upgraded par-rng-seed rule follows.
using SeedHelperLookup = std::function<bool(const std::string&)>;

void check_par_regions(const std::string& path, const std::string& code,
                       const SeedHelperLookup& helper_mentions_seed,
                       std::vector<Diagnostic>& findings) {
  const std::vector<ParRegion> regions = find_par_regions(code);
  if (regions.empty()) return;
  // Nested parallel_for: any parallel_for token inside a region.
  for (std::size_t pos = find_word(code, "parallel_for");
       pos != std::string::npos;
       pos = find_word(code, "parallel_for", pos + 1)) {
    if (in_regions(regions, pos)) {
      findings.push_back(
          {path, line_of(code, pos), "nested-par",
           "parallel_for inside a parallel_for lambda runs inline on the "
           "calling thread; hoist the parallelism to one level"});
    }
  }
  // RNG construction inside a region must mention a seed.
  static const char* kEngines[] = {"Rng", "mt19937", "mt19937_64",
                                   "minstd_rand", "minstd_rand0",
                                   "default_random_engine"};
  for (const char* engine : kEngines) {
    for (std::size_t pos = find_word(code, engine); pos != std::string::npos;
         pos = find_word(code, engine, pos + 1)) {
      if (!in_regions(regions, pos)) continue;
      // Construction shapes: `Rng(args)`, `Rng{args}`, `Rng name(args)`,
      // `Rng name{args}`. A reference/pointer parameter or member access
      // is not a construction.
      std::size_t cursor = skip_spaces(code, pos + std::string(engine).size());
      if (cursor < code.size() && is_ident_char(code[cursor])) {
        while (cursor < code.size() && is_ident_char(code[cursor])) ++cursor;
        cursor = skip_spaces(code, cursor);
      }
      if (cursor >= code.size() || (code[cursor] != '(' && code[cursor] != '{')) {
        continue;
      }
      const std::size_t close = matching_close(code, cursor);
      if (close == std::string::npos) continue;
      const std::string args = code.substr(cursor + 1, close - cursor - 2);
      // Accept any seed-bearing argument: shard_seed(...), seeds[i],
      // base_seed + ... — an identifier whose name mentions "seed" — or a
      // call to a helper function whose own definition mentions a seed
      // (one level deep, resolved over the project index).
      bool seeded = false;
      for (std::size_t i = 0; i < args.size() && !seeded; ++i) {
        const bool word_start = i == 0 || !is_ident_char(args[i - 1]);
        if (!word_start || !is_ident_char(args[i])) continue;
        std::size_t j = i;
        std::string ident;
        while (j < args.size() && is_ident_char(args[j])) ident += args[j++];
        if (lowercase(ident).find("seed") != std::string::npos) {
          seeded = true;
        } else if (helper_mentions_seed) {
          const std::size_t k = skip_spaces(args, j);
          if (k < args.size() && args[k] == '(' &&
              helper_mentions_seed(ident)) {
            seeded = true;
          }
        }
        i = j;
      }
      if (!seeded) {
        findings.push_back(
            {path, line_of(code, pos), "par-rng-seed",
             std::string(engine) +
                 " constructed inside a parallel_for lambda without a "
                 "per-shard seed; derive it from shard_seed(base, i) or a "
                 "precomputed seeds[i]"});
      }
    }
  }
}

void check_unordered_iteration(const std::string& path,
                               const std::string& code,
                               std::vector<Diagnostic>& findings) {
  // Collect names declared with an unordered container type in this file.
  std::set<std::string> names;
  for (const char* container : {"unordered_map", "unordered_set",
                                "unordered_multimap", "unordered_multiset"}) {
    for (std::size_t pos = find_word(code, container);
         pos != std::string::npos;
         pos = find_word(code, container, pos + 1)) {
      const std::size_t open = pos + std::string(container).size();
      if (open >= code.size() || code[open] != '<') continue;
      std::size_t after = matching_close(code, open);
      if (after == std::string::npos) continue;
      after = skip_spaces(code, after);
      // `&`/`*` still declare a name whose iteration is unordered.
      while (after < code.size() && (code[after] == '&' || code[after] == '*')) {
        after = skip_spaces(code, after + 1);
      }
      std::string name;
      while (after < code.size() && is_ident_char(code[after])) {
        name += code[after++];
      }
      if (!name.empty()) names.insert(name);
    }
  }
  if (names.empty()) return;
  // Range-for over a declared name (possibly member-qualified), or explicit
  // begin() iteration on one.
  for (std::size_t pos = find_word(code, "for"); pos != std::string::npos;
       pos = find_word(code, "for", pos + 1)) {
    const std::size_t open = skip_spaces(code, pos + 3);
    if (open >= code.size() || code[open] != '(') continue;
    const std::size_t close = matching_close(code, open);
    if (close == std::string::npos) continue;
    const std::string head = code.substr(open + 1, close - open - 2);
    const std::size_t colon = head.find(':');
    if (colon == std::string::npos || (colon + 1 < head.size() && head[colon + 1] == ':')) {
      continue;  // not a range-for (plain for, or :: qualifier first)
    }
    std::string range = head.substr(colon + 1);
    // Last identifier component of the range expression.
    std::string ident;
    for (char c : range) {
      if (is_ident_char(c)) {
        ident += c;
      } else if (c != ' ' && c != '\t' && c != '\n') {
        if (c == '.' || (c == '>' && !ident.empty())) ident.clear();
      }
    }
    if (names.count(ident) != 0) {
      findings.push_back(
          {path, line_of(code, pos), "unordered-iter",
           "range-for over unordered container `" + ident +
               "`: traversal order is nondeterministic; iterate a sorted "
               "copy of the keys (or justify with an allow)"});
    }
  }
  for (const std::string& name : names) {
    for (const char* method : {".begin", ".cbegin"}) {
      const std::string pattern = name + method;
      for (std::size_t pos = code.find(pattern); pos != std::string::npos;
           pos = code.find(pattern, pos + 1)) {
        if (pos > 0 && is_ident_char(code[pos - 1])) continue;
        findings.push_back(
            {path, line_of(code, pos), "unordered-iter",
             "iterator walk over unordered container `" + name +
                 "`: traversal order is nondeterministic; sort keys first "
                 "(or justify with an allow)"});
      }
    }
  }
}

void check_atomic_float(const std::string& path, const std::string& code,
                        std::vector<Diagnostic>& findings) {
  for (std::size_t pos = find_word(code, "atomic"); pos != std::string::npos;
       pos = find_word(code, "atomic", pos + 1)) {
    const std::size_t open = pos + 6;
    if (open >= code.size() || code[open] != '<') continue;
    const std::size_t close = matching_close(code, open);
    if (close == std::string::npos) continue;
    const std::string type = code.substr(open + 1, close - open - 2);
    if (find_word(type, "float") != std::string::npos ||
        find_word(type, "double") != std::string::npos) {
      findings.push_back(
          {path, line_of(code, pos), "atomic-float",
           "std::atomic<" + std::string(type) +
               "> reduction order depends on thread scheduling; accumulate "
               "into per-shard slots and combine in index order"});
    }
  }
}

/// Flags explicit vector code anywhere in the tree: x86 intrinsic
/// identifiers (`_mm*`), vector register types (`__m128/__m256/__m512*`),
/// includes of `*intrin.h`, and vectorization pragmas (`omp simd`, `ivdep`,
/// `vectorize`). pmiot keeps one scalar implementation of every kernel, so
/// no preprocessor guard makes such code acceptable; only an allow() does.
void check_simd_guard(const std::string& path, const std::string& code,
                      std::vector<Diagnostic>& findings) {
  const auto flag = [&](std::size_t pos, const std::string& what) {
    findings.push_back({path, line_of(code, pos), "simd-guard",
                        what + "; pmiot keeps one scalar implementation per "
                               "kernel, with no explicit vector code"});
  };
  std::size_t pos = 0;
  while (pos < code.size()) {
    std::size_t end = code.find('\n', pos);
    if (end == std::string::npos) end = code.size();
    // Fold backslash continuations into one logical line so a wrapped
    // pragma is inspected whole.
    while (end > pos && end < code.size() && code[end - 1] == '\\') {
      std::size_t next = code.find('\n', end + 1);
      if (next == std::string::npos) next = code.size();
      end = next;
    }
    const std::string line = code.substr(pos, end - pos);
    std::size_t first = 0;
    while (first < line.size() &&
           (line[first] == ' ' || line[first] == '\t')) {
      ++first;
    }
    if (first < line.size() && line[first] == '#') {
      std::size_t d = first + 1;
      while (d < line.size() && (line[d] == ' ' || line[d] == '\t')) ++d;
      std::size_t d_end = d;
      while (d_end < line.size() && is_ident_char(line[d_end])) ++d_end;
      const std::string directive = line.substr(d, d_end - d);
      const std::string rest = line.substr(d_end);
      if (directive == "include" &&
          rest.find("intrin.h") != std::string::npos) {
        flag(pos + first, "intrinsics header include");
      } else if (directive == "pragma" &&
                 (find_word(rest, "simd") != std::string::npos ||
                  find_word(rest, "ivdep") != std::string::npos ||
                  rest.find("vectorize") != std::string::npos)) {
        flag(pos + first, "vectorization pragma");
      }
      pos = end + 1;
      continue;
    }
    for (std::size_t i = 0; i < line.size(); ++i) {
      if (!is_ident_char(line[i])) continue;
      std::size_t j = i;
      while (j < line.size() && is_ident_char(line[j])) ++j;
      const bool word_start = i == 0 || !is_ident_char(line[i - 1]);
      if (word_start) {
        const std::string ident = line.substr(i, j - i);
        if (ident.rfind("_mm", 0) == 0) {
          flag(pos + i, "x86 SIMD intrinsic `" + ident + "`");
        } else if (ident.rfind("__m128", 0) == 0 ||
                   ident.rfind("__m256", 0) == 0 ||
                   ident.rfind("__m512", 0) == 0) {
          flag(pos + i, "SIMD register type `" + ident + "`");
        }
      }
      i = j;
    }
    pos = end + 1;
  }
}

/// std:: symbol -> standard headers that satisfy it. A header may use the
/// symbol only if it directly includes one of them.
struct SymbolRequirement {
  const char* symbol;
  std::vector<const char*> headers;
};

const std::vector<SymbolRequirement>& symbol_requirements() {
  // Note: std::size_t is formally from <cstddef> and friends, but both
  // mainstream standard libraries also define it in <cstdint>; the repo
  // leans on that, so <cstdint> is accepted.
  static const std::vector<SymbolRequirement> kTable = {
      {"vector", {"vector"}},
      {"string", {"string"}},
      {"string_view", {"string_view"}},
      {"unordered_map", {"unordered_map"}},
      {"unordered_set", {"unordered_set"}},
      {"optional", {"optional"}},
      {"function", {"functional"}},
      {"array", {"array"}},
      {"pair", {"utility"}},
      {"tuple", {"tuple"}},
      {"unique_ptr", {"memory"}},
      {"shared_ptr", {"memory"}},
      {"make_unique", {"memory"}},
      {"make_shared", {"memory"}},
      {"span", {"span"}},
      {"size_t", {"cstddef", "cstdint", "cstdio", "cstring", "cstdlib"}},
      {"ptrdiff_t", {"cstddef", "cstdint"}},
      {"uint8_t", {"cstdint"}},
      {"uint16_t", {"cstdint"}},
      {"uint32_t", {"cstdint"}},
      {"uint64_t", {"cstdint"}},
      {"int8_t", {"cstdint"}},
      {"int16_t", {"cstdint"}},
      {"int32_t", {"cstdint"}},
      {"int64_t", {"cstdint"}},
      {"atomic", {"atomic"}},
      {"mutex", {"mutex"}},
      {"lock_guard", {"mutex"}},
      {"unique_lock", {"mutex"}},
      {"condition_variable", {"condition_variable"}},
      {"thread", {"thread"}},
      {"ostream", {"ostream", "iostream", "iosfwd", "sstream", "fstream"}},
      {"istream", {"istream", "iostream", "iosfwd", "sstream", "fstream"}},
      {"ofstream", {"fstream"}},
      {"ifstream", {"fstream"}},
      {"ostringstream", {"sstream"}},
      {"istringstream", {"sstream"}},
      {"runtime_error", {"stdexcept"}},
      {"logic_error", {"stdexcept"}},
      {"invalid_argument", {"stdexcept"}},
      {"out_of_range", {"stdexcept"}},
      {"exception", {"exception", "stdexcept"}},
      {"move", {"utility"}},
      {"forward", {"utility"}},
      {"swap", {"utility", "algorithm"}},
      {"min", {"algorithm"}},
      {"max", {"algorithm"}},
      {"sort", {"algorithm"}},
      {"stable_sort", {"algorithm"}},
  };
  return kTable;
}

void check_include_hygiene(const std::string& path, const std::string& code,
                           std::vector<Diagnostic>& findings) {
  // Direct includes of this header (angle or quoted; quoted project headers
  // don't satisfy std symbols, so only the <...> set matters here).
  std::set<std::string> includes;
  std::size_t pos = 0;
  while ((pos = code.find("#include", pos)) != std::string::npos) {
    std::size_t i = skip_spaces(code, pos + 8);
    if (i < code.size() && code[i] == '<') {
      const std::size_t end = code.find('>', i);
      if (end != std::string::npos) {
        includes.insert(code.substr(i + 1, end - i - 1));
      }
    }
    ++pos;
  }
  // First use of each symbol spelled `std::symbol`.
  std::set<std::string> reported;
  for (const auto& requirement : symbol_requirements()) {
    if (reported.count(requirement.symbol) != 0) continue;
    bool satisfied = false;
    for (const char* header : requirement.headers) {
      if (includes.count(header) != 0) {
        satisfied = true;
        break;
      }
    }
    if (satisfied) continue;
    const std::string qualified = std::string("std::") + requirement.symbol;
    for (std::size_t at = code.find(qualified); at != std::string::npos;
         at = code.find(qualified, at + 1)) {
      const std::size_t sym = at + 5;
      if (!word_at(code, sym, requirement.symbol)) continue;
      if (at > 0 && is_ident_char(code[at - 1])) continue;
      std::string suggestion = requirement.headers.front();
      findings.push_back(
          {path, line_of(code, at), "include-hygiene",
           "header uses std::" + std::string(requirement.symbol) +
               " but does not include <" + suggestion +
               "> (self-sufficiency: no leaning on transitive includes)"});
      reported.insert(requirement.symbol);
      break;  // one finding per symbol per header
    }
  }
}

// ---------------------------------------------------------------------------
// Project rules: resolved over the union of per-file symbol indexes.

bool in_sanctioned_module(const std::string& path) {
  return path.rfind("src/defense/", 0) == 0 ||
         path.rfind("src/campaign/", 0) == 0;
}

/// The cross-TU view: every function in the project, with its defining
/// file, plus name lookup and the sensitive-name set.
struct ProjectIndex {
  std::vector<const FunctionDef*> fns;
  std::vector<const FileIndex*> fn_file;  // parallel to fns
  std::map<std::string, std::vector<std::size_t>> by_name;
  std::set<std::string> sensitive_names;

  bool is_sensitive_ident(const std::string& w) const {
    if (sensitive_names.count(w) != 0) return true;
    if (w == "payload" || w == "payloads") return true;  // packet contents
    return lowercase(w).find("occupancy") != std::string::npos;
  }
};

ProjectIndex build_project_index(const std::vector<FileIndex>& files) {
  ProjectIndex project;
  for (const FileIndex& file : files) {
    for (const FunctionDef& fn : file.functions) {
      project.by_name[fn.name].push_back(project.fns.size());
      project.fns.push_back(&fn);
      project.fn_file.push_back(&file);
    }
    for (const std::string& name : file.sensitive_names) {
      project.sensitive_names.insert(name);
    }
  }
  return project;
}

/// Memoized transitive reachability of "interesting" direct facts
/// (write sinks or definite allocations) over the name-based call graph.
/// `barrier(g)` stops propagation through a callee (custody handoff for
/// privacy-flow; independently-policed functions for no-alloc).
class ReachSolver {
 public:
  struct Witness {
    std::size_t line = 0;  // in the *querying* function's file
    std::string what;      // human description of the path
  };

  ReachSolver(const ProjectIndex& project,
              std::function<const std::vector<TokenRef>&(const FunctionDef&)>
                  direct_facts,
              std::function<bool(std::size_t)> barrier)
      : project_(project),
        direct_facts_(std::move(direct_facts)),
        barrier_(std::move(barrier)),
        state_(project.fns.size(), 0),
        reaches_(project.fns.size(), false),
        witness_(project.fns.size()) {}

  bool reaches(std::size_t id) {
    if (state_[id] == 1) return false;  // cycle guard: cut, don't memoize
    if (state_[id] == 2) return reaches_[id];
    state_[id] = 1;
    const FunctionDef& fn = *project_.fns[id];
    bool found = false;
    Witness w;
    const std::vector<TokenRef>& direct = direct_facts_(fn);
    if (!direct.empty()) {
      found = true;
      w = {direct.front().line, "`" + direct.front().name + "`"};
    } else {
      for (const TokenRef& call : fn.callees) {
        const auto it = project_.by_name.find(call.name);
        if (it == project_.by_name.end()) continue;
        for (const std::size_t g : it->second) {
          if (g == id || barrier_(g)) continue;
          if (reaches(g)) {
            found = true;
            w = {call.line,
                 "call to `" + call.name + "` (which reaches " +
                     witness_[g].what + ")"};
            break;
          }
        }
        if (found) break;
      }
    }
    state_[id] = 2;
    reaches_[id] = found;
    witness_[id] = std::move(w);
    return found;
  }

  const Witness& witness(std::size_t id) const { return witness_[id]; }

 private:
  const ProjectIndex& project_;
  std::function<const std::vector<TokenRef>&(const FunctionDef&)> direct_facts_;
  std::function<bool(std::size_t)> barrier_;
  std::vector<int> state_;  // 0 unvisited, 1 visiting, 2 done
  std::vector<bool> reaches_;
  std::vector<Witness> witness_;
};

/// privacy-flow: a src/ function that mentions a sensitive name and
/// reaches a write sink outside the sanctioned custody modules. Inside a
/// sanctioned module, a sensitive function with a *direct* sink must carry
/// `pmiot: egress` so the audit set stays explicit.
void check_privacy_flow(const ProjectIndex& project,
                        std::map<const FileIndex*, std::vector<Diagnostic>>&
                            per_file) {
  ReachSolver sinks(
      project,
      [](const FunctionDef& fn) -> const std::vector<TokenRef>& {
        return fn.sinks;
      },
      [&project](std::size_t g) {
        // Custody handoff: calls into sanctioned modules or through an
        // egress-annotated function do not propagate taint to callers.
        return project.fns[g]->egress ||
               in_sanctioned_module(project.fn_file[g]->path);
      });
  for (std::size_t id = 0; id < project.fns.size(); ++id) {
    const FunctionDef& fn = *project.fns[id];
    const FileIndex& file = *project.fn_file[id];
    const bool sanctioned = in_sanctioned_module(file.path);
    if (fn.egress && !sanctioned) {
      per_file[&file].push_back(
          {file.path, fn.line, "bad-annotation",
           "'pmiot: egress' on `" + fn.display + "` outside the sanctioned "
           "custody modules (src/defense/, src/campaign/); egress points "
           "must live behind a sanctioned path"});
    }
    if (file.path.rfind("src/", 0) != 0) continue;
    std::string sensitive_witness;
    std::size_t sensitive_line = 0;
    for (const TokenRef& ident : fn.idents) {
      if (project.is_sensitive_ident(ident.name)) {
        sensitive_witness = ident.name;
        sensitive_line = ident.line;
        break;
      }
    }
    if (sensitive_witness.empty()) continue;
    if (sanctioned) {
      if (!fn.sinks.empty() && !fn.egress) {
        per_file[&file].push_back(
            {file.path, fn.sinks.front().line, "privacy-flow",
             "`" + fn.display + "` in a sanctioned module handles sensitive "
             "data (`" + sensitive_witness + "`) and writes directly (`" +
             fn.sinks.front().name + "`); mark the custody boundary with "
             "`pmiot: egress` so the audit set stays explicit"});
      }
      continue;
    }
    if (fn.egress) continue;  // already reported as bad-annotation above
    if (!sinks.reaches(id)) continue;
    const ReachSolver::Witness& w = sinks.witness(id);
    per_file[&file].push_back(
        {file.path, w.line, "privacy-flow",
         "`" + fn.display + "` handles sensitive data (`" +
             sensitive_witness + "` at line " +
             std::to_string(sensitive_line) + ") and reaches a write sink: " +
             w.what + "; route the release through src/defense or "
             "src/campaign, or justify with allow(privacy-flow)"});
  }
}

/// check-coverage: read_*/load_*/parse_* entry points under src/ must
/// carry a PMIOT_CHECK in their body or in a directly-called helper.
void check_check_coverage(const ProjectIndex& project,
                          std::map<const FileIndex*, std::vector<Diagnostic>>&
                              per_file) {
  for (std::size_t id = 0; id < project.fns.size(); ++id) {
    const FunctionDef& fn = *project.fns[id];
    const FileIndex& file = *project.fn_file[id];
    if (file.path.rfind("src/", 0) != 0) continue;
    const bool parser_name = fn.name.rfind("read_", 0) == 0 ||
                             fn.name.rfind("load_", 0) == 0 ||
                             fn.name.rfind("parse_", 0) == 0;
    if (!parser_name || !fn.has_params) continue;
    bool covered = fn.has_check;
    for (const TokenRef& call : fn.callees) {
      if (covered) break;
      const auto it = project.by_name.find(call.name);
      if (it == project.by_name.end()) continue;
      for (const std::size_t g : it->second) {
        if (project.fns[g]->has_check) {
          covered = true;
          break;
        }
      }
    }
    if (covered) continue;
    per_file[&file].push_back(
        {file.path, fn.line, "check-coverage",
         "parser entry point `" + fn.display + "` never "
         "PMIOT_CHECK-validates its input (no check in its body or in a "
         "directly-called helper); validate decoded lengths/offsets before "
         "indexing buffers"});
  }
}

/// no-alloc: annotated functions must not reach a definite allocation.
void check_no_alloc(const ProjectIndex& project,
                    std::map<const FileIndex*, std::vector<Diagnostic>>&
                        per_file) {
  ReachSolver allocs(
      project,
      [](const FunctionDef& fn) -> const std::vector<TokenRef>& {
        return fn.allocs;
      },
      [&project](std::size_t g) {
        // An annotated callee is policed by its own annotation; do not
        // double-report through it.
        return project.fns[g]->no_alloc;
      });
  for (std::size_t id = 0; id < project.fns.size(); ++id) {
    const FunctionDef& fn = *project.fns[id];
    if (!fn.no_alloc) continue;
    const FileIndex& file = *project.fn_file[id];
    // Query direct facts and the graph; the annotated function itself is
    // not its own barrier.
    if (!fn.allocs.empty()) {
      per_file[&file].push_back(
          {file.path, fn.allocs.front().line, "no-alloc",
           "`" + fn.display + "` is annotated `pmiot: no-alloc` but "
           "allocates directly (`" + fn.allocs.front().name + "`); hoist "
           "the allocation to setup or drop the annotation"});
      continue;
    }
    if (allocs.reaches(id)) {
      const ReachSolver::Witness& w = allocs.witness(id);
      per_file[&file].push_back(
          {file.path, w.line, "no-alloc",
           "`" + fn.display + "` is annotated `pmiot: no-alloc` but reaches "
           "a heap allocation: " + w.what + "; hoist the allocation to "
           "setup or drop the annotation"});
    }
  }
}

}  // namespace

std::string to_string(const Diagnostic& diagnostic) {
  return diagnostic.file + ":" + std::to_string(diagnostic.line) +
         ": error: [" + diagnostic.rule + "] " + diagnostic.message;
}

const std::vector<std::string>& rule_names() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> names;
    for (const auto& rule : kRules) names.emplace_back(rule.name);
    return names;
  }();
  return kNames;
}

std::string describe_rule(const std::string& rule) {
  for (const auto& info : kRules) {
    if (rule == info.name) return std::string(info.description);
  }
  return "";
}

void Analyzer::add_file(const std::string& path, const std::string& content) {
  files_.emplace_back(path, content);
}

std::vector<Diagnostic> Analyzer::run() {
  // One pass: scan + index every translation unit.
  std::vector<FileIndex> files;
  files.reserve(files_.size());
  for (const auto& [path, content] : files_) {
    files.push_back(index_file(path, content));
  }
  const ProjectIndex project = build_project_index(files);

  const SeedHelperLookup helper_mentions_seed =
      [&project](const std::string& name) {
        const auto it = project.by_name.find(name);
        if (it == project.by_name.end()) return false;
        for (const std::size_t g : it->second) {
          for (const TokenRef& ident : project.fns[g]->idents) {
            if (lowercase(ident.name).find("seed") != std::string::npos) {
              return true;
            }
          }
        }
        return false;
      };

  // Project rules, bucketed per file so suppressions apply uniformly.
  std::map<const FileIndex*, std::vector<Diagnostic>> project_findings;
  check_privacy_flow(project, project_findings);
  check_check_coverage(project, project_findings);
  check_no_alloc(project, project_findings);

  std::vector<Diagnostic> all;
  for (const FileIndex& file : files) {
    const std::string& path = file.path;
    const std::string& code = file.scan.code;
    const bool in_src = path.rfind("src/", 0) == 0;
    const bool in_obs = path.rfind("src/obs/", 0) == 0;
    const bool is_header =
        path.size() > 2 && path.compare(path.size() - 2, 2, ".h") == 0;

    std::vector<Diagnostic> meta;
    std::vector<Allow> allows = collect_allows(file.scan, path, meta);

    std::vector<Diagnostic> findings;
    check_banned_calls(path, code, in_src, in_obs, findings);
    check_par_regions(path, code, helper_mentions_seed, findings);
    check_unordered_iteration(path, code, findings);
    check_atomic_float(path, code, findings);
    check_simd_guard(path, code, findings);
    if (is_header) check_include_hygiene(path, code, findings);
    const auto bucket = project_findings.find(&file);
    if (bucket != project_findings.end()) {
      for (const Diagnostic& d : bucket->second) findings.push_back(d);
    }
    for (const AnnotationError& err : file.annotation_errors) {
      findings.push_back({path, err.line, "bad-annotation", err.message});
    }

    // Apply suppressions; every grant must earn its keep.
    std::vector<Diagnostic> kept;
    for (const auto& finding : findings) {
      bool suppressed = false;
      for (auto& allow : allows) {
        if (allow.target_line == finding.line && allow.rule == finding.rule) {
          allow.used = true;
          suppressed = true;
        }
      }
      if (!suppressed) kept.push_back(finding);
    }
    for (const auto& allow : allows) {
      if (!allow.used) {
        kept.push_back({path, allow.directive_line, "stale-suppression",
                        "allow(" + allow.rule + ") matched no " + allow.rule +
                            " violation on line " +
                            std::to_string(allow.target_line) +
                            "; remove the suppression"});
      }
    }
    for (auto& diagnostic : meta) kept.push_back(std::move(diagnostic));
    for (auto& diagnostic : kept) all.push_back(std::move(diagnostic));
  }

  std::sort(all.begin(), all.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });
  return all;
}

std::vector<Diagnostic> lint_source(const std::string& path,
                                    const std::string& content) {
  Analyzer analyzer;
  analyzer.add_file(path, content);
  return analyzer.run();
}

}  // namespace pmiot::lint
