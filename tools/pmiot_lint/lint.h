// pmiot-lint: a determinism, concurrency & privacy-custody analyzer for
// the pmiot tree.
//
// The repo's bit-reproducibility contract (results identical at any
// PMIOT_THREADS, across runs, across machines) rests on a handful of coding
// invariants that no compiler flag enforces: no ambient randomness, no wall
// clocks in library code, shard-derived RNG seeds inside parallel regions,
// no iteration over hash containers into ordered output. The paper's §III
// custody contract adds another: occupancy-revealing signals may only leave
// the process through sanctioned defense/aggregation paths. This analyzer
// checks both mechanically over `src/ bench/ tests/ tools/` and runs as a
// ctest, so a violation fails the build instead of silently de-reproducing
// a figure — or silently leaking a memoir.
//
// Since PR 9 the analyzer works on a real token scan (see token.h) plus a
// project-wide symbol index (see index.h): function definitions, a
// name-based call graph, and the include graph, built in one pass over the
// tree. Rule keywords inside strings, comments, or `#if 0` regions no
// longer fire, and three rule families reason across translation units.
//
// Per-file rules (scope in parentheses; `--list-rules` prints the table):
//   raw-rand        (all)   rand()/srand()/std::random_device — use a
//                           seeded pmiot::Rng.
//   wall-clock      (all)   system_clock / time(nullptr) / gettimeofday /
//                           clock(): results must not depend on wall time.
//                           Carve-out: src/obs/ may read clocks — obs timer
//                           spans are excluded from the determinism
//                           contract by design.
//   src-timing      (src)   steady_clock & friends in library code — timing
//                           belongs in bench/, not in results. Same
//                           src/obs/ carve-out as wall-clock.
//   par-rng-seed    (all)   RNG constructed inside a parallel_for lambda
//                           must be seeded from shard_seed (or an explicit
//                           per-shard seed value mentioning "seed"); since
//                           PR 9 a seed fetched through one level of helper
//                           call (e.g. `Rng rng(shard_for(i))` where the
//                           helper's body mentions a seed) also counts.
//   nested-par      (all)   parallel_for inside a parallel_for lambda: the
//                           inner call runs inline, which is almost never
//                           what the author intended for throughput.
//   unordered-iter  (all)   iteration over an unordered_map/unordered_set:
//                           the traversal order is nondeterministic, so any
//                           output or accumulation it feeds must be ordered
//                           first (or the site justified with an allow).
//   atomic-float    (all)   std::atomic<float/double>: atomic FP reduction
//                           commits to an addition order that depends on
//                           thread scheduling.
//   include-hygiene (headers) a header naming a std:: symbol must include
//                           the standard header that provides it, not lean
//                           on a transitive include.
//   simd-guard      (all)   raw intrinsics / intrinsics headers / vector
//                           pragmas anywhere; no guard exempts them.
//
// Project rules (need the cross-TU index; resolved over the whole run):
//   privacy-flow    (src)   a function that handles sensitive data (an
//                           annotated type/field/name, or the occupancy /
//                           packet-payload built-ins) and reaches a write
//                           sink (ofstream/fopen/fwrite/stdout...) directly
//                           or through the call graph, outside the
//                           sanctioned custody modules src/defense/ and
//                           src/campaign/. Calls *into* sanctioned modules
//                           are custody handoffs and do not propagate.
//                           Inside a sanctioned module, a sensitive
//                           function that writes directly must carry
//                           `pmiot: egress` so the audit set stays explicit.
//   check-coverage  (src)   a parser entry point (read_*/load_*/parse_*
//                           with parameters) must PMIOT_CHECK-validate its
//                           input in its own body or in a directly-called
//                           helper before indexing decoded buffers.
//   no-alloc        (all)   a function annotated `pmiot: no-alloc` must not
//                           reach a definite heap allocation (new,
//                           make_unique/make_shared, the malloc family)
//                           directly or through project callees. Container
//                           growth on warm arenas is *not* flagged here —
//                           that half of the contract stays with the
//                           runtime counting-operator-new self-checks.
//   bad-annotation  (meta)  a `pmiot:` marker that names an unknown
//                           annotation, attaches to no declaration or
//                           function, or marks egress outside a sanctioned
//                           module.
//
// Suppressions: a `pmiot-lint: allow(...)` comment naming one or more rules
// on the offending line, or alone on the line above it. Every grant must
// match a violation — a stale suppression is itself reported
// (`stale-suppression`), so suppressions cannot outlive the code they
// excused.
//
// Annotation grammar (same placement rules as `allow()`: trailing on the
// target line, or on a comment-only line directly above the target):
//
//   `pmiot: sensitive`   on a struct/class/enum or a field declaration.
//     Marks the declared name as a taint source for privacy-flow. The name
//     is project-global: any function whose tokens mention it is treated
//     as handling sensitive data. Built-ins that need no marker: names
//     containing "occupancy", and the exact identifiers `payload` /
//     `payloads` (packet contents).
//   `pmiot: no-alloc`    on a function definition (the marker may sit up
//     to two lines above the name token, so multi-line signatures work).
//     Arms the no-alloc rule for that function's whole reachable set.
//   `pmiot: egress`      on a function definition inside src/defense/ or
//     src/campaign/. Declares a sanctioned custody boundary: the function
//     may write sensitive data out, and taint does not propagate through
//     it to callers. Outside sanctioned modules the marker itself is a
//     bad-annotation finding.
//
//   A justification after a dash is encouraged, e.g. `// pmiot: egress`
//   followed by " — completed cells stream to the local checkpoint".
//   Prose that merely mentions the grammar does not register: a marker
//   only counts when the annotation word ends the comment or is followed
//   by a dash/paren justification delimiter.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace pmiot::lint {

/// One finding, anchored to a 1-based line of `file`.
struct Diagnostic {
  std::string file;
  std::size_t line = 0;
  std::string rule;
  std::string message;

  bool operator==(const Diagnostic&) const = default;
};

/// Formats as `file:line: error: [rule] message` (the common compiler
/// diagnostic shape, so editors and CI annotations pick it up).
std::string to_string(const Diagnostic& diagnostic);

/// Rule names `allow(...)` accepts, in documentation order.
const std::vector<std::string>& rule_names();

/// One line of the `--list-rules` table: "name  description".
std::string describe_rule(const std::string& rule);

/// The cross-TU analyzer. Feed every translation unit with add_file, then
/// call run() once: per-file rules fire per unit, project rules resolve
/// over the union of symbol indexes. Never touches the filesystem —
/// callers feed `content` — so tests lint embedded fixture strings.
class Analyzer {
 public:
  /// `path` is the repo-relative path ("src/..."), used for diagnostics
  /// and for scoping rules (src-timing and the privacy/check rules look at
  /// the prefix; include-hygiene only fires on *.h).
  void add_file(const std::string& path, const std::string& content);

  /// Runs all rules. Diagnostics come back sorted by (file, line, rule).
  std::vector<Diagnostic> run();

 private:
  std::vector<std::pair<std::string, std::string>> files_;  // (path, content)
};

/// Convenience wrapper: lints one translation unit as a single-file
/// project (project rules still run, with the call graph limited to this
/// unit). Diagnostics come back in line order.
std::vector<Diagnostic> lint_source(const std::string& path,
                                    const std::string& content);

}  // namespace pmiot::lint
