// pmiot_lint core tests: every rule must fire on a fixture containing its
// banned pattern, stay quiet on the clean variant, honour allow(...)
// suppressions, and report stale or unknown suppressions. Fixtures are
// embedded strings, so these tests never depend on the repo checkout.
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "pmiot_lint/index.h"
#include "pmiot_lint/lint.h"
#include "pmiot_lint/report.h"
#include "pmiot_lint/token.h"

namespace {

using pmiot::lint::Analyzer;
using pmiot::lint::Diagnostic;
using pmiot::lint::index_file;
using pmiot::lint::lint_source;
using pmiot::lint::scan_text;
using pmiot::lint::ScanResult;
using pmiot::lint::Token;
using pmiot::lint::TokenKind;

std::vector<std::string> rules_of(const std::string& path,
                                  const std::string& source) {
  std::vector<std::string> rules;
  for (const auto& diagnostic : lint_source(path, source)) {
    rules.push_back(diagnostic.rule);
  }
  return rules;
}

/// Lints a multi-file fixture project and returns the rule names fired.
std::vector<std::string> rules_of_project(
    const std::vector<std::pair<std::string, std::string>>& files) {
  Analyzer analyzer;
  for (const auto& [path, content] : files) analyzer.add_file(path, content);
  std::vector<std::string> rules;
  for (const auto& diagnostic : analyzer.run()) {
    rules.push_back(diagnostic.rule);
  }
  return rules;
}

bool has_ident(const ScanResult& scan, const std::string& name) {
  for (const Token& token : scan.tokens) {
    if (token.kind == TokenKind::kIdentifier && token.text == name) {
      return true;
    }
  }
  return false;
}

TEST(Lint, CleanSourceHasNoFindings) {
  const std::string source = R"cpp(
    #include <cstdint>
    #include <vector>
    namespace pmiot {
    int add(int a, int b) { return a + b; }
    }  // namespace pmiot
  )cpp";
  EXPECT_TRUE(rules_of("src/common/add.cpp", source).empty());
}

TEST(Lint, FlagsRawRand) {
  EXPECT_EQ(rules_of("src/a.cpp", "int x = rand();"),
            std::vector<std::string>{"raw-rand"});
  EXPECT_EQ(rules_of("src/a.cpp", "srand(42);"),
            std::vector<std::string>{"raw-rand"});
  EXPECT_EQ(rules_of("src/a.cpp", "std::random_device rd;"),
            std::vector<std::string>{"raw-rand"});
  // `rand` as part of a longer identifier is not a hit.
  EXPECT_TRUE(rules_of("src/a.cpp", "int operand = 3; grand(operand);")
                  .empty());
  // ...and neither is the word in a comment or a string literal.
  EXPECT_TRUE(rules_of("src/a.cpp", "// call rand() here?\n").empty());
  EXPECT_TRUE(
      rules_of("src/a.cpp", "const char* s = \"rand()\";").empty());
}

TEST(Lint, FlagsWallClock) {
  EXPECT_EQ(rules_of("src/a.cpp", "auto t = time(nullptr);"),
            std::vector<std::string>{"wall-clock"});
  EXPECT_EQ(rules_of("src/a.cpp", "auto t = std::time(NULL);"),
            std::vector<std::string>{"wall-clock"});
  EXPECT_EQ(rules_of("bench/b.cpp",
                     "auto t = std::chrono::system_clock::now();"),
            std::vector<std::string>{"wall-clock"});
  // A named timestamp function of the same suffix is fine.
  EXPECT_TRUE(rules_of("src/a.cpp", "double t = packet_time(3);").empty());
  // time() with a real argument is not the wall-clock pattern.
  EXPECT_TRUE(rules_of("src/a.cpp", "auto t = time(&buffer);").empty());
}

TEST(Lint, FlagsSteadyClockOnlyUnderSrc) {
  const std::string source =
      "auto t0 = std::chrono::steady_clock::now();";
  EXPECT_EQ(rules_of("src/ml/a.cpp", source),
            std::vector<std::string>{"src-timing"});
  // Timing harnesses in bench/ and tests/ are the legitimate home.
  EXPECT_TRUE(rules_of("bench/a.cpp", source).empty());
  EXPECT_TRUE(rules_of("tests/a.cpp", source).empty());
}

TEST(Lint, ObsCarveOutAllowsClocksUnderSrcObsOnly) {
  // src/obs/ owns timer spans that are excluded from the determinism
  // contract, so both timing rules stand down there — and only there.
  const std::string steady = "auto t0 = std::chrono::steady_clock::now();";
  const std::string wall = "auto t = std::chrono::system_clock::now();";
  EXPECT_TRUE(rules_of("src/obs/scoped_timer.h", steady).empty());
  EXPECT_TRUE(rules_of("src/obs/metrics.cpp", wall).empty());
  EXPECT_TRUE(rules_of("src/obs/metrics.cpp", "auto t = time(nullptr);")
                  .empty());

  // The same fixtures still fire everywhere else under src/.
  EXPECT_EQ(rules_of("src/ml/a.cpp", steady),
            std::vector<std::string>{"src-timing"});
  EXPECT_EQ(rules_of("src/net/a.cpp", wall),
            std::vector<std::string>{"wall-clock"});
  EXPECT_EQ(rules_of("src/common/parallel.cpp", wall),
            std::vector<std::string>{"wall-clock"});

  // Only the src/obs/ directory matches — not lookalike prefixes.
  EXPECT_EQ(rules_of("src/observability/a.cpp", steady),
            std::vector<std::string>{"src-timing"});

  // The carve-out is strictly scoped to the timing rules: ambient
  // randomness is still banned in src/obs/.
  EXPECT_EQ(rules_of("src/obs/metrics.cpp", "int x = rand();"),
            std::vector<std::string>{"raw-rand"});
}

TEST(Lint, FlagsUnseededRngInParallelFor) {
  const std::string bad = R"cpp(
    par::parallel_for(0, n, [&](std::size_t i) {
      Rng rng(42);
      out[i] = rng.uniform();
    });
  )cpp";
  EXPECT_EQ(rules_of("src/a.cpp", bad),
            std::vector<std::string>{"par-rng-seed"});

  const std::string shard_seeded = R"cpp(
    par::parallel_for(0, n, [&](std::size_t i) {
      Rng rng(par::shard_seed(base, i));
      out[i] = rng.uniform();
    });
  )cpp";
  EXPECT_TRUE(rules_of("src/a.cpp", shard_seeded).empty());

  // Pre-drawn per-shard seeds (the random_forest pattern) also count.
  const std::string predrawn = R"cpp(
    par::parallel_for(0, n, [&](std::size_t i) {
      Rng rng(seeds[i]);
      out[i] = rng.uniform();
    });
  )cpp";
  EXPECT_TRUE(rules_of("src/a.cpp", predrawn).empty());

  // Outside any parallel region an unseeded-looking Rng is fine.
  EXPECT_TRUE(rules_of("src/a.cpp", "Rng rng(42);").empty());
}

TEST(Lint, FlagsNestedParallelFor) {
  const std::string bad = R"cpp(
    par::parallel_for(0, n, [&](std::size_t i) {
      par::parallel_for(0, m, [&](std::size_t j) { use(i, j); });
    });
  )cpp";
  EXPECT_EQ(rules_of("src/a.cpp", bad),
            std::vector<std::string>{"nested-par"});

  const std::string sequential = R"cpp(
    par::parallel_for(0, n, [&](std::size_t i) { use(i); });
    par::parallel_for(0, m, [&](std::size_t j) { use(j); });
  )cpp";
  EXPECT_TRUE(rules_of("src/a.cpp", sequential).empty());
}

TEST(Lint, FlagsUnorderedIteration) {
  const std::string range_for = R"cpp(
    std::unordered_map<int, double> totals;
    for (const auto& [k, v] : totals) emit(k, v);
  )cpp";
  EXPECT_EQ(rules_of("src/a.cpp", range_for),
            std::vector<std::string>{"unordered-iter"});

  const std::string begin_walk = R"cpp(
    std::unordered_set<int> seen;
    auto it = seen.begin();
  )cpp";
  EXPECT_EQ(rules_of("src/a.cpp", begin_walk),
            std::vector<std::string>{"unordered-iter"});

  // Point lookups and membership tests are exactly what the container is
  // for — only traversal is order-sensitive.
  const std::string lookups = R"cpp(
    std::unordered_map<int, double> totals;
    totals[3] = 1.0;
    if (totals.find(4) != totals.end()) totals.erase(4);
  )cpp";
  EXPECT_TRUE(rules_of("src/a.cpp", lookups).empty());

  // Iterating an ordered container with a similar name is fine.
  const std::string ordered = R"cpp(
    std::map<int, double> totals;
    for (const auto& [k, v] : totals) emit(k, v);
  )cpp";
  EXPECT_TRUE(rules_of("src/a.cpp", ordered).empty());
}

TEST(Lint, FlagsAtomicFloat) {
  EXPECT_EQ(rules_of("src/a.cpp", "std::atomic<double> sum{0.0};"),
            std::vector<std::string>{"atomic-float"});
  EXPECT_EQ(rules_of("src/a.cpp", "std::atomic<float> sum{0.f};"),
            std::vector<std::string>{"atomic-float"});
  EXPECT_TRUE(
      rules_of("src/a.cpp", "std::atomic<std::size_t> hits{0};").empty());
}

TEST(Lint, FlagsMissingIncludeInHeader) {
  const std::string bad = R"cpp(
    #pragma once
    #include <string>
    std::vector<int> numbers();
  )cpp";
  const auto diagnostics = lint_source("src/a.h", bad);
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_EQ(diagnostics[0].rule, "include-hygiene");
  EXPECT_NE(diagnostics[0].message.find("<vector>"), std::string::npos);

  const std::string good = R"cpp(
    #pragma once
    #include <string>
    #include <vector>
    std::vector<std::string> names();
  )cpp";
  EXPECT_TRUE(rules_of("src/a.h", good).empty());

  // Implementation files may lean on their headers' includes.
  EXPECT_TRUE(rules_of("src/a.cpp", bad).empty());
}

TEST(Lint, FlagsUnguardedSimd) {
  EXPECT_EQ(rules_of("src/a.cpp", "#include <immintrin.h>\n"),
            std::vector<std::string>{"simd-guard"});
  EXPECT_EQ(rules_of("src/a.cpp", "auto v = _mm256_setzero_pd();"),
            std::vector<std::string>{"simd-guard"});
  EXPECT_EQ(rules_of("src/a.cpp", "__m128d lanes;"),
            std::vector<std::string>{"simd-guard"});
  EXPECT_EQ(rules_of("src/a.cpp", "#pragma omp simd\n"),
            std::vector<std::string>{"simd-guard"});
  EXPECT_EQ(rules_of("src/a.cpp", "#pragma GCC ivdep\n"),
            std::vector<std::string>{"simd-guard"});
  // Intrinsic names in comments or strings are not code.
  EXPECT_TRUE(rules_of("src/a.cpp", "// prefer _mm256_fmadd_pd here\n")
                  .empty());
  EXPECT_TRUE(
      rules_of("src/a.cpp", "const char* s = \"_mm256_add_pd\";").empty());
}

TEST(Lint, SimdGuardedRegionsAreAllowed) {
  // The shape src/simd/simd.cpp uses: an outer option check defining a
  // derived symbol, then regions behind the derived symbol.
  const std::string source = R"cpp(
#if defined(PMIOT_SIMD) && defined(__x86_64__)
#define PMIOT_SIMD_AVX2 1
#endif
#ifdef PMIOT_SIMD_AVX2
#include <immintrin.h>
__m256d load(const double* p) { return _mm256_loadu_pd(p); }
#endif
)cpp";
  EXPECT_TRUE(rules_of("src/simd/x.cpp", source).empty());
}

TEST(Lint, SimdGuardElseBranchIsNotGuarded) {
  // The #else of a PMIOT_SIMD conditional is the scalar side; intrinsics
  // there defeat the point of the guard.
  const std::string else_side =
      "#ifdef PMIOT_SIMD\n"
      "int a;\n"
      "#else\n"
      "auto v = _mm256_setzero_pd();\n"
      "#endif\n";
  EXPECT_EQ(rules_of("src/a.cpp", else_side),
            std::vector<std::string>{"simd-guard"});
  // #ifndef inverts: the else branch is the guarded one.
  const std::string ifndef_else =
      "#ifndef PMIOT_SIMD\n"
      "int a;\n"
      "#else\n"
      "auto v = _mm256_setzero_pd();\n"
      "#endif\n";
  EXPECT_TRUE(rules_of("src/a.cpp", ifndef_else).empty());
  // An unrelated guard does not count.
  const std::string wrong_guard =
      "#ifdef SOME_OTHER_FLAG\n"
      "auto v = _mm256_setzero_pd();\n"
      "#endif\n";
  EXPECT_EQ(rules_of("src/a.cpp", wrong_guard),
            std::vector<std::string>{"simd-guard"});
}

TEST(Lint, SimdGuardSuppressibleWithAllow) {
  const std::string source =
      "auto v = _mm256_setzero_pd();  // pmiot-lint" ": allow(simd-guard)\n";
  EXPECT_TRUE(rules_of("src/a.cpp", source).empty());
}

TEST(Lint, DiagnosticCarriesFileLineAndCompilerShape) {
  const auto diagnostics =
      lint_source("src/x.cpp", "int a;\nint b = rand();\n");
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_EQ(diagnostics[0].file, "src/x.cpp");
  EXPECT_EQ(diagnostics[0].line, 2u);
  const std::string text = pmiot::lint::to_string(diagnostics[0]);
  EXPECT_EQ(text.rfind("src/x.cpp:2: error: [raw-rand]", 0), 0u);
}

// --- suppression handling (satellite: suppressed passes, unsuppressed
// fails, stale suppression is itself reported) ---

TEST(Lint, SameLineSuppressionSilencesViolation) {
  const std::string source =
      "int x = rand();  // justified: legacy fixture. "
      "pmiot-lint" ": allow(raw-rand)\n";
  EXPECT_TRUE(rules_of("src/a.cpp", source).empty());
}

TEST(Lint, PrecedingCommentLineSuppressionSilencesViolation) {
  const std::string source =
      "// seed folded into fixture data. pmiot-lint" ": allow(raw-rand)\n"
      "int x = rand();\n";
  EXPECT_TRUE(rules_of("src/a.cpp", source).empty());
}

TEST(Lint, SuppressionIsRuleSpecific) {
  // An allow for a different rule does not silence the violation, and the
  // unused grant is reported as stale: two findings total.
  const std::string source =
      "int x = rand();  // pmiot-lint" ": allow(wall-clock)\n";
  const auto rules = rules_of("src/a.cpp", source);
  ASSERT_EQ(rules.size(), 2u);
  EXPECT_EQ(rules[0], "raw-rand");
  EXPECT_EQ(rules[1], "stale-suppression");
}

TEST(Lint, StaleSuppressionIsReported) {
  const std::string source =
      "int x = 3;  // pmiot-lint" ": allow(raw-rand)\n";
  const auto diagnostics = lint_source("src/a.cpp", source);
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_EQ(diagnostics[0].rule, "stale-suppression");
  EXPECT_EQ(diagnostics[0].line, 1u);
}

TEST(Lint, MultiRuleAllowSuppressesBothAndStalenessIsPerRule) {
  const std::string both =
      "auto t = time(nullptr) + rand();  "
      "// pmiot-lint" ": allow(raw-rand, wall-clock)\n";
  EXPECT_TRUE(rules_of("src/a.cpp", both).empty());

  const std::string half =
      "int x = rand();  // pmiot-lint" ": allow(raw-rand, wall-clock)\n";
  EXPECT_EQ(rules_of("src/a.cpp", half),
            std::vector<std::string>{"stale-suppression"});
}

TEST(Lint, UnknownRuleInAllowIsReported) {
  const std::string source =
      "int x = 3;  // pmiot-lint" ": allow(no-such-rule)\n";
  const auto diagnostics = lint_source("src/a.cpp", source);
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_EQ(diagnostics[0].rule, "unknown-rule");
}

TEST(Lint, EveryRuleHasADescription) {
  for (const auto& rule : pmiot::lint::rule_names()) {
    EXPECT_FALSE(pmiot::lint::describe_rule(rule).empty()) << rule;
  }
  EXPECT_TRUE(pmiot::lint::describe_rule("no-such-rule").empty());
}

// --- token scanner corner cases (PR 9 tentpole; each case pinned here is
// listed in token.h) ---

TEST(Lint, ScanBlanksMultiLineBlockComments) {
  const auto scan = scan_text(
      "int a;\n"
      "/* rand()\n"
      "   time(nullptr)\n"
      "*/\n"
      "int b;\n");
  EXPECT_TRUE(has_ident(scan, "a"));
  EXPECT_TRUE(has_ident(scan, "b"));
  EXPECT_FALSE(has_ident(scan, "rand"));
  EXPECT_FALSE(has_ident(scan, "time"));
  // The comment text stays addressable per line for directive parsing.
  EXPECT_NE(scan.comments[1].find("rand"), std::string::npos);
}

TEST(Lint, ScanSlashStarSlashDoesNotTerminateABlockComment) {
  // "/*/" is an *opening* delimiter plus one comment character; the old
  // close detector saw "*/" in it and dropped back to code too early.
  const auto scan = scan_text("/*/ rand() */ int x;\n");
  EXPECT_FALSE(has_ident(scan, "rand"));
  EXPECT_TRUE(has_ident(scan, "x"));
}

TEST(Lint, ScanBlanksRawStringsIncludingPrefixesAndDelimiters) {
  const auto scan = scan_text(
      "auto a = R\"(rand() inside)\";\n"
      "auto b = u8R\"(time(nullptr))\";\n"
      "auto c = LR\"x(srand(1) with )\" decoy)x\";\n"
      "int after;\n");
  EXPECT_FALSE(has_ident(scan, "rand"));
  EXPECT_FALSE(has_ident(scan, "time"));
  EXPECT_FALSE(has_ident(scan, "srand"));
  EXPECT_FALSE(has_ident(scan, "inside"));
  EXPECT_FALSE(has_ident(scan, "decoy"));  // `)"` != the )x" closer
  EXPECT_TRUE(has_ident(scan, "after"));
}

TEST(Lint, ScanEscapedQuotesDoNotEndStringLiterals) {
  const auto scan =
      scan_text("const char* s = \"say \\\"rand()\\\" now\"; int z;\n");
  EXPECT_FALSE(has_ident(scan, "rand"));
  EXPECT_FALSE(has_ident(scan, "now"));
  EXPECT_TRUE(has_ident(scan, "z"));
}

TEST(Lint, ScanDigitSeparatorsAreNotCharLiterals) {
  // 1'000'000 must not open a char literal — the old scanner's confusion
  // here let trailing comment text re-enter the code channel.
  const auto scan = scan_text(
      "int n = 1'000'000;  // then rand() maybe\n"
      "int m = 2;\n");
  EXPECT_TRUE(has_ident(scan, "n"));
  EXPECT_TRUE(has_ident(scan, "m"));
  EXPECT_FALSE(has_ident(scan, "rand"));
  EXPECT_NE(scan.comments[0].find("rand"), std::string::npos);
}

TEST(Lint, ScanBackslashContinuationExtendsLineComments) {
  // Phase-2 splicing joins the next physical line into the comment.
  const auto scan = scan_text(
      "// this comment continues \\\n"
      "int hidden = rand();\n"
      "int shown = 1;\n");
  EXPECT_FALSE(has_ident(scan, "hidden"));
  EXPECT_FALSE(has_ident(scan, "rand"));
  EXPECT_TRUE(has_ident(scan, "shown"));
}

TEST(Lint, ScanDirectiveContinuationsStayDirectives) {
  const auto scan = scan_text(
      "#define HELPER(x) \\\n"
      "  rand()\n"
      "int live = 1;\n");
  EXPECT_FALSE(has_ident(scan, "rand"));  // directive lines yield no tokens
  EXPECT_TRUE(has_ident(scan, "live"));
  ASSERT_GE(scan.directive_lines.size(), 2u);
  EXPECT_TRUE(scan.directive_lines[0]);
  EXPECT_TRUE(scan.directive_lines[1]);  // the continuation line
  EXPECT_TRUE(scan.line_has_code(1));    // directives anchor allow() lines
}

TEST(Lint, ScanIfZeroRegionsAreInvisible) {
  const auto scan = scan_text(
      "#if 0\n"
      "int dead = rand();\n"
      "#else\n"
      "int alive = 1;\n"
      "#endif\n"
      "#if false\n"
      "int also_dead = srand(7);\n"
      "#endif\n");
  EXPECT_FALSE(has_ident(scan, "dead"));
  EXPECT_FALSE(has_ident(scan, "rand"));
  EXPECT_FALSE(has_ident(scan, "also_dead"));
  EXPECT_TRUE(has_ident(scan, "alive"));
}

TEST(Lint, AllowGrantsInsideDisabledRegionsDoNotApply) {
  // Comments in `#if 0` are dropped with the code they excuse; the live
  // violation below the region must still fire.
  const std::string source =
      "#if 0\n"
      "// pmiot-lint" ": allow(raw-rand)\n"
      "#endif\n"
      "int x = rand();\n";
  EXPECT_EQ(rules_of("src/a.cpp", source),
            std::vector<std::string>{"raw-rand"});
}

// --- scanner corner cases: comment and disabled text that looks like code ---

TEST(Lint, TokenScannerFixesLegacyFalsePositives) {
  // A digit separator is not a char literal, so the apostrophe in the
  // comment after it must not resurface the comment as code.
  const std::string contraction =
      "int n = 1'000;  // don't call rand() in here\n";
  EXPECT_TRUE(rules_of("src/a.cpp", contraction).empty());

  // `#if 0` regions are not code.
  const std::string disabled =
      "#if 0\n"
      "int dead = rand();\n"
      "#endif\n";
  EXPECT_TRUE(rules_of("src/a.cpp", disabled).empty());

  // A line comment ending in a backslash splices into the next physical
  // line, which is therefore still comment.
  const std::string continued =
      "// see the fallback below \\\n"
      "int unused_fallback = rand();\n";
  EXPECT_TRUE(rules_of("src/a.cpp", continued).empty());
}

// --- symbol index: functions, annotations, includes ---

TEST(Lint, IndexAnnotationAttachesToStructTag) {
  const auto index = index_file("src/a.h",
                                "#include <vector>\n"
                                "// pmiot: sensitive — per-home memoir\n"
                                "struct Memoir {\n"
                                "  std::vector<double> kw;\n"
                                "};\n");
  EXPECT_EQ(index.sensitive_names, std::vector<std::string>{"Memoir"});
  EXPECT_TRUE(index.annotation_errors.empty());
}

TEST(Lint, IndexAnnotationAttachesToTrailingField) {
  const auto index =
      index_file("src/a.h",
                 "#include <vector>\n"
                 "struct House {\n"
                 "  std::vector<int> occupants;  ///< truth; pmiot: sensitive\n"
                 "};\n");
  EXPECT_EQ(index.sensitive_names, std::vector<std::string>{"occupants"});
}

TEST(Lint, IndexNoAllocMarkerReachesMultiLineSignatures) {
  const auto index = index_file("src/a.cpp",
                                "// pmiot: no-alloc\n"
                                "void\n"
                                "hot_merge(int a,\n"
                                "          int b) { use(a, b); }\n");
  ASSERT_EQ(index.functions.size(), 1u);
  EXPECT_EQ(index.functions[0].name, "hot_merge");
  EXPECT_TRUE(index.functions[0].no_alloc);
}

TEST(Lint, IndexQualifiedPmiotNamesInProseAreNotAnnotations) {
  const auto index = index_file(
      "src/a.cpp",
      "// pmiot::par owns sharding; see also pmiot: (nothing).\n"
      "int x = 1;\n");
  EXPECT_TRUE(index.annotations.empty());
  EXPECT_TRUE(index.annotation_errors.empty());
}

TEST(Lint, IndexCollectsQuotedProjectIncludesInOrder) {
  const auto index = index_file("src/a.cpp",
                                "#include \"timeseries/timeseries.h\"\n"
                                "#include <vector>\n"
                                "#include \"common/check.h\"\n"
                                "int x = 1;\n");
  const std::vector<std::string> expected = {"timeseries/timeseries.h",
                                             "common/check.h"};
  EXPECT_EQ(index.includes, expected);
}

// --- par-rng-seed: the one-level helper hop ---

TEST(Lint, ParRngSeedFollowsSeedsThroughOneHelperCall) {
  const std::string use =
      "void fill(std::vector<double>& out, std::uint64_t base) {\n"
      "  par::parallel_for(0, out.size(), [&](std::size_t i) {\n"
      "    Rng rng(stream_for(base, i));\n"
      "    out[i] = rng.uniform();\n"
      "  });\n"
      "}\n";
  // The helper's body mentions a seed, so the hop is satisfied.
  const std::string seeded_helper =
      "std::uint64_t stream_for(std::uint64_t base_seed, std::size_t i) {\n"
      "  return mix(base_seed, i);\n"
      "}\n";
  EXPECT_TRUE(rules_of_project(
                  {{"src/h.cpp", seeded_helper}, {"src/u.cpp", use}})
                  .empty());

  // A helper that never mentions a seed does not launder the violation.
  const std::string unseeded_helper =
      "std::uint64_t stream_for(std::uint64_t base, std::size_t i) {\n"
      "  return base + i;\n"
      "}\n";
  EXPECT_EQ(rules_of_project(
                {{"src/h.cpp", unseeded_helper}, {"src/u.cpp", use}}),
            std::vector<std::string>{"par-rng-seed"});
}

// --- privacy-flow: annotated taint, built-ins, custody handoffs ---

TEST(Lint, PrivacyFlowFlagsAnnotatedTaintReachingASink) {
  const std::string header =
      "#include <vector>\n"
      "// pmiot: sensitive — per-home memoir\n"
      "struct Memoir {\n"
      "  std::vector<double> kw;\n"
      "};\n";
  const std::string writer =
      "void export_memoir(const Memoir& m, const std::string& path) {\n"
      "  std::ofstream os(path);\n"
      "  os << m.kw.size();\n"
      "}\n";
  const auto rules = rules_of_project(
      {{"src/synth/memoir.h", header}, {"src/io/export.cpp", writer}});
  EXPECT_EQ(rules, std::vector<std::string>{"privacy-flow"});

  // The same writer outside src/ is a tool, not library code.
  EXPECT_TRUE(rules_of_project({{"src/synth/memoir.h", header},
                                {"tools/export.cpp", writer}})
                  .empty());
}

TEST(Lint, PrivacyFlowPropagatesThroughTheCallGraph) {
  const std::string header =
      "#include <vector>\n"
      "// pmiot: sensitive\n"
      "struct Memoir {\n"
      "  std::vector<double> kw;\n"
      "};\n";
  // `publish` never writes itself; it reaches the sink through dump_rows.
  const std::string caller =
      "void publish(const Memoir& m) { dump_rows(m.kw); }\n";
  const std::string callee =
      "void dump_rows(const std::vector<double>& rows) {\n"
      "  std::ofstream os(\"rows.txt\");\n"
      "  os << rows.size();\n"
      "}\n";
  const auto diagnostics = [&] {
    Analyzer analyzer;
    analyzer.add_file("src/synth/memoir.h", header);
    analyzer.add_file("src/core/publish.cpp", caller);
    analyzer.add_file("src/io/dump.cpp", callee);
    return analyzer.run();
  }();
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_EQ(diagnostics[0].rule, "privacy-flow");
  // Anchored at the tainted function, not the helper that merely writes.
  EXPECT_EQ(diagnostics[0].file, "src/core/publish.cpp");
}

TEST(Lint, PrivacyFlowStopsAtSanctionedCustodyHandoffs) {
  const std::string header =
      "#include <vector>\n"
      "// pmiot: sensitive\n"
      "struct Memoir {\n"
      "  std::vector<double> kw;\n"
      "};\n";
  const std::string caller =
      "void release(const Memoir& m) { defend_and_write(m); }\n";
  const std::string defense =
      "// pmiot: egress — the defended view leaves through here\n"
      "void defend_and_write(const Memoir& m) {\n"
      "  std::ofstream os(\"out.txt\");\n"
      "  os << m.kw.size();\n"
      "}\n";
  EXPECT_TRUE(rules_of_project({{"src/synth/memoir.h", header},
                                {"src/core/release.cpp", caller},
                                {"src/defense/writer.cpp", defense}})
                  .empty());
}

TEST(Lint, SanctionedModulesMustMarkDirectEgress) {
  const std::string unmarked =
      "void persist(std::span<const double> payload, std::FILE* f) {\n"
      "  std::fwrite(payload.data(), 8, payload.size(), f);\n"
      "}\n";
  const auto diagnostics =
      lint_source("src/campaign/writer.cpp", unmarked);
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_EQ(diagnostics[0].rule, "privacy-flow");
  EXPECT_NE(diagnostics[0].message.find("custody"), std::string::npos);

  const std::string marked =
      "// pmiot: egress — checkpoint custody boundary\n" + unmarked;
  EXPECT_TRUE(rules_of("src/campaign/writer.cpp", marked).empty());
}

TEST(Lint, EgressOutsideSanctionedModulesIsABadAnnotation) {
  const std::string source =
      "// pmiot: egress — wishful thinking\n"
      "void send_all(int x) { use(x); }\n";
  EXPECT_EQ(rules_of("src/net/leak.cpp", source),
            std::vector<std::string>{"bad-annotation"});
}

TEST(Lint, PrivacyFlowBuiltinsNeedNoAnnotation) {
  // Anything named *occupancy* is born sensitive.
  const std::string occ =
      "void log_occupancy(const std::vector<int>& occupancy_minutes) {\n"
      "  std::ofstream os(\"occ.txt\");\n"
      "  os << occupancy_minutes.size();\n"
      "}\n";
  EXPECT_EQ(rules_of("src/niom/log.cpp", occ),
            std::vector<std::string>{"privacy-flow"});

  // The payload built-in is an exact-identifier match, not a substring.
  const std::string near_miss =
      "void note_width(std::size_t payload_doubles) {\n"
      "  std::ofstream os(\"w.txt\");\n"
      "  os << payload_doubles;\n"
      "}\n";
  EXPECT_TRUE(rules_of("src/io/width.cpp", near_miss).empty());
}

TEST(Lint, PrivacyFlowHonoursJustifiedAllows) {
  const std::string source =
      "void save_occupancy(const std::vector<int>& occupancy) {\n"
      "  // local ground-truth archive, not a release channel.\n"
      "  // pmiot-lint" ": allow(privacy-flow)\n"
      "  std::ofstream os(\"occ.txt\");\n"
      "  os << occupancy.size();\n"
      "}\n";
  EXPECT_TRUE(rules_of("src/synth/save.cpp", source).empty());
}

// --- check-coverage: parser entry points must validate ---

TEST(Lint, CheckCoverageFlagsUncheckedParserEntryPoints) {
  const std::string unchecked =
      "int parse_frame(const unsigned char* p, std::size_t n) {\n"
      "  return p[0] + static_cast<int>(n);\n"
      "}\n";
  EXPECT_EQ(rules_of("src/net/frame.cpp", unchecked),
            std::vector<std::string>{"check-coverage"});

  const std::string checked =
      "int parse_frame(const unsigned char* p, std::size_t n) {\n"
      "  PMIOT_CHECK(n >= 4, \"frame too short\");\n"
      "  return p[0] + static_cast<int>(n);\n"
      "}\n";
  EXPECT_TRUE(rules_of("src/net/frame.cpp", checked).empty());
}

TEST(Lint, CheckCoverageAcceptsValidationInADirectHelper) {
  const std::string parser =
      "int parse_frame(const unsigned char* p, std::size_t n) {\n"
      "  validate_frame(p, n);\n"
      "  return p[0];\n"
      "}\n";
  const std::string helper =
      "void validate_frame(const unsigned char* p, std::size_t n) {\n"
      "  PMIOT_CHECK(p != nullptr && n >= 4, \"bad frame\");\n"
      "}\n";
  EXPECT_TRUE(rules_of_project({{"src/net/frame.cpp", parser},
                                {"src/net/validate.cpp", helper}})
                  .empty());
}

TEST(Lint, CheckCoverageScopesToRealEntryPoints) {
  // No parameters: nothing external to validate.
  EXPECT_TRUE(
      rules_of("src/a.cpp", "int load_defaults() { return 3; }\n").empty());
  // Outside src/ the rule stands down (test fixtures parse junk on
  // purpose).
  const std::string unchecked =
      "int parse_frame(const unsigned char* p, std::size_t n) {\n"
      "  return p[0] + static_cast<int>(n);\n"
      "}\n";
  EXPECT_TRUE(rules_of("tests/frame_test.cpp", unchecked).empty());
}

// --- no-alloc: annotated functions must not reach the heap ---

TEST(Lint, NoAllocFlagsDirectAllocations) {
  const std::string source =
      "// pmiot: no-alloc\n"
      "void hot(Buf& b) { b.p = new double[4]; }\n";
  EXPECT_EQ(rules_of("src/a.cpp", source),
            std::vector<std::string>{"no-alloc"});
}

TEST(Lint, NoAllocFlagsAllocationsThroughCallees) {
  const std::string hot =
      "// pmiot: no-alloc\n"
      "void hot_path(Buf& b) { grow(b); }\n";
  const std::string helper =
      "void grow(Buf& b) { b.p = new double[8]; }\n";
  const auto diagnostics = [&] {
    Analyzer analyzer;
    analyzer.add_file("src/hot.cpp", hot);
    analyzer.add_file("src/grow.cpp", helper);
    return analyzer.run();
  }();
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_EQ(diagnostics[0].rule, "no-alloc");
  EXPECT_EQ(diagnostics[0].file, "src/hot.cpp");
}

TEST(Lint, NoAllocIgnoresUnannotatedFunctionsAndArenaGrowth) {
  // `new` in an unannotated function is ordinary C++.
  EXPECT_TRUE(
      rules_of("src/a.cpp", "void f(Buf& b) { b.p = new double[4]; }\n")
          .empty());
  // Container growth is the runtime self-checks' half of the contract.
  const std::string growth =
      "// pmiot: no-alloc\n"
      "void hot(std::vector<double>& v) { v.push_back(1.0); }\n";
  EXPECT_TRUE(rules_of("src/a.cpp", growth).empty());
}

// --- bad-annotation: the grammar polices itself ---

TEST(Lint, UnknownAnnotationKindIsReported) {
  const std::string source =
      "// pmiot: frobnicate — not a thing\n"
      "int x = 1;\n";
  EXPECT_EQ(rules_of("src/a.cpp", source),
            std::vector<std::string>{"bad-annotation"});
}

TEST(Lint, DanglingAnnotationIsReported) {
  const std::string source =
      "int f() { return 1; }\n"
      "// pmiot: sensitive\n";
  EXPECT_EQ(rules_of("src/a.cpp", source),
            std::vector<std::string>{"bad-annotation"});
}

// --- report writers: JSON, SARIF, baseline ---

TEST(Lint, ReportJsonCarriesFindingsAndEscapes) {
  const std::vector<Diagnostic> diags = {
      {"src/a.cpp", 3, "raw-rand", "say \"no\" to rand"}};
  const std::string json = pmiot::lint::to_json(diags);
  EXPECT_NE(json.find("\"tool\": \"pmiot_lint\""), std::string::npos);
  EXPECT_NE(json.find("\"file\": \"src/a.cpp\""), std::string::npos);
  EXPECT_NE(json.find("\"line\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"rule\": \"raw-rand\""), std::string::npos);
  EXPECT_NE(json.find("say \\\"no\\\" to rand"), std::string::npos);
}

TEST(Lint, ReportSarifCarriesRulesAndResults) {
  const std::vector<Diagnostic> diags = {
      {"src/a.cpp", 7, "privacy-flow", "leak"}};
  const std::string sarif = pmiot::lint::to_sarif(diags);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"privacy-flow\""), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 7"), std::string::npos);
  // Every rule the analyzer knows is declared in the driver block.
  for (const auto& rule : pmiot::lint::rule_names()) {
    EXPECT_NE(sarif.find("\"id\": \"" + rule + "\""), std::string::npos)
        << rule;
  }
}

TEST(Lint, ReportBaselineRoundTrips) {
  const Diagnostic d{"src/a.cpp", 3, "raw-rand", "msg"};
  EXPECT_EQ(pmiot::lint::baseline_key(d), "raw-rand src/a.cpp");
  const auto keys = pmiot::lint::parse_baseline(
      "# comment\n\n  raw-rand src/a.cpp  \nprivacy-flow src/b.cpp\n");
  EXPECT_EQ(keys.size(), 2u);
  EXPECT_TRUE(keys.count("raw-rand src/a.cpp"));
  EXPECT_TRUE(keys.count("privacy-flow src/b.cpp"));
}

}  // namespace
