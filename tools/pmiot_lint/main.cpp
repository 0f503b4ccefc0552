// pmiot_lint CLI: lints files or directory trees and exits nonzero on any
// non-baselined finding. Registered as the `pmiot_lint.tree` ctest over
// src/ bench/ tests/ tools/, so determinism and privacy-custody violations
// fail the build.
//
//   pmiot_lint [--root DIR] [--list-rules]
//              [--format text|json|sarif] [--output FILE]
//              [--baseline FILE] [--only-listed FILE] [paths...]
//
// Paths are files or directories, relative to --root (default: the current
// directory). With no paths, lints src bench tests tools.
//
// The whole tree is always scanned and indexed (the privacy-flow,
// check-coverage, and no-alloc rules need the cross-TU call graph);
// `--only-listed FILE` then restricts *reporting* to the files named in
// FILE (one repo-relative path per line) — the diff-aware CI mode driven
// by scripts/lint-diff.sh. `--baseline FILE` waives findings whose
// `rule file` pair appears in FILE (see report.h for the format); waived
// findings are printed as `baseline:` lines and do not affect the exit
// code.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "pmiot_lint/lint.h"
#include "pmiot_lint/report.h"

namespace fs = std::filesystem;

namespace {

bool lintable(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".h" || ext == ".cpp" || ext == ".cc" || ext == ".hpp";
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// One repo-relative path per line; blank lines and `#` comments ignored.
std::set<std::string> read_path_list(const std::string& text) {
  std::set<std::string> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t lo = line.find_first_not_of(" \t\r");
    if (lo == std::string::npos || line[lo] == '#') continue;
    const std::size_t hi = line.find_last_not_of(" \t\r");
    out.insert(line.substr(lo, hi - lo + 1));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = ".";
  std::string format = "text";
  std::string output_path;
  std::string baseline_path;
  std::string only_listed_path;
  std::vector<std::string> targets;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--format" && i + 1 < argc) {
      format = argv[++i];
      if (format != "text" && format != "json" && format != "sarif") {
        std::cerr << "pmiot_lint: unknown --format " << format
                  << " (expected text, json, or sarif)\n";
        return 2;
      }
    } else if (arg == "--output" && i + 1 < argc) {
      output_path = argv[++i];
    } else if (arg == "--baseline" && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (arg == "--only-listed" && i + 1 < argc) {
      only_listed_path = argv[++i];
    } else if (arg == "--list-rules") {
      for (const auto& rule : pmiot::lint::rule_names()) {
        std::cout << rule << "\n    " << pmiot::lint::describe_rule(rule)
                  << "\n";
      }
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: pmiot_lint [--root DIR] [--list-rules] "
                   "[--format text|json|sarif] [--output FILE] "
                   "[--baseline FILE] [--only-listed FILE] [paths...]\n";
      return 0;
    } else {
      targets.push_back(arg);
    }
  }
  if (targets.empty()) {
    targets = {"src", "reference", "bench", "tests", "tools"};
  }

  std::set<std::string> baseline;
  if (!baseline_path.empty()) {
    std::error_code ec;
    if (!fs::is_regular_file(baseline_path, ec)) {
      std::cerr << "pmiot_lint: cannot read baseline " << baseline_path
                << "\n";
      return 2;
    }
    baseline = pmiot::lint::parse_baseline(read_file(baseline_path));
  }
  std::set<std::string> only_listed;
  bool restrict_reporting = false;
  if (!only_listed_path.empty()) {
    std::error_code ec;
    if (!fs::is_regular_file(only_listed_path, ec)) {
      std::cerr << "pmiot_lint: cannot read file list " << only_listed_path
                << "\n";
      return 2;
    }
    only_listed = read_path_list(read_file(only_listed_path));
    restrict_reporting = true;
  }

  // Expand directories; sort for output (and exit code) determinism.
  std::vector<fs::path> files;
  for (const auto& target : targets) {
    const fs::path full = root / target;
    std::error_code ec;
    if (fs::is_directory(full, ec)) {
      for (fs::recursive_directory_iterator it(full, ec), end;
           it != end && !ec; it.increment(ec)) {
        if (it->is_regular_file() && lintable(it->path())) {
          files.push_back(it->path());
        }
      }
    } else if (fs::is_regular_file(full, ec) && lintable(full)) {
      files.push_back(full);
    } else {
      std::cerr << "pmiot_lint: cannot read " << full << "\n";
      return 2;
    }
  }
  std::sort(files.begin(), files.end());

  // Feed the whole tree into one Analyzer run: project rules need the
  // cross-TU index even when reporting is restricted to a subset.
  pmiot::lint::Analyzer analyzer;
  for (const auto& file : files) {
    const std::string label = fs::relative(file, root).generic_string();
    analyzer.add_file(label, read_file(file));
  }
  const std::vector<pmiot::lint::Diagnostic> all = analyzer.run();

  std::vector<pmiot::lint::Diagnostic> reported;
  std::vector<pmiot::lint::Diagnostic> waived;
  for (const auto& diagnostic : all) {
    if (restrict_reporting && only_listed.count(diagnostic.file) == 0) {
      continue;
    }
    if (baseline.count(pmiot::lint::baseline_key(diagnostic)) != 0) {
      waived.push_back(diagnostic);
    } else {
      reported.push_back(diagnostic);
    }
  }

  if (format == "text") {
    std::ostream* out = &std::cout;
    std::ofstream file_out;
    if (!output_path.empty()) {
      file_out.open(output_path);
      if (!file_out) {
        std::cerr << "pmiot_lint: cannot write " << output_path << "\n";
        return 2;
      }
      out = &file_out;
    }
    for (const auto& diagnostic : reported) {
      *out << pmiot::lint::to_string(diagnostic) << "\n";
    }
    for (const auto& diagnostic : waived) {
      *out << "baseline: " << pmiot::lint::to_string(diagnostic) << "\n";
    }
  } else {
    const std::string report = format == "json"
                                   ? pmiot::lint::to_json(reported)
                                   : pmiot::lint::to_sarif(reported);
    if (output_path.empty()) {
      std::cout << report;
    } else {
      std::ofstream file_out(output_path);
      if (!file_out) {
        std::cerr << "pmiot_lint: cannot write " << output_path << "\n";
        return 2;
      }
      file_out << report;
      // Keep the human-readable findings on stdout so CI logs stay useful
      // even when the artifact goes to a file.
      for (const auto& diagnostic : reported) {
        std::cout << pmiot::lint::to_string(diagnostic) << "\n";
      }
    }
  }
  std::cout << "pmiot_lint: " << files.size() << " files, "
            << reported.size()
            << (reported.size() == 1 ? " finding" : " findings");
  if (!waived.empty()) std::cout << " (+" << waived.size() << " baselined)";
  if (restrict_reporting) {
    std::cout << " [reporting restricted to " << only_listed.size()
              << " listed files]";
  }
  std::cout << "\n";
  return reported.empty() ? 0 : 1;
}
