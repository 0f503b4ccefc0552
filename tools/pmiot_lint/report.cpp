#include "pmiot_lint/report.h"

#include "common/json.h"

namespace pmiot::lint {

std::string to_json(const std::vector<Diagnostic>& diags) {
  std::string out = "{\n  \"tool\": \"pmiot_lint\",\n  \"findings\": [";
  for (std::size_t i = 0; i < diags.size(); ++i) {
    const Diagnostic& d = diags[i];
    out += (i == 0) ? "\n" : ",\n";
    out += "    {\"file\": \"" + json_escape(d.file) +
           "\", \"line\": " + std::to_string(d.line) + ", \"rule\": \"" +
           json_escape(d.rule) + "\", \"message\": \"" +
           json_escape(d.message) + "\"}";
  }
  out += diags.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

std::string to_sarif(const std::vector<Diagnostic>& diags) {
  std::string out =
      "{\n"
      "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n"
      "  \"version\": \"2.1.0\",\n"
      "  \"runs\": [{\n"
      "    \"tool\": {\"driver\": {\"name\": \"pmiot_lint\", \"rules\": [";
  const std::vector<std::string> rules = rule_names();
  for (std::size_t i = 0; i < rules.size(); ++i) {
    out += (i == 0) ? "\n" : ",\n";
    out += "      {\"id\": \"" + json_escape(rules[i]) +
           "\", \"shortDescription\": {\"text\": \"" +
           json_escape(describe_rule(rules[i])) + "\"}}";
  }
  out += rules.empty() ? "]}},\n" : "\n    ]}},\n";
  out += "    \"results\": [";
  for (std::size_t i = 0; i < diags.size(); ++i) {
    const Diagnostic& d = diags[i];
    out += (i == 0) ? "\n" : ",\n";
    out += "      {\"ruleId\": \"" + json_escape(d.rule) +
           "\", \"level\": \"error\", \"message\": {\"text\": \"" +
           json_escape(d.message) +
           "\"}, \"locations\": [{\"physicalLocation\": "
           "{\"artifactLocation\": {\"uri\": \"" +
           json_escape(d.file) + "\"}, \"region\": {\"startLine\": " +
           std::to_string(d.line) + "}}}]}";
  }
  out += diags.empty() ? "]\n" : "\n    ]\n";
  out += "  }]\n}\n";
  return out;
}

std::string baseline_key(const Diagnostic& d) { return d.rule + " " + d.file; }

std::set<std::string> parse_baseline(const std::string& text) {
  std::set<std::string> out;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    std::string line = text.substr(pos, end - pos);
    const std::size_t lo = line.find_first_not_of(" \t\r");
    if (lo != std::string::npos && line[lo] != '#') {
      const std::size_t hi = line.find_last_not_of(" \t\r");
      out.insert(line.substr(lo, hi - lo + 1));
    }
    if (end == text.size()) break;
    pos = end + 1;
  }
  return out;
}

}  // namespace pmiot::lint
