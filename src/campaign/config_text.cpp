#include "campaign/config_text.h"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/error.h"

namespace pmiot::campaign::text {

namespace {

std::string trim(const std::string& s) {
  std::size_t lo = s.find_first_not_of(" \t\r");
  if (lo == std::string::npos) return "";
  std::size_t hi = s.find_last_not_of(" \t\r");
  return s.substr(lo, hi - lo + 1);
}

}  // namespace

std::string fmt_double(double v) {
  char buf[40];
  for (int prec = 1; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) return buf;
  }
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string join(const std::vector<std::string>& items) {
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i) out += ", ";
    out += items[i];
  }
  return out;
}

std::string join(const std::vector<double>& items) {
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i) out += ", ";
    out += fmt_double(items[i]);
  }
  return out;
}

void for_each_entry(
    const std::string& text, const std::string& what,
    const std::function<void(const std::string& key, const std::string& value)>&
        on_entry) {
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    const std::size_t hash_pos = line.find('#');
    if (hash_pos != std::string::npos) line.resize(hash_pos);
    line = trim(line);
    if (line.empty()) continue;
    const std::size_t eq = line.find('=');
    PMIOT_CHECK(eq != std::string::npos,
                what + " line is not 'key = value': " + line);
    on_entry(trim(line.substr(0, eq)), trim(line.substr(eq + 1)));
  }
}

std::vector<std::string> split_list(const std::string& value,
                                    const std::string& what) {
  std::vector<std::string> out;
  std::string item;
  std::istringstream is(value);
  while (std::getline(is, item, ',')) {
    item = trim(item);
    PMIOT_CHECK(!item.empty(), "empty list item in " + what);
    out.push_back(item);
  }
  return out;
}

std::vector<double> parse_doubles(const std::string& value,
                                  const std::string& what) {
  std::vector<double> out;
  for (const auto& item : split_list(value, what)) {
    out.push_back(parse_double(item, what));
  }
  return out;
}

double parse_double(const std::string& value, const std::string& what) {
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  PMIOT_CHECK(end != nullptr && *end == '\0' && !value.empty(),
              "malformed number in " + what + ": " + value);
  return v;
}

std::uint64_t parse_u64(const std::string& value, const std::string& what) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
  PMIOT_CHECK(end != nullptr && *end == '\0' && !value.empty(),
              "malformed integer in " + what + ": " + value);
  return static_cast<std::uint64_t>(v);
}

std::uint64_t fnv1a64(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace pmiot::campaign::text
