// The JSON text conventions every emitter in the tree shares (bench
// BENCH_*.json, obs METRICS_*.json, pmiot_lint reports): string escaping
// and precision-12 numbers with null for non-finite values. Header-only so
// the standalone lint tool can use it without linking pmiot_common.
#pragma once

#include <cstdio>
#include <sstream>
#include <string>

namespace pmiot {

/// `s` escaped for use inside a JSON string literal.
inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// `v` at 12 significant digits; `null` for NaN and ±inf.
inline std::string json_number(double v) {
  if (!(v == v) || v > 1.7e308 || v < -1.7e308) return "null";
  std::ostringstream os;
  os.precision(12);
  os << v;
  return os.str();
}

}  // namespace pmiot
