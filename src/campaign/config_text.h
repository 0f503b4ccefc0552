// The key=value text discipline shared by the campaign and net-arena
// configs: '#' comments, one "key = value" entry per line, comma-separated
// lists, shortest round-trip number formatting (so canonical text and
// frontier CSVs are byte-stable for equal inputs), and the FNV-1a hash that
// config hashes are taken with.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace pmiot::campaign::text {

/// Shortest decimal form that parses back to exactly `v`.
std::string fmt_double(double v);

/// ", "-joined items (doubles through `fmt_double`).
std::string join(const std::vector<std::string>& items);
std::string join(const std::vector<double>& items);

/// Calls `on_entry(key, value)` for every non-blank, non-comment line of
/// `text`, both sides trimmed. `what` names the config in error messages
/// ("campaign config"); a line without '=' throws InvalidArgument.
void for_each_entry(
    const std::string& text, const std::string& what,
    const std::function<void(const std::string& key, const std::string& value)>&
        on_entry);

/// Comma-separated, trimmed, non-empty items.
std::vector<std::string> split_list(const std::string& value,
                                    const std::string& what);

/// A number list (`split_list` items through `parse_double`).
std::vector<double> parse_doubles(const std::string& value,
                                  const std::string& what);

/// The whole of `value` as a number; anything else throws InvalidArgument.
double parse_double(const std::string& value, const std::string& what);
std::uint64_t parse_u64(const std::string& value, const std::string& what);

/// 64-bit FNV-1a over the bytes of `text`.
std::uint64_t fnv1a64(const std::string& text);

}  // namespace pmiot::campaign::text
