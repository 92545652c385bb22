#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

/// \file json.hpp
/// The one JSON reader and string escaper behind the repository's tools:
/// `trace_lint` (through lint_chrome_trace_text) and `bench_gate` read
/// through parse(), and the trace exporter, the bench reports and
/// `bench_gate --bless` write strings through append_quoted().

namespace sparker::obs::json {

/// A parsed JSON value. Objects keep their members in input order
/// (duplicates included); every number is a double.
struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool b = false;
  double num = 0;
  std::string str;
  std::vector<Value> items;                           ///< array elements
  std::vector<std::pair<std::string, Value>> fields;  ///< object members
  /// The first member named `key`; nullptr if none (or not an object).
  const Value* find(std::string_view key) const;
  bool operator==(const Value&) const = default;
};

/// Parses strict RFC 8259 JSON: one value with nothing but whitespace
/// around it, no trailing commas, no raw control characters in strings.
/// `\uXXXX` escapes (and surrogate pairs) decode to UTF-8. Containers and
/// scalars may sit at most 64 levels below the root, which bounds the
/// recursion on outside input. On failure returns nullopt and sets `error`
/// to "<what> at byte N".
std::optional<Value> parse(std::string_view text, std::string& error);

/// Appends `s` as a quoted JSON string: `"` and `\` are escaped, newline
/// and tab as `\n` and `\t`, other control characters as `\u00xx`; every
/// other byte is copied as is.
void append_quoted(std::string& out, std::string_view s);
std::string quoted(std::string_view s);

}  // namespace sparker::obs::json
