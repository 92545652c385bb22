#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_util/table.hpp"
#include "obs/json.hpp"

/// \file json.hpp
/// Machine-readable bench output. Every figure/ablation binary writes a
/// `BENCH_<name>.json` next to its stdout table so sweeps can be collected
/// and plotted without scraping text: a flat object of config scalars plus
/// one array of row objects per printed table. Cells that parse as numbers
/// are emitted unquoted; everything else is a JSON string.

namespace sparker::bench {

/// The host-speed keys with_sim_speed() writes, in order. They vary with
/// machine load, not with simulated behaviour, so `bench_gate` strips them.
inline constexpr const char* kSimSpeedKeys[] = {
    "sim_runs",      "sim_events",     "sim_wall_s",
    "sim_virtual_s", "events_per_sec", "wall_per_sim_sec"};

/// True if the whole cell is a JSON number ("12", "-3.25", "1e6" — but not
/// "1.50x", "4 MiB", ".5" or ""), so the report can write it unquoted.
inline bool is_numeric_cell(const std::string& s) {
  std::string error;
  const auto v = obs::json::parse(s, error);
  return v && v->kind == obs::json::Value::Kind::kNumber;
}

inline std::string json_cell(const std::string& s) {
  return is_numeric_cell(s) ? s : obs::json::quoted(s);
}

/// Accumulates config scalars and result tables, then writes
/// `BENCH_<name>.json` in the working directory.
class JsonReport {
 public:
  explicit JsonReport(std::string name) : name_(std::move(name)) {}

  JsonReport& set(const std::string& key, const std::string& value) {
    fields_.emplace_back(key, json_cell(value));
    return *this;
  }
  JsonReport& set(const std::string& key, const char* value) {
    return set(key, std::string(value));
  }
  JsonReport& set(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", value);
    fields_.emplace_back(key, buf);
    return *this;
  }
  JsonReport& set(const std::string& key, std::int64_t value) {
    fields_.emplace_back(key, std::to_string(value));
    return *this;
  }
  JsonReport& set(const std::string& key, int value) {
    return set(key, static_cast<std::int64_t>(value));
  }
  JsonReport& set(const std::string& key, std::uint64_t value) {
    fields_.emplace_back(key, std::to_string(value));
    return *this;
  }
  JsonReport& set(const std::string& key, bool value) {
    fields_.emplace_back(key, value ? "true" : "false");
    return *this;
  }

  /// Adds a printed table as `key: [ {header: cell, ...}, ... ]`.
  JsonReport& add_table(const std::string& key, const Table& t) {
    std::string out = "[";
    bool first_row = true;
    for (const auto& row : t.rows()) {
      if (!first_row) out += ",";
      first_row = false;
      out += "\n    {";
      for (std::size_t c = 0; c < row.size() && c < t.headers().size(); ++c) {
        if (c > 0) out += ", ";
        obs::json::append_quoted(out, t.headers()[c]);
        out += ": ";
        out += json_cell(row[c]);
      }
      out += "}";
    }
    out += "\n  ]";
    fields_.emplace_back(key, std::move(out));
    return *this;
  }

  /// Appends the process-wide kernel-speed fields (events/sec, wall-clock
  /// per simulated second). Defined in sim_speed.hpp; callers must include
  /// it.
  JsonReport& with_sim_speed();

  /// Writes BENCH_<name>.json; returns false (and warns) on I/O failure.
  bool write() const {
    const std::string path = "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"bench\": %s", obs::json::quoted(name_).c_str());
    for (const auto& [k, v] : fields_) {
      std::fprintf(f, ",\n  %s: %s", obs::json::quoted(k).c_str(), v.c_str());
    }
    std::fprintf(f, "\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
    return true;
  }

 private:
  std::string name_;
  // Key -> pre-rendered JSON value, in insertion order.
  std::vector<std::pair<std::string, std::string>> fields_;
};

}  // namespace sparker::bench
