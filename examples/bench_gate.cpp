// bench_gate: trace-driven regression gate over BENCH_*.json reports.
//
// Usage:
//   bench_gate --bless <in.json> <out.json>
//   bench_gate --check <blessed.json> <actual.json> [--tol 0.01]
//
// --bless canonicalises a bench report for committing: machine-speed keys
// (bench::kSimSpeedKeys: sim_runs, sim_wall_s, ...) are stripped at every
// depth so the blessed file only holds the *simulated* results, which are
// deterministic for a given code state. --check strips the same keys from
// the fresh report and compares it structurally against the blessed one:
// numeric leaves must agree within the relative tolerance (default 1%),
// strings and shapes exactly. Every drifting leaf is printed with its
// path; any drift exits 1. CI blesses once per intentional change (the
// files live in ci/blessed/) and checks each of them on every push, so an
// accidental drift in a gated report fails the build instead of silently
// shifting the numbers. Reports are read with the shared strict reader
// (obs/json.hpp); an unparsable file or a bad --tol exits non-zero.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <optional>
#include <sstream>
#include <string>

#include "bench_util/cli.hpp"
#include "bench_util/json.hpp"
#include "obs/json.hpp"

namespace {

namespace json = sparker::obs::json;
using Value = json::Value;

bool volatile_key(const std::string& key) {
  const auto& keys = sparker::bench::kSimSpeedKeys;
  return std::find(std::begin(keys), std::end(keys), key) != std::end(keys);
}

void strip_volatile(Value& v) {
  std::erase_if(v.fields, [](const auto& f) { return volatile_key(f.first); });
  for (auto& [key, item] : v.fields) strip_volatile(item);
  for (auto& item : v.items) strip_volatile(item);
}

void write_json(const Value& v, std::string& out, int indent) {
  const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
  const std::string pad_in(static_cast<std::size_t>(indent + 1) * 2, ' ');
  switch (v.kind) {
    case Value::Kind::kNull:
      out += "null";
      break;
    case Value::Kind::kBool:
      out += v.b ? "true" : "false";
      break;
    case Value::Kind::kNumber: {
      char buf[40];
      std::snprintf(buf, sizeof buf, "%.10g", v.num);
      out += buf;
      break;
    }
    case Value::Kind::kString:
      json::append_quoted(out, v.str);
      break;
    case Value::Kind::kArray:
    case Value::Kind::kObject: {
      const bool object = v.kind == Value::Kind::kObject;
      const std::size_t n = object ? v.fields.size() : v.items.size();
      out += object ? '{' : '[';
      for (std::size_t i = 0; i < n; ++i) {
        out += (i == 0 ? "\n" : ",\n") + pad_in;
        if (object) {
          json::append_quoted(out, v.fields[i].first);
          out += ": ";
        }
        write_json(object ? v.fields[i].second : v.items[i], out, indent + 1);
      }
      if (n > 0) out += "\n" + pad;
      out += object ? '}' : ']';
      break;
    }
  }
}

// ---- comparison ------------------------------------------------------------

struct CheckState {
  double tol = 0;
  int drifts = 0;
};

void drift(CheckState& st, const std::string& path, const std::string& msg) {
  std::fprintf(stderr, "DRIFT %s: %s\n",
               path.empty() ? "<root>" : path.c_str(), msg.c_str());
  ++st.drifts;
}

const char* kind_name(Value::Kind k) {
  static constexpr const char* kNames[] = {"null",   "bool",  "number",
                                           "string", "array", "object"};
  return kNames[static_cast<int>(k)];
}

void compare(CheckState& st, const std::string& path, const Value& blessed,
             const Value& actual) {
  if (blessed.kind != actual.kind) {
    drift(st, path, std::string("type ") + kind_name(blessed.kind) +
                        " became " + kind_name(actual.kind));
    return;
  }
  switch (blessed.kind) {
    case Value::Kind::kNull:
      break;
    case Value::Kind::kBool:
      if (blessed.b != actual.b) {
        drift(st, path, blessed.b ? "true became false" : "false became true");
      }
      break;
    case Value::Kind::kNumber: {
      const double denom = std::max(std::abs(blessed.num), 1e-9);
      const double rel = std::abs(actual.num - blessed.num) / denom;
      if (rel > st.tol) {
        char msg[128];
        std::snprintf(msg, sizeof msg, "%.10g became %.10g (%.2f%% off)",
                      blessed.num, actual.num, 100.0 * rel);
        drift(st, path, msg);
      }
      break;
    }
    case Value::Kind::kString:
      if (blessed.str != actual.str) {
        drift(st, path,
              "\"" + blessed.str + "\" became \"" + actual.str + "\"");
      }
      break;
    case Value::Kind::kArray: {
      if (blessed.items.size() != actual.items.size()) {
        drift(st, path,
              std::to_string(blessed.items.size()) + " element(s) became " +
                  std::to_string(actual.items.size()));
        return;
      }
      for (std::size_t i = 0; i < blessed.items.size(); ++i) {
        compare(st, path + "[" + std::to_string(i) + "]", blessed.items[i],
                actual.items[i]);
      }
      break;
    }
    case Value::Kind::kObject:
      for (const auto& [key, item] : blessed.fields) {
        const std::string sub = path.empty() ? key : path + "." + key;
        if (const Value* other = actual.find(key)) {
          compare(st, sub, item, *other);
        } else {
          drift(st, sub, "key disappeared");
        }
      }
      for (const auto& [key, item] : actual.fields) {
        if (!blessed.find(key)) {
          drift(st, path.empty() ? key : path + "." + key,
                "new key (re-bless to accept)");
        }
      }
      break;
  }
}

std::optional<Value> load(const std::string& file) {
  std::ifstream in(file, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "%s: cannot open\n", file.c_str());
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string error;
  std::optional<Value> v = json::parse(buf.str(), error);
  if (!v) {
    std::fprintf(stderr, "%s: parse error: %s\n", file.c_str(), error.c_str());
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  bool bless = false, check = false;
  std::string first, second;
  double tol = 0.01;
  namespace bench = sparker::bench;
  bench::Cli cli({{"--bless", bench::flag(&bless)},
                  {"--check", bench::flag(&check)},
                  {"--tol", bench::number(&tol, 0), "fraction"},
                  {"in.json|blessed.json", bench::text(&first)},
                  {"out.json|actual.json", bench::text(&second)}});
  cli.parse(argc, argv);
  if (bless == check || second.empty()) {
    cli.fail("needs --bless <in.json> <out.json> or --check <blessed.json> "
             "<actual.json>");
  }
  if (bless) {
    std::optional<Value> v = load(first);
    if (!v) return 1;
    strip_volatile(*v);
    std::string text;
    write_json(*v, text, 0);
    text += '\n';
    std::ofstream out(second, std::ios::binary);
    if (!(out << text)) {
      std::fprintf(stderr, "%s: cannot write\n", second.c_str());
      return 1;
    }
    std::printf("blessed %s -> %s\n", first.c_str(), second.c_str());
    return 0;
  }
  CheckState st{.tol = tol};
  std::optional<Value> blessed = load(first);
  std::optional<Value> actual = load(second);
  if (!blessed || !actual) return 1;
  strip_volatile(*blessed);  // tolerate blessing an unstripped file
  strip_volatile(*actual);
  compare(st, "", *blessed, *actual);
  if (st.drifts) {
    std::fprintf(stderr,
                 "%s: FAIL: %d leaf value(s) drifted more than %.2f%% from "
                 "%s (re-bless if intentional)\n",
                 second.c_str(), st.drifts, 100.0 * st.tol, first.c_str());
    return 1;
  }
  std::printf("%s: ok (matches %s within %.2f%%)\n", second.c_str(),
              first.c_str(), 100.0 * st.tol);
  return 0;
}
