#include "bench_util/cli.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "comm/registry.hpp"

namespace sparker::bench {

namespace {

// Flags start with "--"; anything else ("-3", "-") is a bare value.
bool is_flag(const std::string& arg) { return arg.rfind("--", 0) == 0; }

/// Reads all of `v` as a finite number (an int when `integral`) no smaller
/// than `min`. Returns "" or why not.
std::string to_number(const std::string& v, double min, bool integral,
                      double& out) {
  char* end = nullptr;
  out = std::strtod(v.c_str(), &end);
  const bool int_ok =
      out == std::trunc(out) && out >= INT_MIN && out <= INT_MAX;
  if (v.empty() || *end != '\0' || !std::isfinite(out) ||
      (integral && !int_ok)) {
    return integral ? "is not an integer" : "is not a finite number";
  }
  if (out >= min) return "";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "is below the minimum %g", min);
  return buf;
}

}  // namespace

Setter flag(bool* out) {
  return [out](const std::string&) {
    *out = true;
    return std::string();
  };
}

Setter text(std::string* out) {
  return [out](const std::string& v) {
    *out = v;
    return std::string();
  };
}

Setter list(std::vector<std::string>* out) {
  return [out](const std::string& v) {
    out->push_back(v);
    return std::string();
  };
}

Setter integer(int* out, int min) {
  return [out, min](const std::string& v) {
    double x = 0;
    std::string why = to_number(v, min, /*integral=*/true, x);
    if (why.empty()) *out = static_cast<int>(x);
    return why;
  };
}

Setter number(double* out, double min) {
  return [out, min](const std::string& v) {
    double x = 0;
    std::string why = to_number(v, min, /*integral=*/false, x);
    if (why.empty()) *out = x;
    return why;
  };
}

Setter algo(comm::AlgoId* out) {
  return [out](const std::string& v) -> std::string {
    const auto id = comm::parse_algo(v);
    if (!id) return "is not one of " + comm::algo_names();
    *out = *id;
    return "";
  };
}

void Cli::apply(const Arg& arg, const std::string& value) const {
  const std::string why = arg.set(value);
  if (!why.empty()) fail(arg.name + " '" + value + "' " + why);
}

void Cli::parse(int argc, const char* const* argv) {
  const std::string path = argc > 0 ? argv[0] : "";
  program_ = path.substr(path.find_last_of('/') + 1);
  std::size_t next = 0;  // the next positional declaration to fill
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (!is_flag(arg)) {
      while (next < args_.size() && is_flag(args_[next].name)) ++next;
      if (next == args_.size()) fail("unexpected argument '" + arg + "'");
      apply(args_[next], arg);
      if (!args_[next].repeats) ++next;
      continue;
    }
    const std::size_t eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    const auto a = std::find_if(args_.begin(), args_.end(),
                                [&](const Arg& d) { return d.name == name; });
    if (a == args_.end()) fail("unknown flag '" + arg + "'");
    if (a->metavar.empty()) {
      if (eq != std::string::npos) fail(name + " takes no value");
      apply(*a, "");
    } else if (eq != std::string::npos) {
      apply(*a, arg.substr(eq + 1));
    } else if (i + 1 < argc) {
      apply(*a, argv[++i]);
    } else {
      fail(name + " needs a value <" + a->metavar + ">");
    }
  }
}

void Cli::fail(const std::string& why) const {
  std::string accepted;
  for (const Arg& a : args_) {
    accepted += accepted.empty() ? "" : " ";
    if (!is_flag(a.name)) {
      accepted += "[" + a.name + (a.repeats ? "...]" : "]");
    } else {
      accepted += a.name + (a.metavar.empty() ? "" : " <" + a.metavar + ">");
    }
  }
  if (accepted.empty()) accepted = "no arguments";
  std::fprintf(stderr, "%s: %s; accepted: %s\n", program_.c_str(),
               why.c_str(), accepted.c_str());
  std::exit(2);
}

}  // namespace sparker::bench
