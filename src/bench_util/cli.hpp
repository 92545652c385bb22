#pragma once

#include <climits>
#include <cmath>
#include <functional>
#include <string>
#include <vector>

/// \file cli.hpp
/// The one command-line parser for the bench and example binaries. Each
/// binary declares the flags and positionals it honours and nothing more;
/// anything else (an unknown flag, a missing value, a number that does not
/// parse completely or is below its minimum, an extra positional) prints
/// one stderr line naming the argument and the accepted ones, then exits
/// with status 2.

namespace sparker::comm {
enum class AlgoId;
}

namespace sparker::bench {

/// Stores one argument's text in its destination. Returns "" on success,
/// else why the text was rejected (e.g. "is not an integer").
using Setter = std::function<std::string(const std::string&)>;

Setter flag(bool* out);  ///< sets *out; for flags that take no value
Setter text(std::string* out);
Setter list(std::vector<std::string>* out);  ///< appends
Setter integer(int* out, int min = INT_MIN);
Setter number(double* out, double min = -HUGE_VAL);  ///< finite
Setter algo(comm::AlgoId* out);  ///< a name comm::parse_algo accepts

/// One declared argument. A `name` starting with "--" is a flag: with a
/// `metavar` it takes a value (`--name v` or `--name=v`), without one it
/// takes none. Any other name is a positional; positionals fill in
/// declaration order, all optional, and a `repeats` one takes every
/// remaining bare argument.
struct Arg {
  std::string name;
  Setter set;
  std::string metavar = "";
  bool repeats = false;
};

class Cli {
 public:
  explicit Cli(std::vector<Arg> args) : args_(std::move(args)) {}

  /// Applies argv[1..argc) to the declarations, or fail()s on the first
  /// argument it cannot place.
  void parse(int argc, const char* const* argv);

  /// Prints "<program>: <why>; accepted: <declarations>" and exits 2.
  [[noreturn]] void fail(const std::string& why) const;

 private:
  void apply(const Arg& arg, const std::string& value) const;

  std::vector<Arg> args_;
  std::string program_;
};

}  // namespace sparker::bench
