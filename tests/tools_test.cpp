// Tests for the code the tools and binaries read their inputs through: the
// strict JSON reader and escaper (obs/json.hpp) and the declarative
// command-line parser (bench_util/cli.hpp). Kept free of engine and ml
// headers so it compiles in seconds.

#include <gtest/gtest.h>

#include <climits>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "bench_util/cli.hpp"
#include "comm/registry.hpp"
#include "obs/json.hpp"

using namespace sparker;
namespace json = obs::json;

namespace {

std::optional<json::Value> parse(const std::string& text,
                                 std::string* error = nullptr) {
  std::string e;
  auto v = json::parse(text, e);
  if (error) *error = e;
  return v;
}

// ===========================================================================
// JSON reader
// ===========================================================================

TEST(JsonReader, BuildsOrderedDom) {
  const auto v = parse(
      R"( {"b": [1, -0.5e1, true, null], "a": {"x": "y"}, "b": false} )");
  ASSERT_TRUE(v);
  ASSERT_EQ(v->kind, json::Value::Kind::kObject);
  ASSERT_EQ(v->fields.size(), 3u);  // duplicates kept, in input order
  EXPECT_EQ(v->fields[0].first, "b");
  EXPECT_EQ(v->fields[1].first, "a");
  EXPECT_EQ(v->fields[2].first, "b");
  const json::Value& arr = v->fields[0].second;
  ASSERT_EQ(arr.items.size(), 4u);
  EXPECT_EQ(arr.items[0].num, 1);
  EXPECT_EQ(arr.items[1].num, -5);
  EXPECT_TRUE(arr.items[2].b);
  EXPECT_EQ(arr.items[3].kind, json::Value::Kind::kNull);
  ASSERT_NE(v->find("a"), nullptr);
  EXPECT_EQ(v->find("a")->find("x")->str, "y");
  EXPECT_EQ(v->find("b"), &v->fields[0].second);  // the first one
  EXPECT_EQ(v->find("zz"), nullptr);
}

TEST(JsonReader, AcceptsRfcNumbers) {
  for (const char* text : {"0", "-0", "12", "1.25", "1e3", "1E+2", "2e-2",
                           "-0.5E-1"}) {
    const auto v = parse(text);
    ASSERT_TRUE(v) << text;
    EXPECT_EQ(v->num, std::strtod(text, nullptr)) << text;
  }
}

TEST(JsonReader, RejectsNonRfcInput) {
  // The first three are numbers the old bench_gate reader accepted.
  for (const char* text :
       {"+3", "1e", "1-2", ".5", "5.", "01", "0x1F", "inf", "-", "NaN",
        "[1,]", "{\"a\":1,}", "{'a':1}", "{\"a\" 1}", "tru", "nul",
        "\"\\uZZZZ\"", "\"\\u12\"", "\"\\x\"", "\"a\x01\"", "\"open", "",
        " ", "1 2", "[]]", "\v1"}) {
    std::string error;
    EXPECT_FALSE(parse(text, &error)) << text;
    EXPECT_NE(error.find(" at byte "), std::string::npos) << text;
  }
}

TEST(JsonReader, ErrorsNameTheByte) {
  std::string error;
  EXPECT_FALSE(parse("[1,]", &error));
  EXPECT_EQ(error, "expected value at byte 3");
  EXPECT_FALSE(parse("{\"a\":1} x", &error));
  EXPECT_EQ(error, "trailing data after JSON value at byte 8");
}

TEST(JsonReader, NestingLimit) {
  const auto nested = [](int n) {
    return std::string(static_cast<std::size_t>(n), '[') +
           std::string(static_cast<std::size_t>(n), ']');
  };
  EXPECT_TRUE(parse(nested(65)));  // innermost value at depth 64
  std::string error;
  EXPECT_FALSE(parse(nested(66), &error));
  EXPECT_EQ(error.rfind("nesting too deep", 0), 0u) << error;
  EXPECT_FALSE(parse(nested(100000)));  // bounded recursion, no overflow
}

TEST(JsonReader, DecodesUnicodeEscapesToUtf8) {
  const auto v = parse(R"("A\u00e9\u20ac\ud83d\ude00\/\b\f\n\r\t\ud800x")");
  ASSERT_TRUE(v);
  EXPECT_EQ(v->str,
            "A\xC3\xA9\xE2\x82\xAC\xF0\x9F\x98\x80/\b\f\n\r\t\xED\xA0\x80x");
}

// read(write(v)) == v for strings the old escapers mangled.
TEST(JsonReader, QuotedStringsRoundTrip) {
  const auto decoded = parse(R"("ctl\u0001z caf\u00e9")");
  ASSERT_TRUE(decoded);
  for (const std::string& s :
       {std::string("say \"hi\""), std::string("back\\slash"),
        std::string("line\nbreak\ttab\rcr"), std::string("ctl\x01z\x1f"),
        std::string("nul\0byte", 8), decoded->str, std::string()}) {
    json::Value v;
    v.kind = json::Value::Kind::kString;
    v.str = s;
    const std::string written = json::quoted(s);
    for (const char c : written) {
      EXPECT_GE(static_cast<unsigned char>(c), 0x20) << written;
    }
    const auto back = parse(written);
    ASSERT_TRUE(back) << written;
    EXPECT_EQ(*back, v) << written;
  }
  EXPECT_EQ(json::quoted("ctl\x01z"), "\"ctl\\u0001z\"");
  // An object key goes through the same escaper.
  std::string obj = "{";
  json::append_quoted(obj, "k\"q");
  obj += ":1}";
  const auto o = parse(obj);
  ASSERT_TRUE(o);
  EXPECT_EQ(o->fields[0].first, "k\"q");
}

// ===========================================================================
// Command-line parser
// ===========================================================================

void run(bench::Cli& cli, std::vector<const char*> args) {
  args.insert(args.begin(), "/path/to/prog");
  cli.parse(static_cast<int>(args.size()), args.data());
}

TEST(Cli, BothOptionSpellings) {
  std::string out;
  int n = 0;
  double x = 0;
  bool on = false;
  bench::Cli cli({{"--trace-out", bench::text(&out), "path"},
                  {"--n", bench::integer(&n, 1), "N"},
                  {"--x", bench::number(&x, 0), "X"},
                  {"--on", bench::flag(&on)}});
  run(cli, {"--trace-out", "a.json", "--n=7", "--x", "2.5", "--on"});
  EXPECT_EQ(out, "a.json");
  EXPECT_EQ(n, 7);
  EXPECT_EQ(x, 2.5);
  EXPECT_TRUE(on);
  run(cli, {"--trace-out=b=c.json", "--n", "3"});
  EXPECT_EQ(out, "b=c.json");
  EXPECT_EQ(n, 3);
}

TEST(Cli, PositionalsFillInOrder) {
  int a = 1, b = 2;
  std::vector<std::string> files;
  bench::Cli cli({{"a", bench::integer(&a)}, {"b", bench::integer(&b)}});
  run(cli, {"-3"});  // a negative number is a value, not a flag
  EXPECT_EQ(a, -3);
  EXPECT_EQ(b, 2);
  run(cli, {"-2147483648", "2147483647"});
  EXPECT_EQ(a, INT_MIN);
  EXPECT_EQ(b, INT_MAX);
  bench::Cli many({{"file", bench::list(&files), "", /*repeats=*/true}});
  run(many, {"x.json", "y.json"});
  EXPECT_EQ(files, (std::vector<std::string>{"x.json", "y.json"}));
}

TEST(Cli, AlgoNames) {
  comm::AlgoId id = comm::AlgoId::kRing;
  bench::Cli cli({{"--algo", bench::algo(&id), "name"}});
  run(cli, {"--algo", "halving"});
  EXPECT_EQ(id, comm::AlgoId::kHalving);
  EXPECT_EXIT(run(cli, {"--algo=nope"}), testing::ExitedWithCode(2),
              "^prog: --algo 'nope' is not one of auto\\|ring\\|[a-z_|]+; "
              "accepted: --algo <name>\n$");
}

TEST(CliDeathTest, RejectsWithStatus2) {
  std::string out;
  int n = 0;
  double x = 0;
  bool on = false;
  const std::string accepted =
      "; accepted: --trace-out <path> --x <X> --on \\[n\\]";
  const auto rejects = [&](std::vector<const char*> args,
                           const std::string& why) {
    bench::Cli cli({{"--trace-out", bench::text(&out), "path"},
                    {"--x", bench::number(&x, 0), "X"},
                    {"--on", bench::flag(&on)},
                    {"n", bench::integer(&n, 1)}});
    EXPECT_EXIT(run(cli, args), testing::ExitedWithCode(2),
                "^prog: " + why + accepted + "\n$")
        << args.front();
  };
  rejects({"--bogus"}, "unknown flag '--bogus'");
  rejects({"--bogus=1"}, "unknown flag '--bogus=1'");
  rejects({"-h"}, "n '-h' is not an integer");
  rejects({"--trace-out"}, "--trace-out needs a value <path>");
  rejects({"--on=1"}, "--on takes no value");
  rejects({"12x"}, "n '12x' is not an integer");
  rejects({"abc"}, "n 'abc' is not an integer");
  rejects({""}, "n '' is not an integer");
  rejects({"2.5"}, "n '2.5' is not an integer");
  rejects({"99999999999"}, "n '99999999999' is not an integer");
  rejects({"0"}, "n '0' is below the minimum 1");
  rejects({"--x", "1.5y"}, "--x '1.5y' is not a finite number");
  rejects({"--x=inf"}, "--x 'inf' is not a finite number");
  rejects({"--x", "-1"}, "--x '-1' is below the minimum 0");
  rejects({"3", "4"}, "unexpected argument '4'");
  bench::Cli none({});
  EXPECT_EXIT(run(none, {"--trace-out", "t.json"}),
              testing::ExitedWithCode(2),
              "^prog: unknown flag '--trace-out'; accepted: no arguments\n$");
}

}  // namespace
