#include "obs/json.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>

namespace sparker::obs::json {

namespace {

constexpr int kMaxDepth = 64;

void append_utf8(std::string& out, unsigned cp) {
  static constexpr unsigned kLead[] = {0x00, 0xC0, 0xE0, 0xF0};
  const int extra = cp < 0x80 ? 0 : cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3;
  out.push_back(static_cast<char>(kLead[extra] | cp >> (6 * extra)));
  for (int i = extra - 1; i >= 0; --i) {
    out.push_back(static_cast<char>(0x80 | ((cp >> (6 * i)) & 0x3F)));
  }
}

/// Recursive-descent reader; the first error ends the parse.
class Reader {
 public:
  Reader(std::string_view s, std::string& error) : s_(s), error_(error) {}

  bool document(Value& v) {
    if (!value(v, 0)) return false;
    skip_ws();
    return pos_ == s_.size() || fail("trailing data after JSON value");
  }

 private:
  bool fail(const char* what) {
    error_ = std::string(what) + " at byte " + std::to_string(pos_);
    return false;
  }

  bool at(char c) const { return pos_ < s_.size() && s_[pos_] == c; }

  void skip_ws() {
    while (at(' ') || at('\t') || at('\n') || at('\r')) ++pos_;
  }

  /// Skips whitespace, then consumes `c` if it is next.
  bool eat(char c) {
    skip_ws();
    if (!at(c)) return false;
    ++pos_;
    return true;
  }

  bool value(Value& v, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skip_ws();
    if (pos_ >= s_.size()) return fail("unexpected end of input");
    switch (s_[pos_]) {
      case '{': return object(v, depth);
      case '[': return array(v, depth);
      case '"':
        v.kind = Value::Kind::kString;
        return string(v.str);
      case 't':
      case 'f':
        v.kind = Value::Kind::kBool;
        v.b = s_[pos_] == 't';
        return literal(v.b ? "true" : "false");
      case 'n': return literal("null");
      default:
        v.kind = Value::Kind::kNumber;
        return number(v.num);
    }
  }

  bool literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return fail("invalid literal");
    pos_ += word.size();
    return true;
  }

  bool object(Value& v, int depth) {
    v.kind = Value::Kind::kObject;
    ++pos_;  // '{'
    if (eat('}')) return true;
    do {
      skip_ws();
      if (!at('"')) return fail("expected string key");
      auto& [key, item] = v.fields.emplace_back();
      if (!string(key)) return false;
      if (!eat(':')) return fail("expected ':'");
      if (!value(item, depth + 1)) return false;
    } while (eat(','));
    return eat('}') || fail("expected ',' or '}'");
  }

  bool array(Value& v, int depth) {
    v.kind = Value::Kind::kArray;
    ++pos_;  // '['
    if (eat(']')) return true;
    do {
      if (!value(v.items.emplace_back(), depth + 1)) return false;
    } while (eat(','));
    return eat(']') || fail("expected ',' or ']'");
  }

  /// Consumes a run of decimal digits; false if there is none.
  bool digits() {
    const std::size_t from = pos_;
    while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9') ++pos_;
    return pos_ > from;
  }

  // -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
  bool number(double& out) {
    const std::size_t start = pos_;
    if (at('-')) ++pos_;
    if (at('0')) {
      ++pos_;
    } else if (!digits()) {
      return fail("expected value");
    }
    if (at('.')) {
      ++pos_;
      if (!digits()) return fail("expected digit after '.'");
    }
    if (at('e') || at('E')) {
      ++pos_;
      if (at('+') || at('-')) ++pos_;
      if (!digits()) return fail("expected exponent digit");
    }
    out = std::strtod(std::string(s_.substr(start, pos_ - start)).c_str(),
                      nullptr);
    return true;
  }

  bool string(std::string& out) {
    ++pos_;  // opening quote
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("unescaped control character in string");
      }
      ++pos_;
      if (c == '"') return true;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) break;
      // Escape letters and what they stand for, position by position.
      static constexpr std::string_view kEscape = "\"\\/bfnrt";
      static constexpr std::string_view kMeaning = "\"\\/\b\f\n\r\t";
      const char e = s_[pos_];
      if (e == 'u') {
        ++pos_;
        if (!unicode(out)) return false;
      } else if (const std::size_t k = kEscape.find(e); k != kEscape.npos) {
        ++pos_;
        out.push_back(kMeaning[k]);
      } else {
        return fail("bad escape character");
      }
    }
    return fail("unterminated string");
  }

  bool unicode(std::string& out) {
    unsigned cp = 0, lo = 0;
    if (!hex_at(pos_, cp)) return fail("bad \\u escape");
    pos_ += 4;
    // A high surrogate followed by an escaped low one is one code point;
    // an unpaired surrogate is kept as its own three-byte sequence.
    if (cp >= 0xD800 && cp < 0xDC00 && s_.substr(pos_, 2) == "\\u" &&
        hex_at(pos_ + 2, lo) && lo >= 0xDC00 && lo < 0xE000) {
      cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
      pos_ += 6;
    }
    append_utf8(out, cp);
    return true;
  }

  /// Reads the four hex digits at `at` without consuming them.
  bool hex_at(std::size_t at, unsigned& cp) const {
    if (s_.size() < at + 4) return false;
    const char* p = s_.data() + at;
    return std::from_chars(p, p + 4, cp, 16).ptr == p + 4;
  }

  std::string_view s_;
  std::string& error_;
  std::size_t pos_ = 0;
};

}  // namespace

const Value* Value::find(std::string_view key) const {
  for (const auto& [k, v] : fields) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::optional<Value> parse(std::string_view text, std::string& error) {
  Value v;
  if (!Reader(text, error).document(v)) return std::nullopt;
  return v;
}

void append_quoted(std::string& out, std::string_view s) {
  out.push_back('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (c == '\n') {
      out += "\\n";
    } else if (c == '\t') {
      out += "\\t";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  out.push_back('"');
}

std::string quoted(std::string_view s) {
  std::string out;
  append_quoted(out, s);
  return out;
}

}  // namespace sparker::obs::json
