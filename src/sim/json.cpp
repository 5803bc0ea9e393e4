#include "sim/json.hpp"

#include <cstdio>
#include <stdexcept>

namespace ms::sim {

// ---------------------------------------------------------------- writer

void JsonWriter::begin_value() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!stack_.empty()) {
    if (stack_.back() == 'O') {
      throw std::runtime_error("json: value inside object requires a key");
    }
    if (has_item_.back()) *os_ << ',';
    has_item_.back() = true;
  } else {
    if (wrote_top_level_) {
      throw std::runtime_error("json: multiple top-level values");
    }
  }
  if (stack_.empty()) wrote_top_level_ = true;
}

void JsonWriter::write_escaped(std::string_view s) {
  *os_ << '"';
  for (const char c : s) {
    switch (c) {
      case '"': *os_ << "\\\""; break;
      case '\\': *os_ << "\\\\"; break;
      case '\n': *os_ << "\\n"; break;
      case '\r': *os_ << "\\r"; break;
      case '\t': *os_ << "\\t"; break;
      case '\b': *os_ << "\\b"; break;
      case '\f': *os_ << "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          *os_ << buf;
        } else {
          *os_ << c;
        }
    }
  }
  *os_ << '"';
}

JsonWriter& JsonWriter::begin_object() {
  begin_value();
  stack_.push_back('O');
  has_item_.push_back(false);
  *os_ << '{';
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  if (stack_.empty() || stack_.back() != 'O' || after_key_) {
    throw std::runtime_error("json: mismatched end_object");
  }
  stack_.pop_back();
  has_item_.pop_back();
  *os_ << '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  begin_value();
  stack_.push_back('A');
  has_item_.push_back(false);
  *os_ << '[';
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  if (stack_.empty() || stack_.back() != 'A') {
    throw std::runtime_error("json: mismatched end_array");
  }
  stack_.pop_back();
  has_item_.pop_back();
  *os_ << ']';
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  if (stack_.empty() || stack_.back() != 'O' || after_key_) {
    throw std::runtime_error("json: key outside object");
  }
  if (has_item_.back()) *os_ << ',';
  has_item_.back() = true;
  write_escaped(k);
  *os_ << ':';
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  begin_value();
  write_escaped(v);
  return *this;
}

JsonWriter& JsonWriter::value(f64 v) {
  begin_value();
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  *os_ << buf;
  return *this;
}

JsonWriter& JsonWriter::value(u64 v) {
  begin_value();
  *os_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(i64 v) {
  begin_value();
  *os_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  begin_value();
  *os_ << (v ? "true" : "false");
  return *this;
}

// ---------------------------------------------------------------- parser

const JsonValue* JsonValue::find(std::string_view key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* v = find(key);
  if (v == nullptr) {
    throw std::runtime_error("json: missing member '" + std::string(key) + "'");
  }
  return *v;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : s_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value(0);
    skip_ws();
    if (pos_ != s_.size()) err("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void err(const std::string& what) {
    throw std::runtime_error("json parse error at offset " +
                             std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= s_.size()) err("unexpected end of input");
    return s_[pos_];
  }

  void expect(char c) {
    if (peek() != c) err(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (s_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= s_.size()) err("unterminated string");
      const char c = s_[pos_++];
      if (c == '"') break;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) err("unterminated escape");
      const char e = s_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) err("truncated \\u escape");
          u32 code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<u32>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<u32>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<u32>(h - 'A' + 10);
            else err("bad hex digit in \\u escape");
          }
          out += code < 0x80 ? static_cast<char>(code) : '?';
          break;
        }
        default: err("unknown escape");
      }
    }
    return out;
  }

  /// `depth` counts the containers enclosing this value.  Recursion is
  /// capped so a hostile document cannot overflow the stack.
  JsonValue parse_value(u32 depth) {
    skip_ws();
    JsonValue v;
    const char c = peek();
    if ((c == '{' || c == '[') && depth >= kMaxDepth) {
      err("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
    }
    if (c == '{') {
      ++pos_;
      v.type = JsonValue::Type::kObject;
      skip_ws();
      if (peek() == '}') {
        ++pos_;
        return v;
      }
      while (true) {
        skip_ws();
        std::string key = parse_string();
        skip_ws();
        expect(':');
        v.object.emplace_back(std::move(key), parse_value(depth + 1));
        skip_ws();
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect('}');
        return v;
      }
    }
    if (c == '[') {
      ++pos_;
      v.type = JsonValue::Type::kArray;
      skip_ws();
      if (peek() == ']') {
        ++pos_;
        return v;
      }
      while (true) {
        v.array.push_back(parse_value(depth + 1));
        skip_ws();
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect(']');
        return v;
      }
    }
    if (c == '"') {
      v.type = JsonValue::Type::kString;
      v.str = parse_string();
      return v;
    }
    if (consume_literal("null")) return v;
    if (consume_literal("true")) {
      v.type = JsonValue::Type::kBool;
      v.boolean = true;
      return v;
    }
    if (consume_literal("false")) {
      v.type = JsonValue::Type::kBool;
      return v;
    }
    // Number.
    const size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           ((s_[pos_] >= '0' && s_[pos_] <= '9') || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' ||
            s_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) err("unexpected character");
    const std::string num(s_.substr(start, pos_ - start));
    char* end = nullptr;
    v.type = JsonValue::Type::kNumber;
    v.number = std::strtod(num.c_str(), &end);
    if (end == nullptr || *end != '\0') err("malformed number");
    return v;
  }

  static constexpr u32 kMaxDepth = 64;

  std::string_view s_;
  size_t pos_ = 0;
};

}  // namespace

JsonValue parse_json(std::string_view text) {
  return Parser(text).parse_document();
}

}  // namespace ms::sim
