// Header-only JSON reader for the tools and tests that read back what obs::JsonWriter
// (src/obs/json.h) emits: bench reports, metric snapshots, Chrome traces. No simulation
// code parses JSON, so the reader lives beside its users rather than in src/.
#ifndef TOOLS_JSON_READER_H_
#define TOOLS_JSON_READER_H_

#include <cctype>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace achilles {
namespace obs {

// Parsed JSON value. Numbers are kept as doubles (sufficient for round-trip tests).
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }

  // Object lookup; nullptr when absent or not an object.
  const JsonValue* Get(const std::string& key) const;
};

inline const JsonValue* JsonValue::Get(const std::string& key) const {
  if (kind != Kind::kObject) {
    return nullptr;
  }
  auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

namespace json_reader_internal {

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  std::optional<JsonValue> Run() {
    auto v = ParseValue();
    if (!v) {
      return std::nullopt;
    }
    SkipWs();
    if (pos_ != s_.size()) {
      return std::nullopt;  // Trailing junk.
    }
    return v;
  }

 private:
  void SkipWs() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipWs();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool Literal(const char* lit) {
    const size_t len = std::char_traits<char>::length(lit);
    if (s_.compare(pos_, len, lit) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  std::optional<JsonValue> ParseValue() {
    SkipWs();
    if (pos_ >= s_.size()) {
      return std::nullopt;
    }
    JsonValue v;
    const char c = s_[pos_];
    if (c == '{') {
      return ParseObject();
    }
    if (c == '[') {
      return ParseArray();
    }
    if (c == '"') {
      auto str = ParseString();
      if (!str) {
        return std::nullopt;
      }
      v.kind = JsonValue::Kind::kString;
      v.string = std::move(*str);
      return v;
    }
    if (Literal("true")) {
      v.kind = JsonValue::Kind::kBool;
      v.boolean = true;
      return v;
    }
    if (Literal("false")) {
      v.kind = JsonValue::Kind::kBool;
      v.boolean = false;
      return v;
    }
    if (Literal("null")) {
      return v;
    }
    return ParseNumber();
  }

  std::optional<JsonValue> ParseNumber() {
    const size_t start = pos_;
    if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) {
      return std::nullopt;
    }
    const std::string num = s_.substr(start, pos_ - start);
    char* end = nullptr;
    const double d = std::strtod(num.c_str(), &end);
    if (end != num.c_str() + num.size()) {
      return std::nullopt;
    }
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    v.number = d;
    return v;
  }

  std::optional<std::string> ParseString() {
    if (!Consume('"')) {
      return std::nullopt;
    }
    std::string out;
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') {
        return out;
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) {
        return std::nullopt;
      }
      const char esc = s_[pos_++];
      switch (esc) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'n':
          out += '\n';
          break;
        case 't':
          out += '\t';
          break;
        case 'r':
          out += '\r';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'u': {
          if (pos_ + 4 > s_.size()) {
            return std::nullopt;
          }
          const unsigned long code = std::strtoul(s_.substr(pos_, 4).c_str(), nullptr, 16);
          pos_ += 4;
          // Basic-plane only; encode as UTF-8 (control chars we emit are < 0x80).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          return std::nullopt;
      }
    }
    return std::nullopt;  // Unterminated.
  }

  std::optional<JsonValue> ParseObject() {
    if (!Consume('{')) {
      return std::nullopt;
    }
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    SkipWs();
    if (Consume('}')) {
      return v;
    }
    while (true) {
      SkipWs();
      auto key = ParseString();
      if (!key || !Consume(':')) {
        return std::nullopt;
      }
      auto val = ParseValue();
      if (!val) {
        return std::nullopt;
      }
      v.object.emplace(std::move(*key), std::move(*val));
      if (Consume(',')) {
        continue;
      }
      if (Consume('}')) {
        return v;
      }
      return std::nullopt;
    }
  }

  std::optional<JsonValue> ParseArray() {
    if (!Consume('[')) {
      return std::nullopt;
    }
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    SkipWs();
    if (Consume(']')) {
      return v;
    }
    while (true) {
      auto val = ParseValue();
      if (!val) {
        return std::nullopt;
      }
      v.array.push_back(std::move(*val));
      if (Consume(',')) {
        continue;
      }
      if (Consume(']')) {
        return v;
      }
      return std::nullopt;
    }
  }

  const std::string& s_;
  size_t pos_ = 0;
};

}  // namespace json_reader_internal

// Parses a complete JSON document. Returns nullopt on any syntax error or trailing junk.
inline std::optional<JsonValue> ParseJson(const std::string& text) {
  return json_reader_internal::Parser(text).Run();
}

}  // namespace obs
}  // namespace achilles

#endif  // TOOLS_JSON_READER_H_
