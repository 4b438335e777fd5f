#include "src/obs/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace achilles {
namespace obs {

// --- Writer ---

void JsonWriter::Separate() {
  if (pending_key_) {
    pending_key_ = false;
    return;  // Value follows its key; the comma was emitted before the key.
  }
  if (!has_element_.empty()) {
    if (has_element_.back()) {
      out_ += ',';
    }
    has_element_.back() = true;
  }
}

JsonWriter& JsonWriter::BeginObject() {
  Separate();
  out_ += '{';
  has_element_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  out_ += '}';
  has_element_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  Separate();
  out_ += '[';
  has_element_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  out_ += ']';
  has_element_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::Key(const std::string& key) {
  Separate();
  out_ += '"';
  out_ += Escape(key);
  out_ += "\":";
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::String(const std::string& v) {
  Separate();
  out_ += '"';
  out_ += Escape(v);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::Int(int64_t v) {
  Separate();
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::Uint(uint64_t v) {
  Separate();
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::Double(double v) {
  Separate();
  if (!std::isfinite(v)) {
    out_ += "null";  // JSON has no Inf/NaN.
    return *this;
  }
  char buf[40];
  // %.17g round-trips any double; prefer the shorter %.15g when it is lossless.
  std::snprintf(buf, sizeof(buf), "%.15g", v);
  if (std::strtod(buf, nullptr) != v) {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::Bool(bool v) {
  Separate();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::Null() {
  Separate();
  out_ += "null";
  return *this;
}

std::string JsonWriter::Escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace obs
}  // namespace achilles
