// Minimal JSON writer for the observability subsystem: metric snapshots, bench reports,
// Chrome traces. No external dependencies. Tools and tests read the output back with the
// header-only reader in tools/json_reader.h.
#ifndef SRC_OBS_JSON_H_
#define SRC_OBS_JSON_H_

#include <cstdint>
#include <string>
#include <vector>

namespace achilles {
namespace obs {

// Streaming writer producing compact JSON. Scopes (objects/arrays) are managed manually:
// the caller opens/closes them in order; commas are inserted automatically.
class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();

  // Object members (must be inside an object).
  JsonWriter& Key(const std::string& key);
  JsonWriter& KeyBeginObject(const std::string& key) { return Key(key).BeginObject(); }
  JsonWriter& KeyBeginArray(const std::string& key) { return Key(key).BeginArray(); }

  // Values (as array elements, or after Key inside an object).
  JsonWriter& String(const std::string& v);
  JsonWriter& Int(int64_t v);
  JsonWriter& Uint(uint64_t v);
  JsonWriter& Double(double v);  // Emitted with round-trippable precision.
  JsonWriter& Bool(bool v);
  JsonWriter& Null();

  // Convenience: Key + value in one call.
  JsonWriter& Field(const std::string& key, const std::string& v) { return Key(key).String(v); }
  JsonWriter& Field(const std::string& key, const char* v) { return Key(key).String(v); }
  JsonWriter& Field(const std::string& key, int64_t v) { return Key(key).Int(v); }
  JsonWriter& Field(const std::string& key, uint64_t v) { return Key(key).Uint(v); }
  JsonWriter& Field(const std::string& key, uint32_t v) { return Key(key).Uint(v); }
  JsonWriter& Field(const std::string& key, double v) { return Key(key).Double(v); }
  JsonWriter& Field(const std::string& key, bool v) { return Key(key).Bool(v); }

  const std::string& str() const { return out_; }
  std::string Take() { return std::move(out_); }

  static std::string Escape(const std::string& s);

 private:
  void Separate();  // Emits a comma if the current scope already has an element.

  std::string out_;
  std::vector<bool> has_element_;  // Per open scope.
  bool pending_key_ = false;
};

}  // namespace obs
}  // namespace achilles

#endif  // SRC_OBS_JSON_H_
