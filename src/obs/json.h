#ifndef EOS_OBS_JSON_H_
#define EOS_OBS_JSON_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace eos {
namespace obs {

// Minimal JSON document model for the observability exporters and for
// eos_inspect, which reads snapshot files back. Deliberately tiny: numbers
// are doubles, object keys keep insertion order (exports stay stable and
// diffable), and parsing accepts exactly the JSON this module emits plus
// ordinary hand-written JSON (escapes, nesting, whitespace).
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;
  static JsonValue Bool(bool b);
  static JsonValue Number(double v);
  static JsonValue Str(std::string s);
  static JsonValue Array();
  static JsonValue Object();

  Kind kind() const { return kind_; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }

  bool boolean() const { return bool_; }
  double number() const { return number_; }
  uint64_t u64() const;
  const std::string& str() const { return string_; }
  const std::vector<JsonValue>& elements() const { return elements_; }
  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return members_;
  }

  // Object lookup; nullptr when absent (or when this is not an object).
  const JsonValue* Find(const std::string& key) const;
  // Number shortcut: Find(key)->number() with a fallback default.
  double NumberOr(const std::string& key, double fallback) const;

  // Builders (no-ops on the wrong kind).
  void Set(std::string key, JsonValue v);
  void Push(JsonValue v);

  // Compact single-line serialization.
  std::string Dump() const;

  static StatusOr<JsonValue> Parse(const std::string& text);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> elements_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

// Escapes a string for embedding in JSON output (adds no quotes).
std::string JsonEscape(const std::string& s);

// Writes `json` and a newline to `path`, replacing the file.
Status WriteJsonFile(const std::string& path, const std::string& json);

}  // namespace obs
}  // namespace eos

#endif  // EOS_OBS_JSON_H_
