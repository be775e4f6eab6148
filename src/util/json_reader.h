#ifndef WTPG_SCHED_UTIL_JSON_READER_H_
#define WTPG_SCHED_UTIL_JSON_READER_H_

#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

namespace wtpgsched {

// Parsed JSON value — the counterpart of util/json_writer, sized for the
// artifacts this library writes itself (config files, stats objects, trace
// JSONL lines): nesting up to kMaxJsonDepth, no streaming, keys kept in
// document order.
// Not a validating general-purpose parser; anything structurally malformed
// fails with a status.
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kObject, kArray };

  Type type() const { return type_; }
  bool is_object() const { return type_ == Type::kObject; }

  bool bool_value() const { return bool_value_; }
  double number_value() const { return number_value_; }
  // A number's text as written: integers beyond 2^53 read exactly from it.
  const std::string& number_text() const { return string_value_; }
  const std::string& string_value() const { return string_value_; }
  const std::vector<std::pair<std::string, JsonValue>>& items() const {
    return items_;
  }
  const std::vector<JsonValue>& elements() const { return elements_; }

  // Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const;

 private:
  friend class JsonParser;
  Type type_ = Type::kNull;
  bool bool_value_ = false;
  double number_value_ = 0.0;
  std::string string_value_;  // A string's value, or a number's text.
  std::vector<std::pair<std::string, JsonValue>> items_;
  std::vector<JsonValue> elements_;
};

// Deepest array/object nesting ParseJson accepts. Each level is one
// recursive call, so the bound keeps hostile input off the stack's end.
inline constexpr int kMaxJsonDepth = 256;

// Parses one JSON document (trailing whitespace allowed, trailing garbage
// is an error; so is nesting deeper than kMaxJsonDepth).
StatusOr<JsonValue> ParseJson(const std::string& text);

}  // namespace wtpgsched

#endif  // WTPG_SCHED_UTIL_JSON_READER_H_
