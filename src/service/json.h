// Minimal JSON for the fairbenchd request/response protocol.
//
// The repo deliberately has no third-party dependencies, and the daemon's
// protocol needs only a small, strict subset: objects, arrays, strings,
// numbers, booleans, null, no comments, UTF-8 passed through opaquely.
// Parsing fails closed (std::nullopt) on anything malformed — a hostile
// request line can not desynchronize the daemon.
//
// Determinism contract: object members are an ORDERED vector of pairs, not a
// hash map, so iteration order equals document order and re-serialization is
// reproducible (fairsfe-analyze bans unordered containers for the same reason
// in protocol code).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "experiments/report.h"

namespace fairsfe::service {

class JsonValue;
using JsonMembers = std::vector<std::pair<std::string, JsonValue>>;
using JsonArray = std::vector<JsonValue>;

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;
  static JsonValue null() { return JsonValue(); }
  static JsonValue boolean(bool b);
  static JsonValue number(double d);
  static JsonValue string(std::string s);
  static JsonValue array(JsonArray a);
  static JsonValue object(JsonMembers m);

  [[nodiscard]] Type type() const { return type_; }
  [[nodiscard]] bool is_object() const { return type_ == Type::kObject; }

  [[nodiscard]] bool as_bool() const { return bool_; }
  [[nodiscard]] double as_number() const { return num_; }
  [[nodiscard]] const std::string& as_string() const { return str_; }
  [[nodiscard]] const JsonArray& as_array() const { return arr_; }
  [[nodiscard]] const JsonMembers& members() const { return members_; }
  /// The number as an unsigned integer: nullopt unless it is a whole number
  /// in [0, 2^64) (JSON numbers are doubles, so larger values have none).
  [[nodiscard]] std::optional<std::uint64_t> as_u64() const;

  /// Object member lookup (first match in document order); nullptr if absent
  /// or not an object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const;

  /// Typed accessors with defaults: absent key or wrong type (for get_u64:
  /// no as_u64() value) yields the default. The daemon reads a request's
  /// verb, id and scenario with get_string; get_number and get_u64 serve
  /// report readers (perfbench's client, Exp18Golden). Run-request fields
  /// never go through them: bench::request_fields() decodes those and
  /// rejects a wrong type instead of defaulting it.
  [[nodiscard]] std::string get_string(std::string_view key,
                                       std::string def = "") const;
  [[nodiscard]] double get_number(std::string_view key, double def) const;
  [[nodiscard]] std::uint64_t get_u64(std::string_view key,
                                      std::uint64_t def) const;

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  JsonArray arr_;
  JsonMembers members_;
};

/// Strict parse of one complete JSON document. std::nullopt on any
/// malformation (trailing bytes included). Depth-capped to keep a hostile
/// request from recursing the stack away.
std::optional<JsonValue> json_parse(std::string_view text);

using bench::json_escape;  ///< the reporter's escaper, shared by events

}  // namespace fairsfe::service
