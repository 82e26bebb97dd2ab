// Minimal JSON document model for the observability layer.
//
// The run reports and Chrome traces the Recorder emits must be (a)
// deterministic — two runs with identical traffic produce byte-identical
// documents, so the report tests can compare whole strings — and (b)
// parseable from the C++ tests without an external dependency. This is a
// deliberately small value type: null/bool/int64/double/string/array/object,
// insertion-ordered objects (std::map ordering would scramble the schema's
// reading order), exact integer formatting, and a strict parser for the
// subset the writer emits.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace casp::obs {

/// One JSON value. Objects preserve insertion order so the emitted schema
/// reads top-down (and stays byte-stable across runs).
class Json {
 public:
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  Json() : kind_(Kind::kNull) {}
  Json(std::nullptr_t) : kind_(Kind::kNull) {}
  Json(bool b) : kind_(Kind::kBool), bool_(b) {}
  Json(std::int64_t i) : kind_(Kind::kInt), int_(i) {}
  Json(int i) : kind_(Kind::kInt), int_(i) {}
  Json(std::uint64_t u)
      : kind_(Kind::kInt), int_(static_cast<std::int64_t>(u)) {}
  Json(double d) : kind_(Kind::kDouble), double_(d) {}
  Json(std::string s) : kind_(Kind::kString), string_(std::move(s)) {}
  Json(const char* s) : kind_(Kind::kString), string_(s) {}

  static Json array() {
    Json j;
    j.kind_ = Kind::kArray;
    return j;
  }
  static Json object() {
    Json j;
    j.kind_ = Kind::kObject;
    return j;
  }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_number() const {
    return kind_ == Kind::kInt || kind_ == Kind::kDouble;
  }
  bool is_string() const { return kind_ == Kind::kString; }

  bool as_bool() const { return bool_; }
  std::int64_t as_int() const {
    return kind_ == Kind::kDouble ? static_cast<std::int64_t>(double_) : int_;
  }
  double as_double() const {
    return kind_ == Kind::kInt ? static_cast<double>(int_) : double_;
  }
  const std::string& as_string() const { return string_; }

  // -- Array access ---------------------------------------------------------
  void push_back(Json v) { items_.push_back(std::move(v)); }
  std::size_t size() const { return items_.size(); }
  const Json& at(std::size_t i) const { return items_.at(i); }
  const std::vector<Json>& items() const { return items_; }

  // -- Object access --------------------------------------------------------
  /// Append or overwrite `key` (lookup is linear; documents are small).
  void set(std::string key, Json v);
  /// nullptr when absent.
  const Json* find(std::string_view key) const;
  bool contains(std::string_view key) const { return find(key) != nullptr; }
  const std::vector<std::pair<std::string, Json>>& members() const {
    return members_;
  }

  // -- Serialization --------------------------------------------------------
  /// Compact deterministic serialization. Integers print exactly;
  /// doubles use shortest-roundtrip formatting.
  std::string dump() const;
  /// Pretty serialization with 2-space indentation (for files humans read).
  std::string dump_pretty() const;

  /// Strict parse of a complete JSON document; throws std::runtime_error
  /// with an offset on malformed input, or past 256 nested levels.
  static Json parse(std::string_view text);

 private:
  void write(std::string& out, int indent, int depth) const;

  Kind kind_;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<Json> items_;
  std::vector<std::pair<std::string, Json>> members_;
};

/// JSON string escaping (shared with hand-rolled writers elsewhere).
std::string json_escape(std::string_view s);

}  // namespace casp::obs
