// Minimal JSON reader/writer for the scenario engine (manifests and
// result-cache entries in -- aggregates out). No third-party dependency,
// mirroring bench/bench_json's approach on the write side. The reader is
// a strict recursive-descent parser for the JSON subset manifests need:
// objects (insertion order preserved --
// sweep-axis order is load-bearing, see manifest.h), arrays, strings,
// numbers, booleans and null. String escapes cover the full JSON set
// (\" \\ \/ \n \t \r \b \f \uXXXX): \u escapes decode to UTF-8 for every
// code point, with surrogate pairs combined and lone/mismatched
// surrogates rejected as line-numbered parse errors. Raw non-ASCII bytes
// pass through unchanged (the writer emits UTF-8 strings verbatim, so
// parse(render(s)) == s). Integers that fit std::int64_t stay exact;
// everything else is a double.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/json_text.h"

namespace cpt::scenario {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  // True for numbers written without '.', 'e' or overflow (exact int64).
  bool is_integer() const { return kind_ == Kind::kNumber && is_int_; }

  bool as_bool() const { return bool_; }
  std::int64_t as_int64() const { return int_; }
  double as_double() const { return is_int_ ? static_cast<double>(int_) : dbl_; }
  const std::string& as_string() const { return str_; }

  const std::vector<JsonValue>& items() const { return items_; }
  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return members_;
  }
  // Object member lookup; nullptr when absent (or not an object).
  const JsonValue* find(std::string_view key) const;

  // Parses exactly one JSON document (trailing garbage is an error).
  // Returns false and fills *error (with a line number) on failure.
  static bool parse(std::string_view text, JsonValue* out, std::string* error);

 private:
  friend class JsonParser;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  bool is_int_ = false;
  std::int64_t int_ = 0;
  double dbl_ = 0;
  std::string str_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

// ---- Writing helpers (defined in util/json_text.h) -----------------------

using util::json_append_escaped;
using util::json_render_double;
using util::json_render_int;
using util::json_render_uint;

// Reads a whole file; returns false on I/O failure.
bool read_text_file(const std::string& path, std::string* out);
// Atomic whole-file write (tmp + fsync + rename): on failure or crash the
// destination keeps its previous content (or stays absent) -- it can
// never hold a truncated document that looks complete.
bool write_text_file(const std::string& path, std::string_view body);

}  // namespace cpt::scenario
