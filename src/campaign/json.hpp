// Minimal dependency-free JSON for campaign files.
//
// The campaign subsystem needs exactly one serialization format: small
// hand-written scenario specs (campaigns/*.json) read at tool startup, and
// run manifests written once per campaign. This is a strict recursive-
// descent parser over that subset of reality — no streaming, no SAX, no
// number-precision heroics — with two properties the spec layer leans on:
//
//   * every value remembers the line it started on, so validation errors
//     cite "campaigns/fig3.json:17: axes[0].values: ..." instead of
//     "bad file";
//   * object members keep file order, so sweep-axis order (and therefore
//     grid row-major order) is exactly what the author wrote.
//
// Extensions over RFC 8259: '//' comments to end-of-line (campaign files
// are documentation too) and a tolerated trailing comma in arrays/objects.
#ifndef LOCKSS_CAMPAIGN_JSON_HPP_
#define LOCKSS_CAMPAIGN_JSON_HPP_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace lockss::campaign {

class Json {
 public:
  enum class Type : uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool bool_value = false;
  double number_value = 0.0;
  std::string string_value;
  std::vector<Json> array_items;
  std::vector<std::pair<std::string, Json>> object_members;  // file order
  int line = 0;  // 1-based line where this value started

  bool is_null() const { return type == Type::kNull; }
  bool is_bool() const { return type == Type::kBool; }
  bool is_number() const { return type == Type::kNumber; }
  bool is_string() const { return type == Type::kString; }
  bool is_array() const { return type == Type::kArray; }
  bool is_object() const { return type == Type::kObject; }

  static const char* type_name(Type type);

  // Member lookup (objects only); nullptr when absent.
  const Json* find(const std::string& key) const {
    for (const auto& [name, value] : object_members) {
      if (name == key) {
        return &value;
      }
    }
    return nullptr;
  }
};

// Parses `text`; on failure returns false and sets `error` to
// "line N: reason". `source` names the file in the error.
bool parse_json(const std::string& text, Json* out, std::string* error);

// --- Manifest writing ---------------------------------------------------
// Small append-style JSON writer: values render with stable formatting
// (numbers via %.17g round-trip, strings escaped), so manifests are
// byte-deterministic functions of their inputs and can be golden-pinned.
class JsonWriter {
 public:
  std::string take() { return std::move(out_); }

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();
  JsonWriter& key(const std::string& name);
  JsonWriter& value(const std::string& v);
  JsonWriter& value(const char* v);
  JsonWriter& value(double v);
  JsonWriter& value(uint64_t v);
  JsonWriter& value(int64_t v);
  // Ints route through the double renderer (exact for |v| < 2^53), so a
  // negative never wraps through uint64_t.
  JsonWriter& value(int v) { return value(static_cast<double>(v)); }
  JsonWriter& value(bool v);

 private:
  void comma_and_indent(bool closing = false);
  void separator();

  std::string out_;
  std::vector<bool> first_in_scope_;
  bool after_key_ = false;
};

std::string escape_json(const std::string& s);

}  // namespace lockss::campaign

#endif  // LOCKSS_CAMPAIGN_JSON_HPP_
