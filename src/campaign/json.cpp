#include "campaign/json.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace lockss::campaign {

const char* Json::type_name(Type type) {
  switch (type) {
    case Type::kNull:
      return "null";
    case Type::kBool:
      return "bool";
    case Type::kNumber:
      return "number";
    case Type::kString:
      return "string";
    case Type::kArray:
      return "array";
    case Type::kObject:
      return "object";
  }
  return "?";
}

namespace {

class Parser {
 public:
  Parser(const std::string& text, std::string* error) : text_(text), error_(error) {}

  bool parse(Json* out) {
    skip_ws();
    if (!parse_value(out)) {
      return false;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      return fail("trailing content after the top-level value");
    }
    return true;
  }

 private:
  bool fail(const std::string& reason) {
    *error_ = "line " + std::to_string(line_) + ": " + reason;
    return false;
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  char take() {
    const char c = text_[pos_++];
    if (c == '\n') {
      ++line_;
    }
    return c;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = peek();
      if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
        take();
      } else if (c == '/' && pos_ + 1 < text_.size() && text_[pos_ + 1] == '/') {
        while (pos_ < text_.size() && peek() != '\n') {
          take();
        }
      } else {
        break;
      }
    }
  }

  bool parse_value(Json* out) {
    out->line = line_;
    switch (peek()) {
      case '{':
        return parse_object(out);
      case '[':
        return parse_array(out);
      case '"':
        out->type = Json::Type::kString;
        return parse_string(&out->string_value);
      case 't':
      case 'f':
        return parse_bool(out);
      case 'n':
        return parse_null(out);
      case '\0':
        return fail("unexpected end of input");
      default:
        return parse_number(out);
    }
  }

  // Bounded nesting: campaign files are shallow; a pathological input must
  // produce a diagnostic, not a stack overflow.
  static constexpr int kMaxDepth = 64;

  struct DepthGuard {
    int& depth;
    ~DepthGuard() { --depth; }
  };

  bool parse_object(Json* out) {
    if (depth_ >= kMaxDepth) {
      return fail("nesting deeper than 64 levels");
    }
    ++depth_;
    DepthGuard guard{depth_};
    out->type = Json::Type::kObject;
    take();  // '{'
    skip_ws();
    if (peek() == '}') {
      take();
      return true;
    }
    while (true) {
      skip_ws();
      if (peek() == '}') {  // tolerated trailing comma
        take();
        return true;
      }
      if (peek() != '"') {
        return fail("expected a quoted member name");
      }
      std::string name;
      if (!parse_string(&name)) {
        return false;
      }
      if (out->find(name) != nullptr) {
        return fail("duplicate member \"" + name + "\"");
      }
      skip_ws();
      if (peek() != ':') {
        return fail("expected ':' after member name \"" + name + "\"");
      }
      take();
      skip_ws();
      Json value;
      if (!parse_value(&value)) {
        return false;
      }
      out->object_members.emplace_back(std::move(name), std::move(value));
      skip_ws();
      if (peek() == ',') {
        take();
        continue;
      }
      if (peek() == '}') {
        take();
        return true;
      }
      return fail("expected ',' or '}' in object");
    }
  }

  bool parse_array(Json* out) {
    if (depth_ >= kMaxDepth) {
      return fail("nesting deeper than 64 levels");
    }
    ++depth_;
    DepthGuard guard{depth_};
    out->type = Json::Type::kArray;
    take();  // '['
    skip_ws();
    if (peek() == ']') {
      take();
      return true;
    }
    while (true) {
      skip_ws();
      if (peek() == ']') {  // tolerated trailing comma
        take();
        return true;
      }
      Json item;
      if (!parse_value(&item)) {
        return false;
      }
      out->array_items.push_back(std::move(item));
      skip_ws();
      if (peek() == ',') {
        take();
        continue;
      }
      if (peek() == ']') {
        take();
        return true;
      }
      return fail("expected ',' or ']' in array");
    }
  }

  bool parse_string(std::string* out) {
    take();  // opening quote
    out->clear();
    while (true) {
      if (pos_ >= text_.size()) {
        return fail("unterminated string");
      }
      char c = take();
      if (c == '"') {
        return true;
      }
      if (c == '\n') {
        return fail("newline inside string");
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) {
        return fail("unterminated escape");
      }
      c = take();
      switch (c) {
        case '"':
        case '\\':
        case '/':
          out->push_back(c);
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 't':
          out->push_back('\t');
          break;
        default:
          // \uXXXX and friends are outside the campaign-file subset.
          return fail(std::string("unsupported escape '\\") + c + "'");
      }
    }
  }

  bool parse_bool(Json* out) {
    if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      out->type = Json::Type::kBool;
      out->bool_value = true;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      out->type = Json::Type::kBool;
      out->bool_value = false;
      return true;
    }
    return fail("malformed literal");
  }

  bool parse_null(Json* out) {
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      out->type = Json::Type::kNull;
      return true;
    }
    return fail("malformed literal");
  }

  bool parse_number(Json* out) {
    const size_t start = pos_;
    if (peek() == '-') {
      take();
    }
    while (std::isdigit(static_cast<unsigned char>(peek()))) {
      take();
    }
    if (peek() == '.') {
      take();
      while (std::isdigit(static_cast<unsigned char>(peek()))) {
        take();
      }
    }
    if (peek() == 'e' || peek() == 'E') {
      take();
      if (peek() == '+' || peek() == '-') {
        take();
      }
      while (std::isdigit(static_cast<unsigned char>(peek()))) {
        take();
      }
    }
    if (pos_ == start) {
      return fail("expected a value");
    }
    char* end = nullptr;
    const std::string token = text_.substr(start, pos_ - start);
    out->type = Json::Type::kNumber;
    out->number_value = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      return fail("malformed number '" + token + "'");
    }
    return true;
  }

  const std::string& text_;
  std::string* error_;
  size_t pos_ = 0;
  int line_ = 1;
  int depth_ = 0;
};

}  // namespace

bool parse_json(const std::string& text, Json* out, std::string* error) {
  std::string local_error;
  Parser parser(text, error != nullptr ? error : &local_error);
  *out = Json{};
  return parser.parse(out);
}

std::string escape_json(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
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
        out.push_back(c);
    }
  }
  return out;
}

// --- JsonWriter ---------------------------------------------------------

void JsonWriter::separator() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!first_in_scope_.empty()) {
    if (!first_in_scope_.back()) {
      out_ += ",";
    }
    first_in_scope_.back() = false;
    out_ += "\n";
    out_.append(2 * first_in_scope_.size(), ' ');
  }
}

JsonWriter& JsonWriter::begin_object() {
  separator();
  out_ += "{";
  first_in_scope_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  const bool empty = first_in_scope_.back();
  first_in_scope_.pop_back();
  if (!empty) {
    out_ += "\n";
    out_.append(2 * first_in_scope_.size(), ' ');
  }
  out_ += "}";
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  separator();
  out_ += "[";
  first_in_scope_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  const bool empty = first_in_scope_.back();
  first_in_scope_.pop_back();
  if (!empty) {
    out_ += "\n";
    out_.append(2 * first_in_scope_.size(), ' ');
  }
  out_ += "]";
  return *this;
}

JsonWriter& JsonWriter::key(const std::string& name) {
  separator();
  out_ += "\"" + escape_json(name) + "\": ";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(const std::string& v) {
  separator();
  out_ += "\"" + escape_json(v) + "\"";
  return *this;
}

JsonWriter& JsonWriter::value(const char* v) { return value(std::string(v)); }

JsonWriter& JsonWriter::value(double v) {
  separator();
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::value(uint64_t v) {
  separator();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(int64_t v) {
  separator();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  separator();
  out_ += v ? "true" : "false";
  return *this;
}

}  // namespace lockss::campaign
