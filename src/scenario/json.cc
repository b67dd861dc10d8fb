#include "scenario/json.h"

#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util/fsio.h"

namespace cpt::scenario {

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

// Strict recursive-descent parser. Depth-limited (manifests are shallow);
// positions track line numbers for error messages.
class JsonParser {
 public:
  JsonParser(std::string_view text, std::string* error)
      : text_(text), error_(error) {}

  bool run(JsonValue* out) {
    skip_ws();
    if (!parse_value(out, 0)) return false;
    skip_ws();
    if (pos_ != text_.size()) return fail("trailing characters after document");
    return true;
  }

 private:
  static constexpr int kMaxDepth = 32;

  bool fail(const std::string& msg) {
    if (error_ != nullptr && error_->empty()) {
      *error_ = "line " + std::to_string(line_) + ": " + msg;
    }
    return false;
  }

  bool eof() const { return pos_ >= text_.size(); }
  char peek() const { return text_[pos_]; }

  void skip_ws() {
    while (!eof()) {
      const char c = peek();
      if (c == '\n') ++line_;
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  bool consume(char c, const char* what) {
    if (eof() || peek() != c) return fail(std::string("expected ") + what);
    ++pos_;
    return true;
  }

  bool parse_value(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    if (eof()) return fail("unexpected end of input");
    switch (peek()) {
      case '{': return parse_object(out, depth);
      case '[': return parse_array(out, depth);
      case '"':
        out->kind_ = JsonValue::Kind::kString;
        return parse_string(&out->str_);
      case 't':
      case 'f': return parse_literal(out);
      case 'n': return parse_literal(out);
      default: return parse_number(out);
    }
  }

  bool parse_object(JsonValue* out, int depth) {
    out->kind_ = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (!eof() && peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (eof() || peek() != '"') return fail("expected object key");
      if (!parse_string(&key)) return false;
      skip_ws();
      if (!consume(':', "':'")) return false;
      skip_ws();
      JsonValue v;
      if (!parse_value(&v, depth + 1)) return false;
      for (const auto& [k, unused] : out->members_) {
        (void)unused;
        if (k == key) return fail("duplicate object key \"" + key + "\"");
      }
      out->members_.emplace_back(std::move(key), std::move(v));
      skip_ws();
      if (eof()) return fail("unterminated object");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      return consume('}', "'}' or ','");
    }
  }

  bool parse_array(JsonValue* out, int depth) {
    out->kind_ = JsonValue::Kind::kArray;
    ++pos_;  // '['
    skip_ws();
    if (!eof() && peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      JsonValue v;
      if (!parse_value(&v, depth + 1)) return false;
      out->items_.push_back(std::move(v));
      skip_ws();
      if (eof()) return fail("unterminated array");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      return consume(']', "']' or ','");
    }
  }

  // Four hex digits after "\u"; advances past them.
  bool parse_u_hex4(unsigned* out) {
    if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = text_[pos_++];
      code <<= 4;
      if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
      else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
      else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
      else return fail("bad \\u escape");
    }
    *out = code;
    return true;
  }

  // Encodes one Unicode scalar value (<= 0x10ffff, surrogates excluded by
  // the caller) as UTF-8.
  static void append_utf8(std::string* out, unsigned code) {
    if (code <= 0x7f) {
      out->push_back(static_cast<char>(code));
    } else if (code <= 0x7ff) {
      out->push_back(static_cast<char>(0xc0 | (code >> 6)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3f)));
    } else if (code <= 0xffff) {
      out->push_back(static_cast<char>(0xe0 | (code >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3f)));
    } else {
      out->push_back(static_cast<char>(0xf0 | (code >> 18)));
      out->push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3f)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3f)));
    }
  }

  bool parse_string(std::string* out) {
    ++pos_;  // opening quote
    while (true) {
      if (eof()) return fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\n') return fail("raw newline in string");
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (eof()) return fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'n': out->push_back('\n'); break;
        case 't': out->push_back('\t'); break;
        case 'r': out->push_back('\r'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'u': {
          unsigned code = 0;
          if (!parse_u_hex4(&code)) return false;
          // Surrogate pairs: a high surrogate must be immediately followed
          // by an escaped low surrogate (JSON strings cannot carry raw
          // UTF-16); anything else -- a lone half in either order -- is a
          // hard parse error, never silently passed through.
          if (code >= 0xd800 && code <= 0xdbff) {
            if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              return fail("high surrogate \\u escape without a low "
                          "surrogate pair");
            }
            pos_ += 2;
            unsigned low = 0;
            if (!parse_u_hex4(&low)) return false;
            if (low < 0xdc00 || low > 0xdfff) {
              return fail("high surrogate \\u escape paired with a "
                          "non-low-surrogate");
            }
            code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
          } else if (code >= 0xdc00 && code <= 0xdfff) {
            return fail("lone low surrogate \\u escape");
          }
          append_utf8(out, code);
          break;
        }
        default: return fail("unknown escape");
      }
    }
  }

  bool parse_literal(JsonValue* out) {
    const std::string_view rest = text_.substr(pos_);
    if (rest.rfind("true", 0) == 0) {
      out->kind_ = JsonValue::Kind::kBool;
      out->bool_ = true;
      pos_ += 4;
      return true;
    }
    if (rest.rfind("false", 0) == 0) {
      out->kind_ = JsonValue::Kind::kBool;
      out->bool_ = false;
      pos_ += 5;
      return true;
    }
    if (rest.rfind("null", 0) == 0) {
      out->kind_ = JsonValue::Kind::kNull;
      pos_ += 4;
      return true;
    }
    return fail("unknown literal");
  }

  bool parse_number(JsonValue* out) {
    const std::size_t start = pos_;
    bool is_int = true;
    if (!eof() && peek() == '-') ++pos_;
    while (!eof()) {
      const char c = peek();
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        is_int = false;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) return fail("expected a value");
    const std::string token(text_.substr(start, pos_ - start));
    out->kind_ = JsonValue::Kind::kNumber;
    errno = 0;
    if (is_int) {
      char* end = nullptr;
      const long long v = std::strtoll(token.c_str(), &end, 10);
      if (errno == 0 && end != nullptr && *end == '\0') {
        out->is_int_ = true;
        out->int_ = v;
        return true;
      }
      errno = 0;  // overflowed int64: fall through to double
    }
    char* end = nullptr;
    const double d = std::strtod(token.c_str(), &end);
    if (errno != 0 || end == nullptr || *end != '\0') {
      return fail("bad number \"" + token + "\"");
    }
    out->is_int_ = false;
    out->dbl_ = d;
    return true;
  }

  std::string_view text_;
  std::string* error_;
  std::size_t pos_ = 0;
  int line_ = 1;
};

bool JsonValue::parse(std::string_view text, JsonValue* out,
                      std::string* error) {
  *out = JsonValue();
  if (error != nullptr) error->clear();
  return JsonParser(text, error).run(out);
}

bool read_text_file(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  out->clear();
  char buf[4096];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) {
    out->append(buf, got);
  }
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

bool write_text_file(const std::string& path, std::string_view body) {
  // tmp + fsync + durable rename (the parent directory is fsynced too, so
  // the new entry survives a crash): consumers of these files (aggregate
  // JSON/CSV, timing docs) treat existence as completeness, so a crashed
  // or failed writer must leave either the old content or nothing --
  // never a truncated file that looks finished.
  // unique_tmp_path: two concurrent cpt_batch processes may publish the
  // same output path; a shared ".tmp" name
  // would let one writer's rename publish the other's partial bytes.
  const std::string tmp_path = unique_tmp_path(path);
  std::FILE* f = std::fopen(tmp_path.c_str(), "wb");
  if (f == nullptr) return false;
  bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  ok = ok && std::fflush(f) == 0 && ::fsync(fileno(f)) == 0;
  ok = (std::fclose(f) == 0) && ok;
  if (ok) ok = durable_rename(tmp_path, path);
  if (!ok) std::remove(tmp_path.c_str());
  return ok;
}

}  // namespace cpt::scenario
