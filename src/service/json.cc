#include "service/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace licm::service {
namespace {

constexpr int kMaxDepth = 32;

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  Result<JsonValue> Parse() {
    JsonValue v;
    LICM_RETURN_NOT_OK(ParseValue(&v, 0));
    SkipWs();
    if (pos_ != s_.size()) {
      return Err("trailing content after JSON value");
    }
    return v;
  }

 private:
  Status Err(const std::string& what) const {
    return Status::InvalidArgument("JSON parse error at offset " +
                                   std::to_string(pos_) + ": " + what);
  }

  void SkipWs() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status Expect(char c) {
    if (!Consume(c)) {
      return Err(std::string("expected '") + c + "'");
    }
    return Status::OK();
  }

  Status ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Err("nesting too deep");
    SkipWs();
    if (pos_ >= s_.size()) return Err("unexpected end of input");
    const char c = s_[pos_];
    switch (c) {
      case '{': return ParseObject(out, depth);
      case '[': return ParseArray(out, depth);
      case '"':
        out->kind = JsonValue::Kind::kString;
        return ParseString(&out->string);
      case 't':
      case 'f': return ParseLiteral(out);
      case 'n': return ParseLiteral(out);
      default: return ParseNumber(out);
    }
  }

  Status ParseLiteral(JsonValue* out) {
    auto match = [&](const char* word) {
      const size_t n = std::char_traits<char>::length(word);
      if (s_.compare(pos_, n, word) != 0) return false;
      pos_ += n;
      return true;
    };
    if (match("true")) {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = true;
      return Status::OK();
    }
    if (match("false")) {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = false;
      return Status::OK();
    }
    if (match("null")) {
      out->kind = JsonValue::Kind::kNull;
      return Status::OK();
    }
    return Err("unknown literal");
  }

  Status ParseNumber(JsonValue* out) {
    const char* begin = s_.c_str() + pos_;
    char* end = nullptr;
    const double v = std::strtod(begin, &end);
    if (end == begin || !std::isfinite(v)) return Err("malformed number");
    pos_ += static_cast<size_t>(end - begin);
    out->kind = JsonValue::Kind::kNumber;
    out->number = v;
    return Status::OK();
  }

  Status ParseString(std::string* out) {
    LICM_RETURN_NOT_OK(Expect('"'));
    out->clear();
    while (true) {
      if (pos_ >= s_.size()) return Err("unterminated string");
      char c = s_[pos_++];
      if (c == '"') return Status::OK();
      if (static_cast<unsigned char>(c) < 0x20) {
        return Err("raw control character in string");
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) return Err("unterminated escape");
      c = s_[pos_++];
      switch (c) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          unsigned code = 0;
          LICM_RETURN_NOT_OK(ParseHex4(&code));
          AppendUtf8(code, out);
          break;
        }
        default: return Err("unknown escape");
      }
    }
  }

  Status ParseHex4(unsigned* out) {
    if (pos_ + 4 > s_.size()) return Err("truncated \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = s_[pos_++];
      code <<= 4;
      if (c >= '0' && c <= '9') code |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') code |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') code |= static_cast<unsigned>(c - 'A' + 10);
      else return Err("bad hex digit in \\u escape");
    }
    *out = code;
    return Status::OK();
  }

  // Basic-plane code point -> UTF-8 (surrogate pairs are passed through as
  // individual code units; the protocol never emits them).
  static void AppendUtf8(unsigned code, std::string* out) {
    if (code < 0x80) {
      out->push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (code >> 6)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xE0 | (code >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  Status ParseObject(JsonValue* out, int depth) {
    LICM_RETURN_NOT_OK(Expect('{'));
    out->kind = JsonValue::Kind::kObject;
    SkipWs();
    if (Consume('}')) return Status::OK();
    while (true) {
      SkipWs();
      std::string key;
      LICM_RETURN_NOT_OK(ParseString(&key));
      SkipWs();
      LICM_RETURN_NOT_OK(Expect(':'));
      JsonValue v;
      LICM_RETURN_NOT_OK(ParseValue(&v, depth + 1));
      out->object.emplace_back(std::move(key), std::move(v));
      SkipWs();
      if (Consume('}')) return Status::OK();
      LICM_RETURN_NOT_OK(Expect(','));
    }
  }

  Status ParseArray(JsonValue* out, int depth) {
    LICM_RETURN_NOT_OK(Expect('['));
    out->kind = JsonValue::Kind::kArray;
    SkipWs();
    if (Consume(']')) return Status::OK();
    while (true) {
      JsonValue v;
      LICM_RETURN_NOT_OK(ParseValue(&v, depth + 1));
      out->array.push_back(std::move(v));
      SkipWs();
      if (Consume(']')) return Status::OK();
      LICM_RETURN_NOT_OK(Expect(','));
    }
  }

  const std::string& s_;
  size_t pos_ = 0;
};

}  // namespace

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  const JsonValue* found = nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) found = &v;
  }
  return found;
}

Result<double> JsonValue::GetNumber(const std::string& key,
                                    double def) const {
  const JsonValue* v = Find(key);
  if (v == nullptr) return def;
  if (v->kind != Kind::kNumber) {
    return Status::InvalidArgument("field '" + key + "' must be a number");
  }
  return v->number;
}

Result<int64_t> JsonValue::GetInt(const std::string& key, int64_t def) const {
  LICM_ASSIGN_OR_RETURN(double d, GetNumber(key, static_cast<double>(def)));
  if (d != std::floor(d)) {
    return Status::InvalidArgument("field '" + key + "' must be an integer");
  }
  // [-2^63, 2^63) is exactly the set of doubles that convert to int64_t;
  // the conversion of anything else (1e300, inf) is undefined.
  if (!(d >= -0x1p63 && d < 0x1p63)) {
    return Status::InvalidArgument("field '" + key +
                                   "' is out of the 64-bit integer range");
  }
  return static_cast<int64_t>(d);
}

Result<std::string> JsonValue::GetString(const std::string& key,
                                         const std::string& def) const {
  const JsonValue* v = Find(key);
  if (v == nullptr) return def;
  if (v->kind != Kind::kString) {
    return Status::InvalidArgument("field '" + key + "' must be a string");
  }
  return v->string;
}

Result<bool> JsonValue::GetBool(const std::string& key, bool def) const {
  const JsonValue* v = Find(key);
  if (v == nullptr) return def;
  if (v->kind != Kind::kBool) {
    return Status::InvalidArgument("field '" + key + "' must be a boolean");
  }
  return v->boolean;
}

Result<JsonValue> ParseJson(const std::string& text) {
  return Parser(text).Parse();
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

}  // namespace licm::service
