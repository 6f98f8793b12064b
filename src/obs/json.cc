#include "obs/json.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace eos {
namespace obs {

JsonValue JsonValue::Bool(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::Number(double d) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = d;
  return v;
}

JsonValue JsonValue::Str(std::string s) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::Array() {
  JsonValue v;
  v.kind_ = Kind::kArray;
  return v;
}

JsonValue JsonValue::Object() {
  JsonValue v;
  v.kind_ = Kind::kObject;
  return v;
}

uint64_t JsonValue::u64() const {
  if (number_ <= 0) return 0;
  return static_cast<uint64_t>(number_ + 0.5);
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

double JsonValue::NumberOr(const std::string& key, double fallback) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->is_number()) ? v->number() : fallback;
}

void JsonValue::Set(std::string key, JsonValue v) {
  if (kind_ != Kind::kObject) return;
  for (auto& [k, old] : members_) {
    if (k == key) {
      old = std::move(v);
      return;
    }
  }
  members_.emplace_back(std::move(key), std::move(v));
}

void JsonValue::Push(JsonValue v) {
  if (kind_ != Kind::kArray) return;
  elements_.push_back(std::move(v));
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
          out += c;
        }
    }
  }
  return out;
}

namespace {

void DumpNumber(double d, std::string* out) {
  // Integral values (the overwhelmingly common case for counters) print
  // without a decimal point so they parse back exactly.
  if (std::isfinite(d) && d == std::floor(d) && std::fabs(d) < 1e18) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(d));
    *out += buf;
  } else {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", d);
    *out += buf;
  }
}

}  // namespace

std::string JsonValue::Dump() const {
  std::string out;
  switch (kind_) {
    case Kind::kNull:
      out = "null";
      break;
    case Kind::kBool:
      out = bool_ ? "true" : "false";
      break;
    case Kind::kNumber:
      DumpNumber(number_, &out);
      break;
    case Kind::kString:
      out = "\"" + JsonEscape(string_) + "\"";
      break;
    case Kind::kArray: {
      out = "[";
      for (size_t i = 0; i < elements_.size(); ++i) {
        if (i > 0) out += ",";
        out += elements_[i].Dump();
      }
      out += "]";
      break;
    }
    case Kind::kObject: {
      out = "{";
      for (size_t i = 0; i < members_.size(); ++i) {
        if (i > 0) out += ",";
        out += "\"" + JsonEscape(members_[i].first) + "\":";
        out += members_[i].second.Dump();
      }
      out += "}";
      break;
    }
  }
  return out;
}

namespace {

// Recursive-descent parser over [p, end).
class Parser {
 public:
  Parser(const char* p, const char* end) : p_(p), end_(end) {}

  StatusOr<JsonValue> ParseValue() {
    SkipWs();
    if (p_ >= end_) return Err("unexpected end of input");
    switch (*p_) {
      case '{': return ParseObject();
      case '[': return ParseArray();
      case '"': {
        EOS_ASSIGN_OR_RETURN(std::string s, ParseString());
        return JsonValue::Str(std::move(s));
      }
      case 't':
        EOS_RETURN_IF_ERROR(Expect("true"));
        return JsonValue::Bool(true);
      case 'f':
        EOS_RETURN_IF_ERROR(Expect("false"));
        return JsonValue::Bool(false);
      case 'n':
        EOS_RETURN_IF_ERROR(Expect("null"));
        return JsonValue();
      default: return ParseNumber();
    }
  }

  Status Finish() {
    SkipWs();
    if (p_ != end_) return Err("trailing characters after JSON value");
    return Status::OK();
  }

 private:
  Status Err(const std::string& what) const {
    return Status::InvalidArgument("json: " + what + " at offset " +
                                   std::to_string(offset_base_ + used()));
  }

  size_t used() const { return static_cast<size_t>(p_ - start_); }

  void SkipWs() {
    while (p_ < end_ && (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' ||
                         *p_ == '\r')) {
      ++p_;
    }
  }

  Status Expect(const char* word) {
    for (const char* w = word; *w != '\0'; ++w, ++p_) {
      if (p_ >= end_ || *p_ != *w) return Err("bad literal");
    }
    return Status::OK();
  }

  StatusOr<JsonValue> ParseNumber() {
    const char* s = p_;
    if (p_ < end_ && (*p_ == '-' || *p_ == '+')) ++p_;
    while (p_ < end_ && (std::isdigit(static_cast<unsigned char>(*p_)) ||
                         *p_ == '.' || *p_ == 'e' || *p_ == 'E' ||
                         *p_ == '+' || *p_ == '-')) {
      ++p_;
    }
    if (p_ == s) return Err("expected a value");
    std::string text(s, p_);
    char* parse_end = nullptr;
    double d = std::strtod(text.c_str(), &parse_end);
    if (parse_end != text.c_str() + text.size()) return Err("bad number");
    return JsonValue::Number(d);
  }

  StatusOr<std::string> ParseString() {
    ++p_;  // opening quote
    std::string out;
    while (p_ < end_ && *p_ != '"') {
      char c = *p_++;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (p_ >= end_) return Err("unterminated escape");
      char e = *p_++;
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (end_ - p_ < 4) return Err("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = *p_++;
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return Err("bad \\u escape");
          }
          // Snapshots only ever contain ASCII; encode the rest as UTF-8.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: return Err("unknown escape");
      }
    }
    if (p_ >= end_) return Err("unterminated string");
    ++p_;  // closing quote
    return out;
  }

  StatusOr<JsonValue> ParseArray() {
    ++p_;  // '['
    JsonValue arr = JsonValue::Array();
    SkipWs();
    if (p_ < end_ && *p_ == ']') {
      ++p_;
      return arr;
    }
    while (true) {
      EOS_ASSIGN_OR_RETURN(JsonValue v, ParseValue());
      arr.Push(std::move(v));
      SkipWs();
      if (p_ >= end_) return Err("unterminated array");
      if (*p_ == ',') {
        ++p_;
        continue;
      }
      if (*p_ == ']') {
        ++p_;
        return arr;
      }
      return Err("expected ',' or ']'");
    }
  }

  StatusOr<JsonValue> ParseObject() {
    ++p_;  // '{'
    JsonValue obj = JsonValue::Object();
    SkipWs();
    if (p_ < end_ && *p_ == '}') {
      ++p_;
      return obj;
    }
    while (true) {
      SkipWs();
      if (p_ >= end_ || *p_ != '"') return Err("expected object key");
      EOS_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipWs();
      if (p_ >= end_ || *p_ != ':') return Err("expected ':'");
      ++p_;
      EOS_ASSIGN_OR_RETURN(JsonValue v, ParseValue());
      obj.Set(std::move(key), std::move(v));
      SkipWs();
      if (p_ >= end_) return Err("unterminated object");
      if (*p_ == ',') {
        ++p_;
        continue;
      }
      if (*p_ == '}') {
        ++p_;
        return obj;
      }
      return Err("expected ',' or '}'");
    }
  }

  const char* p_;
  const char* end_;
  const char* start_ = p_;
  size_t offset_base_ = 0;
};

}  // namespace

StatusOr<JsonValue> JsonValue::Parse(const std::string& text) {
  Parser parser(text.data(), text.data() + text.size());
  EOS_ASSIGN_OR_RETURN(JsonValue v, parser.ParseValue());
  EOS_RETURN_IF_ERROR(parser.Finish());
  return v;
}

Status WriteJsonFile(const std::string& path, const std::string& json) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IOError("open(" + path + "): " + std::strerror(errno));
  }
  size_t put = std::fwrite(json.data(), 1, json.size(), f);
  int werr = std::ferror(f);
  if (std::fputc('\n', f) == EOF) werr = 1;
  if (std::fclose(f) != 0 || werr != 0 || put != json.size()) {
    return Status::IOError("write(" + path + ") failed");
  }
  return Status::OK();
}

}  // namespace obs
}  // namespace eos
