#include "src/trace/trace_json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

namespace odyssey {
namespace {

class Parser {
 public:
  Parser(const std::string& text, std::string* error) : text_(text), error_(error) {}

  JsonValue Parse() {
    JsonValue value = ParseValue();
    if (failed_) {
      return JsonValue();
    }
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Fail("trailing characters after document");
    }
    error_->clear();
    return value;
  }

 private:
  JsonValue Fail(const std::string& message) {
    if (!failed_) {
      failed_ = true;
      *error_ = message + " at offset " + std::to_string(pos_);
    }
    return JsonValue();
  }

  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') {
        break;
      }
      ++pos_;
    }
  }

  bool Consume(char expected) {
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == expected) {
      ++pos_;
      return true;
    }
    return false;
  }

  JsonValue ParseValue() {
    SkipWhitespace();
    if (pos_ >= text_.size()) {
      return Fail("unexpected end of document");
    }
    const char c = text_[pos_];
    switch (c) {
      case '{':
      case '[': {
        if (depth_ == kMaxJsonDepth) {
          return Fail("nesting deeper than " + std::to_string(kMaxJsonDepth) + " levels");
        }
        ++depth_;
        JsonValue value = c == '{' ? ParseObject() : ParseArray();
        --depth_;
        return value;
      }
      case '"':
        return ParseString();
      case 't':
      case 'f':
        return ParseKeyword();
      case 'n':
        return ParseNull();
      default:
        return ParseNumber();
    }
  }

  JsonValue ParseObject() {
    ++pos_;  // '{'
    std::map<std::string, JsonValue> members;
    SkipWhitespace();
    if (Consume('}')) {
      return JsonValue::MakeObject(std::move(members));
    }
    while (true) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Fail("expected object key");
      }
      JsonValue key = ParseString();
      if (failed_) {
        return JsonValue();
      }
      if (!Consume(':')) {
        return Fail("expected ':' after object key");
      }
      JsonValue value = ParseValue();
      if (failed_) {
        return JsonValue();
      }
      members[key.string_value()] = std::move(value);
      if (Consume(',')) {
        continue;
      }
      if (Consume('}')) {
        return JsonValue::MakeObject(std::move(members));
      }
      return Fail("expected ',' or '}' in object");
    }
  }

  JsonValue ParseArray() {
    ++pos_;  // '['
    std::vector<JsonValue> items;
    SkipWhitespace();
    if (Consume(']')) {
      return JsonValue::MakeArray(std::move(items));
    }
    while (true) {
      JsonValue value = ParseValue();
      if (failed_) {
        return JsonValue();
      }
      items.push_back(std::move(value));
      if (Consume(',')) {
        continue;
      }
      if (Consume(']')) {
        return JsonValue::MakeArray(std::move(items));
      }
      return Fail("expected ',' or ']' in array");
    }
  }

  JsonValue ParseString() {
    ++pos_;  // '"'
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return JsonValue::MakeString(std::move(out));
      }
      if (c == '\\') {
        if (pos_ + 1 >= text_.size()) {
          return Fail("truncated escape sequence");
        }
        const char esc = text_[pos_ + 1];
        pos_ += 2;
        switch (esc) {
          case '"':
            out.push_back('"');
            break;
          case '\\':
            out.push_back('\\');
            break;
          case '/':
            out.push_back('/');
            break;
          case 'b':
            out.push_back('\b');
            break;
          case 'f':
            out.push_back('\f');
            break;
          case 'n':
            out.push_back('\n');
            break;
          case 'r':
            out.push_back('\r');
            break;
          case 't':
            out.push_back('\t');
            break;
          case 'u': {
            if (pos_ + 4 > text_.size()) {
              return Fail("truncated \\u escape");
            }
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_ + static_cast<size_t>(i)];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                return Fail("bad \\u escape");
              }
            }
            pos_ += 4;
            // Traces are ASCII; encode anything else as UTF-8.
            if (code < 0x80) {
              out.push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out.push_back(static_cast<char>(0xC0 | (code >> 6)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else {
              out.push_back(static_cast<char>(0xE0 | (code >> 12)));
              out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            }
            break;
          }
          default:
            return Fail("unknown escape sequence");
        }
        continue;
      }
      out.push_back(c);
      ++pos_;
    }
    return Fail("unterminated string");
  }

  JsonValue ParseKeyword() {
    if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      return JsonValue::MakeBool(true);
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      return JsonValue::MakeBool(false);
    }
    return Fail("unknown keyword");
  }

  JsonValue ParseNull() {
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return JsonValue::MakeNull();
    }
    return Fail("unknown keyword");
  }

  JsonValue ParseNumber() {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) {
      return Fail("expected a value");
    }
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      return Fail("malformed number '" + token + "'");
    }
    // strtod turns an exponent past the double range into infinity, which
    // JSON cannot carry back out.
    if (!std::isfinite(value)) {
      return Fail("number out of range '" + token + "'");
    }
    return JsonValue::MakeNumber(value);
  }

  const std::string& text_;
  std::string* error_;
  size_t pos_ = 0;
  int depth_ = 0;
  bool failed_ = false;
};

}  // namespace

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (!is_object()) {
    return nullptr;
  }
  const auto it = object_.find(key);
  return it == object_.end() ? nullptr : &it->second;
}

JsonValue JsonValue::MakeBool(bool v) {
  JsonValue out;
  out.kind_ = Kind::kBool;
  out.bool_ = v;
  return out;
}

JsonValue JsonValue::MakeNumber(double v) {
  JsonValue out;
  out.kind_ = Kind::kNumber;
  out.number_ = v;
  return out;
}

JsonValue JsonValue::MakeString(std::string v) {
  JsonValue out;
  out.kind_ = Kind::kString;
  out.string_ = std::move(v);
  return out;
}

JsonValue JsonValue::MakeArray(std::vector<JsonValue> v) {
  JsonValue out;
  out.kind_ = Kind::kArray;
  out.array_ = std::move(v);
  return out;
}

JsonValue JsonValue::MakeObject(std::map<std::string, JsonValue> v) {
  JsonValue out;
  out.kind_ = Kind::kObject;
  out.object_ = std::move(v);
  return out;
}

JsonValue ParseJson(const std::string& text, std::string* error) {
  return Parser(text, error).Parse();
}

std::string JsonQuote(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  out.push_back('"');
  for (const char c : text) {
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
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out.push_back(c);
        }
        break;
    }
  }
  out.push_back('"');
  return out;
}

std::string JsonNumberToString(double value) {
  // Integral values (timestamps, ids, byte counts) print without a
  // fraction; everything else uses enough digits to round-trip, so the
  // canonical form of a number is a pure function of its bits.
  if (std::isfinite(value) && std::floor(value) == value &&
      std::fabs(value) < 9.007199254740992e15) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.0f", value);
    return buffer;
  }
  if (!std::isfinite(value)) {
    return "0";  // JSON has no Inf/NaN; traces never contain them
  }
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace odyssey
