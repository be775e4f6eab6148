#include "util/json_reader.h"

#include <cctype>

#include "util/string_util.h"

namespace wtpgsched {

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [name, value] : items_) {
    if (name == key) return &value;
  }
  return nullptr;
}

// Recursive-descent parser over the whole document string.
class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  StatusOr<JsonValue> Parse() {
    JsonValue value;
    Status status = ParseValue(&value);
    if (!status.ok()) return status;
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return value;
  }

 private:
  Status Error(const std::string& message) const {
    return Status::InvalidArgument(
        StrCat("JSON parse error at offset ", pos_, ": ", message));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(const char* literal) {
    size_t n = 0;
    while (literal[n] != '\0') ++n;
    if (text_.compare(pos_, n, literal) != 0) return false;
    pos_ += n;
    return true;
  }

  Status ParseString(std::string* out) {
    if (!Consume('"')) return Error("expected '\"'");
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return Status::Ok();
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': *out += '"'; break;
          case '\\': *out += '\\'; break;
          case '/': *out += '/'; break;
          case 'b': *out += '\b'; break;
          case 'f': *out += '\f'; break;
          case 'n': *out += '\n'; break;
          case 'r': *out += '\r'; break;
          case 't': *out += '\t'; break;
          case 'u': {
            // \uXXXX: decode the BMP code point to UTF-8 (no surrogate
            // pairs — this library never writes them).
            if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
              else return Error("bad \\u escape digit");
            }
            if (code < 0x80) {
              *out += static_cast<char>(code);
            } else if (code < 0x800) {
              *out += static_cast<char>(0xC0 | (code >> 6));
              *out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              *out += static_cast<char>(0xE0 | (code >> 12));
              *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              *out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default:
            return Error("unknown escape");
        }
      } else {
        *out += c;
      }
    }
    return Error("unterminated string");
  }

  Status ParseValue(JsonValue* out) {
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{' || c == '[') {
      if (depth_ == kMaxJsonDepth) {
        return Error(StrCat("nesting deeper than ", kMaxJsonDepth));
      }
      ++depth_;
      Status status = c == '{' ? ParseObject(out) : ParseArray(out);
      --depth_;
      return status;
    }
    if (c == '"') {
      out->type_ = JsonValue::Type::kString;
      return ParseString(&out->string_value_);
    }
    if (ConsumeLiteral("true")) {
      out->type_ = JsonValue::Type::kBool;
      out->bool_value_ = true;
      return Status::Ok();
    }
    if (ConsumeLiteral("false")) {
      out->type_ = JsonValue::Type::kBool;
      out->bool_value_ = false;
      return Status::Ok();
    }
    if (ConsumeLiteral("null")) {
      out->type_ = JsonValue::Type::kNull;
      return Status::Ok();
    }
    return ParseNumber(out);
  }

  Status ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (Consume('-')) {}
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    out->string_value_ = text_.substr(start, pos_ - start);
    if (pos_ == start ||
        !ParseDouble(out->string_value_, &out->number_value_)) {
      return Error("bad number");
    }
    out->type_ = JsonValue::Type::kNumber;
    return Status::Ok();
  }

  Status ParseObject(JsonValue* out) {
    Consume('{');
    out->type_ = JsonValue::Type::kObject;
    SkipWhitespace();
    if (Consume('}')) return Status::Ok();
    while (true) {
      SkipWhitespace();
      std::string key;
      Status status = ParseString(&key);
      if (!status.ok()) return status;
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':'");
      JsonValue value;
      status = ParseValue(&value);
      if (!status.ok()) return status;
      out->items_.emplace_back(std::move(key), std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume('}')) return Status::Ok();
      return Error("expected ',' or '}'");
    }
  }

  Status ParseArray(JsonValue* out) {
    Consume('[');
    out->type_ = JsonValue::Type::kArray;
    SkipWhitespace();
    if (Consume(']')) return Status::Ok();
    while (true) {
      JsonValue value;
      Status status = ParseValue(&value);
      if (!status.ok()) return status;
      out->elements_.push_back(std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume(']')) return Status::Ok();
      return Error("expected ',' or ']'");
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
  int depth_ = 0;  // Open arrays and objects around pos_.
};

StatusOr<JsonValue> ParseJson(const std::string& text) {
  return JsonParser(text).Parse();
}

}  // namespace wtpgsched
