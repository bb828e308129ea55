#include "support/json.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "support/error.h"
#include "support/str.h"

namespace srra {

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;  // UTF-8 bytes pass through unchanged
        }
    }
  }
  return out;
}

void JsonWriter::indent() {
  os_ << '\n';
  for (std::size_t i = 0; i < stack_.size(); ++i) os_ << "  ";
}

void JsonWriter::begin_value() {
  check(!done_, "JsonWriter: document already complete");
  if (stack_.empty()) return;  // root value
  if (stack_.back() == Scope::kObject) {
    check(key_pending_, "JsonWriter: object member needs key() first");
    key_pending_ = false;
    return;  // key() already wrote separator + indentation
  }
  if (has_items_.back()) os_ << ',';
  indent();
  has_items_.back() = true;
}

void JsonWriter::key(std::string_view name) {
  check(!stack_.empty() && stack_.back() == Scope::kObject,
        "JsonWriter: key() outside an object");
  check(!key_pending_, "JsonWriter: key() while a key is already pending");
  if (has_items_.back()) os_ << ',';
  indent();
  has_items_.back() = true;
  os_ << '"' << json_escape(name) << "\": ";
  key_pending_ = true;
}

void JsonWriter::open(Scope scope, char bracket) {
  begin_value();
  os_ << bracket;
  stack_.push_back(scope);
  has_items_.push_back(false);
}

void JsonWriter::close(Scope scope, char bracket) {
  check(!stack_.empty() && stack_.back() == scope && !key_pending_,
        "JsonWriter: unbalanced end of scope");
  const bool had_items = has_items_.back();
  stack_.pop_back();
  has_items_.pop_back();
  if (had_items) indent();
  os_ << bracket;
  if (stack_.empty()) {
    os_ << '\n';
    done_ = true;
  }
}

void JsonWriter::begin_object() { open(Scope::kObject, '{'); }
void JsonWriter::end_object() { close(Scope::kObject, '}'); }
void JsonWriter::begin_array() { open(Scope::kArray, '['); }
void JsonWriter::end_array() { close(Scope::kArray, ']'); }

void JsonWriter::value(std::string_view text) {
  begin_value();
  os_ << '"' << json_escape(text) << '"';
  if (stack_.empty()) { os_ << '\n'; done_ = true; }
}

void JsonWriter::value(std::int64_t number) {
  begin_value();
  os_ << number;
  if (stack_.empty()) { os_ << '\n'; done_ = true; }
}

void JsonWriter::value(double number) {
  begin_value();
  if (!std::isfinite(number)) {
    os_ << "null";
  } else {
    // %.12g is locale-independent with snprintf on the platforms we target
    // and round-trips every value the models produce.
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.12g", number);
    os_ << buf;
  }
  if (stack_.empty()) { os_ << '\n'; done_ = true; }
}

void JsonWriter::value(bool flag) {
  begin_value();
  os_ << (flag ? "true" : "false");
  if (stack_.empty()) { os_ << '\n'; done_ = true; }
}

void JsonWriter::null() {
  begin_value();
  os_ << "null";
  if (stack_.empty()) { os_ << '\n'; done_ = true; }
}

void JsonWriter::splice(std::string_view document) {
  if (!document.empty() && document.back() == '\n') document.remove_suffix(1);
  check(!document.empty(), "JsonWriter: splice of an empty document");
  begin_value();
  std::size_t from = 0;
  for (std::size_t eol = document.find('\n'); eol != std::string_view::npos;
       eol = document.find('\n', from)) {
    os_.write(document.data() + from, static_cast<std::streamsize>(eol + 1 - from));
    for (std::size_t i = 0; i < stack_.size(); ++i) os_ << "  ";
    from = eol + 1;
  }
  os_.write(document.data() + from, static_cast<std::streamsize>(document.size() - from));
  if (stack_.empty()) { os_ << '\n'; done_ = true; }
}

// ----------------------------------------------------------------- JsonValue

JsonValue JsonValue::make_bool(bool v) {
  JsonValue j;
  j.kind_ = Kind::kBool;
  j.bool_ = v;
  return j;
}

JsonValue JsonValue::make_int(std::int64_t v) {
  JsonValue j;
  j.kind_ = Kind::kInt;
  j.int_ = v;
  return j;
}

JsonValue JsonValue::make_double(double v) {
  JsonValue j;
  j.kind_ = Kind::kDouble;
  j.double_ = v;
  return j;
}

JsonValue JsonValue::make_string(std::string v) {
  JsonValue j;
  j.kind_ = Kind::kString;
  j.string_ = std::move(v);
  return j;
}

JsonValue JsonValue::make_array() {
  JsonValue j;
  j.kind_ = Kind::kArray;
  return j;
}

JsonValue JsonValue::make_object() {
  JsonValue j;
  j.kind_ = Kind::kObject;
  return j;
}

bool JsonValue::as_bool() const {
  check(kind_ == Kind::kBool, "JsonValue: not a boolean");
  return bool_;
}

std::int64_t JsonValue::as_int() const {
  check(kind_ == Kind::kInt, "JsonValue: not an integer");
  return int_;
}

double JsonValue::as_double() const {
  check(is_number(), "JsonValue: not a number");
  return kind_ == Kind::kInt ? static_cast<double>(int_) : double_;
}

const std::string& JsonValue::as_string() const {
  check(kind_ == Kind::kString, "JsonValue: not a string");
  return string_;
}

const std::vector<JsonValue>& JsonValue::items() const {
  check(kind_ == Kind::kArray, "JsonValue: not an array");
  return items_;
}

const std::vector<JsonValue::Member>& JsonValue::members() const {
  check(kind_ == Kind::kObject, "JsonValue: not an object");
  return members_;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const Member& member : members_) {
    if (member.first == key) return &member.second;
  }
  return nullptr;
}

void JsonValue::push_back(JsonValue v) {
  check(kind_ == Kind::kArray, "JsonValue: push_back on a non-array");
  items_.push_back(std::move(v));
}

void JsonValue::set(std::string key, JsonValue v) {
  check(kind_ == Kind::kObject, "JsonValue: set on a non-object");
  for (Member& member : members_) {
    if (member.first == key) {
      member.second = std::move(v);
      return;
    }
  }
  members_.emplace_back(std::move(key), std::move(v));
}

void JsonValue::write(JsonWriter& json) const {
  switch (kind_) {
    case Kind::kNull: json.null(); return;
    case Kind::kBool: json.value(bool_); return;
    case Kind::kInt: json.value(int_); return;
    case Kind::kDouble: json.value(double_); return;
    case Kind::kString: json.value(string_); return;
    case Kind::kArray:
      json.begin_array();
      for (const JsonValue& item : items_) item.write(json);
      json.end_array();
      return;
    case Kind::kObject:
      json.begin_object();
      for (const Member& member : members_) {
        json.key(member.first);
        member.second.write(json);
      }
      json.end_object();
      return;
  }
}

std::string JsonValue::to_string() const {
  std::ostringstream os;
  JsonWriter json(os);
  write(json);
  std::string text = os.str();
  // The writer terminates root values with '\n'; a value rendered into a
  // string is more useful without it.
  if (!text.empty() && text.back() == '\n') text.pop_back();
  return text;
}

// -------------------------------------------------------------------- parser

namespace {

constexpr int kMaxParseDepth = 64;

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue value = parse_value(0);
    skip_whitespace();
    require(pos_ == text_.size(), "trailing characters after JSON document");
    return value;
  }

 private:
  std::string where(std::string_view message) const {
    return cat("JSON parse error at byte ", pos_, ": ", message);
  }

  /// check() with where(message); the offset is formatted only on failure.
  void require(bool ok, const char* message,
               SourceLocation loc = SourceLocation::current()) const {
    check(ok, [&] { return where(message); }, loc);
  }

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') return;
      ++pos_;
    }
  }

  char peek() {
    require(pos_ < text_.size(), "unexpected end of input");
    return text_[pos_];
  }

  bool consume(char expected) {
    if (pos_ < text_.size() && text_[pos_] == expected) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect(char expected) {
    check(consume(expected), [&] { return where(cat("expected '", expected, "'")); });
  }

  void expect_literal(std::string_view literal) {
    check(text_.substr(pos_, literal.size()) == literal,
          [&] { return where(cat("expected '", literal, "'")); });
    pos_ += literal.size();
  }

  JsonValue parse_value(int depth) {
    require(depth < kMaxParseDepth, "nesting too deep");
    skip_whitespace();
    const char c = peek();
    switch (c) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': return JsonValue::make_string(parse_string());
      case 't': expect_literal("true"); return JsonValue::make_bool(true);
      case 'f': expect_literal("false"); return JsonValue::make_bool(false);
      case 'n': expect_literal("null"); return JsonValue();
      default: return parse_number();
    }
  }

  JsonValue parse_object(int depth) {
    expect('{');
    JsonValue object = JsonValue::make_object();
    skip_whitespace();
    if (consume('}')) return object;
    for (;;) {
      skip_whitespace();
      require(peek() == '"', "expected object key string");
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      object.set(std::move(key), parse_value(depth + 1));
      skip_whitespace();
      if (consume(',')) continue;
      expect('}');
      return object;
    }
  }

  JsonValue parse_array(int depth) {
    expect('[');
    JsonValue array = JsonValue::make_array();
    skip_whitespace();
    if (consume(']')) return array;
    for (;;) {
      array.push_back(parse_value(depth + 1));
      skip_whitespace();
      if (consume(',')) continue;
      expect(']');
      return array;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      require(pos_ < text_.size(), "unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        require(static_cast<unsigned char>(c) >= 0x20,
                "unescaped control character in string");
        out += c;
        continue;
      }
      require(pos_ < text_.size(), "unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': out += parse_unicode_escape(); break;
        default: fail(where(cat("bad escape '\\", esc, "'")));
      }
    }
  }

  // \uXXXX escapes, including UTF-16 surrogate pairs, decoded to UTF-8 —
  // json_escape only ever emits \u00XX, but the wire protocol accepts
  // documents from foreign clients.
  std::string parse_unicode_escape() {
    const auto hex4 = [&]() -> unsigned {
      unsigned code = 0;
      for (int i = 0; i < 4; ++i) {
        require(pos_ < text_.size(), "truncated \\u escape");
        const char c = text_[pos_++];
        code <<= 4;
        if (c >= '0' && c <= '9') code |= static_cast<unsigned>(c - '0');
        else if (c >= 'a' && c <= 'f') code |= static_cast<unsigned>(c - 'a' + 10);
        else if (c >= 'A' && c <= 'F') code |= static_cast<unsigned>(c - 'A' + 10);
        else fail(where("bad hex digit in \\u escape"));
      }
      return code;
    };
    unsigned code = hex4();
    if (code >= 0xD800 && code <= 0xDBFF) {
      // Tested before consuming, so the error names the escape's first byte.
      require(text_.substr(pos_, 2) == "\\u", "unpaired UTF-16 surrogate");
      pos_ += 2;
      const unsigned low = hex4();
      require(low >= 0xDC00 && low <= 0xDFFF, "bad low surrogate");
      code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
    } else {
      require(!(code >= 0xDC00 && code <= 0xDFFF), "unpaired UTF-16 surrogate");
    }
    std::string out;
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (code >> 18));
      out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
    return out;
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (consume('-')) {}
    require(pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9',
            "expected a value");
    const std::size_t digits = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    require(pos_ - digits == 1 || text_[digits] != '0',
            "leading zero in number");  // RFC 8259
    bool integral = true;
    if (consume('.')) {
      integral = false;
      require(pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9',
              "expected digits after decimal point");
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      require(pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9',
              "expected exponent digits");
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    }
    const std::string token(text_.substr(start, pos_ - start));
    if (integral) {
      errno = 0;
      char* end = nullptr;
      const long long v = std::strtoll(token.c_str(), &end, 10);
      if (errno == 0 && end == token.c_str() + token.size()) {
        return JsonValue::make_int(static_cast<std::int64_t>(v));
      }
      // Out of int64 range: fall through to double like other parsers do.
    }
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    require(end == token.c_str() + token.size(), "malformed number");
    return JsonValue::make_double(v);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue parse_json(std::string_view text) {
  JsonParser parser(text);
  return parser.parse_document();
}

}  // namespace srra
