#include "src/json/json.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace cheriot::json {

namespace {

const Value kNull{};

// Appends s with '"', '\\' and control characters escaped.
void EscapeTo(std::string* out, std::string_view s) {
  size_t plain = 0;  // start of the run not yet appended
  for (size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20) {
      continue;
    }
    out->append(s.data() + plain, i - plain);
    plain = i + 1;
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        *out += buf;
      }
    }
  }
  out->append(s.data() + plain, s.size() - plain);
}

}  // namespace

const Value& Value::operator[](const std::string& key) const {
  if (type_ != Type::kObject) {
    return kNull;
  }
  auto it = object_->find(key);
  return it == object_->end() ? kNull : it->second;
}

size_t Value::size() const {
  switch (type_) {
    case Type::kArray: return array_->size();
    case Type::kObject: return object_->size();
    default: return 0;
  }
}

void Writer::Newline(size_t depth) {
  if (indent_ >= 0) {
    out_->push_back('\n');
    out_->append(static_cast<size_t>(indent_) * depth, ' ');
  }
}

void Writer::NextMember() {
  if (members_.back()++ > 0) {
    out_->push_back(',');
  }
  Newline(members_.size());
}

void Writer::BeforeValue() {
  if (after_key_) {
    after_key_ = false;
  } else if (!members_.empty()) {
    NextMember();
  }
}

void Writer::Key(std::string_view key) {
  NextMember();
  out_->push_back('"');
  EscapeTo(out_, key);
  *out_ += "\": ";
  after_key_ = true;
}

void Writer::Open(char bracket) {
  BeforeValue();
  out_->push_back(bracket);
  members_.push_back(0);
}

void Writer::Close(char bracket) {
  const size_t members = members_.back();
  members_.pop_back();
  if (members > 0) {
    Newline(members_.size());
  }
  out_->push_back(bracket);
}

void Writer::Null() {
  BeforeValue();
  *out_ += "null";
}

void Writer::Bool(bool b) {
  BeforeValue();
  *out_ += b ? "true" : "false";
}

void Writer::Int(int64_t i) {
  BeforeValue();
  char buf[24];
  out_->append(buf, std::to_chars(buf, buf + sizeof buf, i).ptr);
}

void Writer::Double(double d) {
  BeforeValue();
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", d);
  *out_ += buf;
}

void Writer::String(std::string_view s) {
  BeforeValue();
  out_->push_back('"');
  EscapeTo(out_, s);
  out_->push_back('"');
}

void Writer::Write(const Value& v) {
  switch (v.type()) {
    case Value::Type::kNull: Null(); break;
    case Value::Type::kBool: Bool(v.AsBool()); break;
    case Value::Type::kInt: Int(v.AsInt()); break;
    case Value::Type::kDouble: Double(v.AsDouble()); break;
    case Value::Type::kString: String(v.AsString()); break;
    case Value::Type::kArray:
      BeginArray();
      for (const Value& e : v.AsArray()) {
        Write(e);
      }
      EndArray();
      break;
    case Value::Type::kObject:
      BeginObject();
      for (const auto& [k, e] : v.AsObject()) {
        Key(k);
        Write(e);
      }
      EndObject();
      break;
  }
}

std::string Value::Dump(int indent) const {
  std::string out;
  Writer(&out, indent).Write(*this);
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Value ParseDocument() {
    Value v = ParseValue();
    SkipWs();
    if (pos_ != text_.size()) {
      Fail("trailing characters");
    }
    return v;
  }

 private:
  [[noreturn]] void Fail(const std::string& why) {
    throw std::runtime_error("JSON parse error at offset " +
                             std::to_string(pos_) + ": " + why);
  }
  void SkipWs() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  char Peek() {
    if (pos_ >= text_.size()) {
      Fail("unexpected end of input");
    }
    return text_[pos_];
  }
  void Expect(char c) {
    if (Peek() != c) {
      Fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }
  bool Consume(const std::string& word) {
    if (text_.compare(pos_, word.size(), word) == 0) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  Value ParseValue() {
    SkipWs();
    const char c = Peek();
    if (c == '{' || c == '[') {
      // Containers nest by recursion: bound it, so a deep document fails
      // here instead of overflowing the host stack.
      if (depth_ == kMaxDepth) {
        Fail("nesting deeper than " + std::to_string(kMaxDepth));
      }
      ++depth_;
      Value v = c == '{' ? ParseObject() : ParseArray();
      --depth_;
      return v;
    }
    if (c == '"') {
      return Value(ParseString());
    }
    if (Consume("true")) {
      return Value(true);
    }
    if (Consume("false")) {
      return Value(false);
    }
    if (Consume("null")) {
      return Value();
    }
    return ParseNumber();
  }

  Value ParseObject() {
    Expect('{');
    Object obj;
    SkipWs();
    if (Peek() == '}') {
      ++pos_;
      return Value(std::move(obj));
    }
    for (;;) {
      SkipWs();
      std::string key = ParseString();
      SkipWs();
      Expect(':');
      obj.emplace(std::move(key), ParseValue());
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      Expect('}');
      return Value(std::move(obj));
    }
  }

  Value ParseArray() {
    Expect('[');
    Array arr;
    SkipWs();
    if (Peek() == ']') {
      ++pos_;
      return Value(std::move(arr));
    }
    for (;;) {
      arr.push_back(ParseValue());
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      Expect(']');
      return Value(std::move(arr));
    }
  }

  std::string ParseString() {
    Expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) {
        Fail("unterminated string");
      }
      const char c = text_[pos_++];
      if (c == '"') {
        return out;
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) {
        Fail("bad escape");
      }
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'u': {
          // Exactly four hex digits: from_chars takes no sign, prefix or
          // space, and stops at the first non-digit.
          unsigned code = 0;
          const char* digits = text_.data() + pos_;
          const auto [end, ec] = std::from_chars(
              digits, digits + std::min<size_t>(4, text_.size() - pos_), code,
              16);
          if (ec != std::errc() || end != digits + 4) {
            Fail("bad \\u escape");
          }
          pos_ += 4;
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else {
            // Minimal UTF-8 encoding (BMP only).
            if (code < 0x800) {
              out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            } else {
              out.push_back(static_cast<char>(0xE0 | (code >> 12)));
              out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            }
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          Fail("unknown escape");
      }
    }
  }

  bool AtDigit() const {
    return pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]));
  }
  bool Accept(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  // 1*DIGIT
  void Digits() {
    if (!AtDigit()) {
      Fail("invalid number");
    }
    while (AtDigit()) {
      ++pos_;
    }
  }

  // RFC 8259: [ "-" ] ( "0" / digit1-9 *DIGIT ) [ "." 1*DIGIT ]
  // [ ( "e" / "E" ) [ "+" / "-" ] 1*DIGIT ]. An integer is an int64, a
  // number with a fraction or exponent a double.
  Value ParseNumber() {
    const size_t start = pos_;
    Accept('-');
    if (!Accept('0')) {
      Digits();
    }
    bool is_double = false;
    if (Accept('.')) {
      is_double = true;
      Digits();
    }
    if (Accept('e') || Accept('E')) {
      is_double = true;
      if (!Accept('+')) {
        Accept('-');
      }
      Digits();
    }
    const std::string tok = text_.substr(start, pos_ - start);
    if (is_double) {
      const double d = std::strtod(tok.c_str(), nullptr);
      if (!std::isfinite(d)) {
        pos_ = start;
        Fail("number out of range");
      }
      return Value(d);
    }
    int64_t i = 0;
    if (std::from_chars(tok.data(), tok.data() + tok.size(), i).ec !=
        std::errc()) {
      pos_ = start;
      Fail("number out of range");
    }
    return Value(i);
  }

  static constexpr int kMaxDepth = 512;

  const std::string& text_;
  size_t pos_ = 0;
  int depth_ = 0;  // containers open around pos_
};

}  // namespace

Value Parse(const std::string& text) { return Parser(text).ParseDocument(); }

}  // namespace cheriot::json
