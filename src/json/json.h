// Minimal dependency-free JSON document model, writer and parser — enough
// for the firmware audit report (§4). Not a general-purpose library: numbers
// are int64/double, strings are UTF-8 passed through verbatim.
#ifndef SRC_JSON_JSON_H_
#define SRC_JSON_JSON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace cheriot::json {

class Value;
using Array = std::vector<Value>;
// std::map keeps key order deterministic — audit reports must be
// reproducible byte-for-byte for signing workflows.
using Object = std::map<std::string, Value>;

class Value {
 public:
  enum class Type { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  Value() : type_(Type::kNull) {}
  Value(bool b) : type_(Type::kBool), bool_(b) {}                 // NOLINT
  Value(int i) : type_(Type::kInt), int_(i) {}                    // NOLINT
  Value(int64_t i) : type_(Type::kInt), int_(i) {}                // NOLINT
  Value(uint32_t i) : type_(Type::kInt), int_(i) {}               // NOLINT
  Value(uint64_t i) : type_(Type::kInt),                          // NOLINT
                      int_(static_cast<int64_t>(i)) {}
  Value(double d) : type_(Type::kDouble), double_(d) {}           // NOLINT
  Value(const char* s) : type_(Type::kString), string_(s) {}      // NOLINT
  Value(std::string s) : type_(Type::kString),                    // NOLINT
                         string_(std::move(s)) {}
  Value(Array a) : type_(Type::kArray),                           // NOLINT
                   array_(std::make_shared<Array>(std::move(a))) {}
  Value(Object o) : type_(Type::kObject),                         // NOLINT
                    object_(std::make_shared<Object>(std::move(o))) {}

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool AsBool() const { return bool_; }
  int64_t AsInt() const { return type_ == Type::kDouble ? static_cast<int64_t>(double_) : int_; }
  double AsDouble() const { return type_ == Type::kDouble ? double_ : static_cast<double>(int_); }
  const std::string& AsString() const { return string_; }
  const Array& AsArray() const { return *array_; }
  Array& MutableArray() { return *array_; }
  const Object& AsObject() const { return *object_; }
  Object& MutableObject() { return *object_; }

  // Object lookup; returns a null Value for missing keys.
  const Value& operator[](const std::string& key) const;
  // Array index.
  const Value& operator[](size_t i) const { return (*array_)[i]; }
  bool Has(const std::string& key) const {
    return type_ == Type::kObject && object_->count(key) > 0;
  }
  size_t size() const;

  // Serialization through Writer. indent < 0 => compact single line.
  std::string Dump(int indent = 2) const;

 private:
  Type type_;
  bool bool_ = false;
  int64_t int_ = 0;
  double double_ = 0;
  std::string string_;
  std::shared_ptr<Array> array_;
  std::shared_ptr<Object> object_;
};

// Streaming writer, the one JSON formatter: Value::Dump is built on it, so
// an exporter that streams a large document through it writes exactly the
// bytes Dump(indent) would for the same tree, without building the tree.
// Callers nest Begin/End calls and put a Key before each object member; the
// writer adds the separators, newlines and indentation.
class Writer {
 public:
  // Appends to *out. indent < 0 => compact single line.
  Writer(std::string* out, int indent) : out_(out), indent_(indent) {}

  void BeginObject() { Open('{'); }
  void EndObject() { Close('}'); }
  void BeginArray() { Open('['); }
  void EndArray() { Close(']'); }
  // The next object member's key; exactly one value must follow.
  void Key(std::string_view key);

  void Null();
  void Bool(bool b);
  void Int(int64_t i);
  // Written as the int64 that Value(uint64_t) stores.
  void Uint(uint64_t i) { Int(static_cast<int64_t>(i)); }
  void Double(double d);
  void String(std::string_view s);
  void Write(const Value& v);

 private:
  // Starts the next member of the innermost container: a comma after its
  // first, then a newline and the indentation.
  void NextMember();
  // Everything before a value: nothing after a key, else NextMember() when
  // inside an array.
  void BeforeValue();
  void Open(char bracket);
  void Close(char bracket);
  void Newline(size_t depth);

  std::string* out_;
  int indent_;
  bool after_key_ = false;
  std::vector<size_t> members_;  // written so far, per open container
};

// Parses a JSON document (RFC 8259 numbers, \u escapes of exactly four hex
// digits, at most 512 nested arrays and objects). Throws only
// std::runtime_error "JSON parse error at offset N: ..." on malformed input,
// including integers outside int64 and doubles that overflow.
Value Parse(const std::string& text);

}  // namespace cheriot::json

#endif  // SRC_JSON_JSON_H_
