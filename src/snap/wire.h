// Byte-stable little-endian wire format for board snapshots (DESIGN.md §10).
//
// Every integer is written at a fixed width in little-endian byte order
// regardless of host endianness, so a snapshot taken on one host is readable
// on any other and two serialisations of the same state are byte-identical.
// The Reader throws SnapshotError on truncation or malformed input rather
// than asserting: snapshot blobs cross a trust boundary (files on disk).
#ifndef SRC_SNAP_WIRE_H_
#define SRC_SNAP_WIRE_H_

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/base/types.h"
#include "src/cap/capability.h"

namespace cheriot::snap {

class SnapshotError : public std::runtime_error {
 public:
  explicit SnapshotError(const std::string& what) : std::runtime_error(what) {}
};

class Writer {
 public:
  void U8(uint8_t v) { buf_.push_back(v); }
  void U16(uint16_t v) {
    buf_.push_back(static_cast<uint8_t>(v));
    buf_.push_back(static_cast<uint8_t>(v >> 8));
  }
  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
  void I32(int32_t v) { U32(static_cast<uint32_t>(v)); }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  void Bytes(const void* data, size_t size) {
    const uint8_t* p = static_cast<const uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + size);
  }
  void Blob(const std::vector<uint8_t>& v) {
    U64(v.size());
    Bytes(v.data(), v.size());
  }
  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    Bytes(s.data(), s.size());
  }
  // Fixed 13-byte capability encoding: cursor, base, top, perms, otype, tag.
  void Cap(const Capability& c) {
    U32(c.cursor());
    U32(c.base());
    U32(c.top());
    U16(c.permissions().bits());
    U8(static_cast<uint8_t>(c.otype()));
    Bool(c.tag());
  }

  const std::vector<uint8_t>& data() const { return buf_; }
  std::vector<uint8_t> Take() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  std::vector<uint8_t> buf_;
};

class Reader {
 public:
  Reader(const uint8_t* data, size_t size) : p_(data), end_(data + size) {}
  explicit Reader(const std::vector<uint8_t>& v) : Reader(v.data(), v.size()) {}

  uint8_t U8() {
    Need(1);
    return *p_++;
  }
  uint16_t U16() {
    Need(2);
    uint16_t v = static_cast<uint16_t>(p_[0] | (p_[1] << 8));
    p_ += 2;
    return v;
  }
  uint32_t U32() {
    Need(4);
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p_[i]) << (8 * i);
    p_ += 4;
    return v;
  }
  uint64_t U64() {
    Need(8);
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p_[i]) << (8 * i);
    p_ += 8;
    return v;
  }
  int32_t I32() { return static_cast<int32_t>(U32()); }
  bool Bool() { return U8() != 0; }
  void BytesInto(void* out, size_t size) {
    Need(size);
    if (size != 0) {  // an empty vector's data() may be null
      std::memcpy(out, p_, size);
    }
    p_ += size;
  }
  std::vector<uint8_t> Blob() {
    const uint64_t n = U64();
    Need(n);
    std::vector<uint8_t> v(p_, p_ + n);
    p_ += n;
    return v;
  }
  std::string Str() {
    const uint32_t n = U32();
    Need(n);
    std::string s(reinterpret_cast<const char*>(p_), n);
    p_ += n;
    return s;
  }
  size_t remaining() const { return static_cast<size_t>(end_ - p_); }
  bool AtEnd() const { return p_ == end_; }
  void ExpectEnd(const char* what) const {
    if (!AtEnd()) {
      throw SnapshotError(std::string("trailing bytes in section ") + what);
    }
  }

 private:
  void Need(size_t n) const {
    if (static_cast<size_t>(end_ - p_) < n) {
      throw SnapshotError("snapshot truncated");
    }
  }
  const uint8_t* p_;
  const uint8_t* end_;
};

}  // namespace cheriot::snap

#endif  // SRC_SNAP_WIRE_H_
