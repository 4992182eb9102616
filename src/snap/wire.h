// Byte-stable little-endian wire format for board snapshots (DESIGN.md §10).
//
// Every integer is written at a fixed width in little-endian byte order
// regardless of host endianness, so a snapshot taken on one host is readable
// on any other and two serialisations of the same state are byte-identical.
// The Reader throws SnapshotError on truncation or malformed input rather
// than asserting: snapshot blobs cross a trust boundary (files on disk).
#ifndef SRC_SNAP_WIRE_H_
#define SRC_SNAP_WIRE_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
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

// `v` with its bytes in little-endian order (the identity on such hosts).
template <typename T>
T LittleEndian(T v) {
  if constexpr (std::endian::native == std::endian::little) {
    return v;
  } else {
    T r = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      r = static_cast<T>((r << 8) | ((v >> (8 * i)) & 0xff));
    }
    return r;
  }
}

// Appends fields to one buffer, one store per fixed-width field. The buffer
// is kept resized past the bytes written (size()), so a field costs a bound
// check and a store; Take() trims it to exactly what was written.
class Writer {
 public:
  // Grows the buffer to at least `bytes` up front, so a caller that knows
  // (or can estimate) its output size allocates once.
  void Reserve(size_t bytes) {
    if (bytes > buf_.size()) {
      buf_.resize(bytes);
    }
  }

  void U8(uint8_t v) { Put(v); }
  void U16(uint16_t v) { Put(v); }
  void U32(uint32_t v) { Put(v); }
  void U64(uint64_t v) { Put(v); }
  void I32(int32_t v) { U32(static_cast<uint32_t>(v)); }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  void Bytes(const void* data, size_t size) {
    if (size != 0) {  // an empty vector's data() may be null
      std::memcpy(Grow(size), data, size);
    }
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

  // A u64 byte count, then what `fill` writes: the count is written as zero
  // and backpatched, so a framed body (a section, a BRDS entry) is written in
  // place rather than built apart and copied in.
  template <typename F>
  void Sized(F&& fill) {
    const size_t at = size_;
    U64(0);
    fill(*this);
    Store(buf_.data() + at, static_cast<uint64_t>(size_ - at - 8));
  }
  // Overwrites the u32 written at byte `at`.
  void PatchU32(size_t at, uint32_t v) { Store(buf_.data() + at, v); }

  size_t size() const { return size_; }
  std::span<const uint8_t> data() const { return {buf_.data(), size_}; }
  std::vector<uint8_t> Take() {
    buf_.resize(size_);
    size_ = 0;
    return std::move(buf_);
  }

 private:
  template <typename T>
  static void Store(uint8_t* p, T v) {
    v = LittleEndian(v);
    std::memcpy(p, &v, sizeof(T));
  }
  template <typename T>
  void Put(T v) {
    Store(Grow(sizeof(T)), v);
  }
  uint8_t* Grow(size_t n) {
    if (buf_.size() - size_ < n) {
      buf_.resize(std::max({buf_.size() * 2, size_ + n, size_t{4096}}));
    }
    uint8_t* p = buf_.data() + size_;
    size_ += n;
    return p;
  }

  std::vector<uint8_t> buf_;
  size_t size_ = 0;  // bytes written; buf_ may extend past them
};

class Reader {
 public:
  explicit Reader(std::span<const uint8_t> s)
      : p_(s.data()), end_(s.data() + s.size()) {}

  uint8_t U8() { return Get<uint8_t>(); }
  uint16_t U16() { return Get<uint16_t>(); }
  uint32_t U32() { return Get<uint32_t>(); }
  uint64_t U64() { return Get<uint64_t>(); }
  int32_t I32() { return static_cast<int32_t>(U32()); }
  bool Bool() { return U8() != 0; }
  void BytesInto(void* out, size_t size) {
    Need(size);
    if (size != 0) {  // an empty vector's data() may be null
      std::memcpy(out, p_, size);
    }
    p_ += size;
  }
  // The next `n` bytes, as a view into the reader's input.
  std::span<const uint8_t> Next(uint64_t n) {
    Need(n);
    const std::span<const uint8_t> v(p_, n);
    p_ += n;
    return v;
  }
  // A u64-length-prefixed byte run, as a view.
  std::span<const uint8_t> View() { return Next(U64()); }
  // The same run, copied.
  std::vector<uint8_t> Blob() {
    const std::span<const uint8_t> v = View();
    return {v.begin(), v.end()};
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
  template <typename T>
  T Get() {
    Need(sizeof(T));
    T v;
    std::memcpy(&v, p_, sizeof(T));
    p_ += sizeof(T);
    return LittleEndian(v);
  }
  void Need(uint64_t n) const {
    if (static_cast<uint64_t>(end_ - p_) < n) {
      throw SnapshotError("snapshot truncated");
    }
  }
  const uint8_t* p_;
  const uint8_t* end_;
};

}  // namespace cheriot::snap

#endif  // SRC_SNAP_WIRE_H_
