// Zero-filled host memory straight from the OS: one anonymous private
// mapping, released with munmap when the owner goes away.
//
// A simulated board's SRAM and its guest threads' host fiber stacks are
// large (256 KiB each) but a board touches only a small part of them. The
// kernel hands out the pages of an anonymous mapping zero-filled and backs
// each one only at its first write, so an untouched page costs no host
// memory and no memset. A heap allocation gives neither guarantee: malloc
// serves large requests from freed heap chunks once they have merged, and
// calloc or a value-initialised vector then writes every byte (DESIGN.md §5).
#ifndef SRC_BASE_ANON_MAPPING_H_
#define SRC_BASE_ANON_MAPPING_H_

#include <cstddef>
#include <cstdint>
#include <utility>

namespace cheriot {

class AnonMapping {
 public:
  AnonMapping() = default;
  // Maps `size` bytes (rounded up to whole pages by the OS), all zero.
  // Throws std::bad_alloc if the OS refuses.
  explicit AnonMapping(size_t size);
  ~AnonMapping();

  AnonMapping(AnonMapping&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}
  AnonMapping& operator=(AnonMapping&& other) noexcept {
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
    return *this;
  }
  AnonMapping(const AnonMapping&) = delete;
  AnonMapping& operator=(const AnonMapping&) = delete;

  uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  uint8_t& operator[](size_t i) const { return data_[i]; }

 private:
  uint8_t* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace cheriot

#endif  // SRC_BASE_ANON_MAPPING_H_
