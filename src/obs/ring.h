// The recorders' bounded, drop-oldest ring (trace events, crash records).
// It grows on demand up to its capacity, so memory follows what was
// recorded, not the configured bound; once full, the oldest entry makes
// room and is counted as dropped, deterministically.
#ifndef SRC_OBS_RING_H_
#define SRC_OBS_RING_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace cheriot::obs {

template <typename T>
class Ring {
 public:
  explicit Ring(size_t capacity) : capacity_(capacity) {}

  // The slot for a new newest entry, or null (counted as dropped) when the
  // capacity is zero. A reused slot still holds the dropped entry's value.
  T* Push() {
    if (count_ == slots_.size()) {
      if (slots_.size() < capacity_) {
        slots_.emplace_back();
      } else if (slots_.empty()) {
        ++dropped_;
        return nullptr;
      } else {
        start_ = (start_ + 1) % slots_.size();
        --count_;
        ++dropped_;
      }
    }
    return &slots_[(start_ + count_++) % slots_.size()];
  }

  // Entries oldest first: [0] is the oldest retained.
  size_t size() const { return count_; }
  T& operator[](size_t i) { return slots_[(start_ + i) % slots_.size()]; }
  const T& operator[](size_t i) const {
    return slots_[(start_ + i) % slots_.size()];
  }
  std::vector<T> ToVector() const {
    std::vector<T> out;
    out.reserve(count_);
    for (size_t i = 0; i < count_; ++i) {
      out.push_back((*this)[i]);
    }
    return out;
  }
  uint64_t dropped() const { return dropped_; }

 private:
  size_t capacity_;
  std::vector<T> slots_;
  size_t start_ = 0;
  size_t count_ = 0;
  uint64_t dropped_ = 0;
};

}  // namespace cheriot::obs

#endif  // SRC_OBS_RING_H_
