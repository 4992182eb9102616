// Word-packed bitmap used for the tag and revocation-bit SRAMs.
//
// On the real chip these are dedicated SRAM blocks read in parallel with the
// data access (§2.1); in the simulator they sit on the hottest path of every
// load/store, so they are packed 64 bits to a word with range operations
// that touch whole words (the load filter probes one bit, tag-clearing on a
// store masks one word, the revoker skips untagged runs with FindNextSet).
#ifndef SRC_BASE_BITMAP_H_
#define SRC_BASE_BITMAP_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace cheriot {

class Bitmap {
 public:
  static constexpr size_t npos = ~static_cast<size_t>(0);
  static constexpr size_t kBitsPerWord = 64;

  explicit Bitmap(size_t bits)
      : bits_(bits), words_((bits + kBitsPerWord - 1) / kBitsPerWord, 0) {}

  size_t size() const { return bits_; }

  bool Test(size_t i) const {
    return (words_[i / kBitsPerWord] >> (i % kBitsPerWord)) & 1u;
  }
  void Set(size_t i) {
    words_[i / kBitsPerWord] |= uint64_t{1} << (i % kBitsPerWord);
  }
  void Clear(size_t i) {
    words_[i / kBitsPerWord] &= ~(uint64_t{1} << (i % kBitsPerWord));
  }

  // Sets or clears [first, first + count), clamped to the bitmap size.
  // Whole interior words are filled in one store each.
  void SetRange(size_t first, size_t count, bool value) {
    if (first >= bits_ || count == 0) {
      return;
    }
    const size_t last = std::min(bits_, first + count) - 1;  // inclusive
    const size_t first_word = first / kBitsPerWord;
    const size_t last_word = last / kBitsPerWord;
    const uint64_t head = ~uint64_t{0} << (first % kBitsPerWord);
    const uint64_t tail =
        ~uint64_t{0} >> (kBitsPerWord - 1 - last % kBitsPerWord);
    if (first_word == last_word) {
      Apply(first_word, head & tail, value);
      return;
    }
    Apply(first_word, head, value);
    const uint64_t fill = value ? ~uint64_t{0} : 0;
    for (size_t w = first_word + 1; w < last_word; ++w) {
      words_[w] = fill;
    }
    Apply(last_word, tail, value);
  }
  void ClearRange(size_t first, size_t count) { SetRange(first, count, false); }

  // Clears the inclusive span [first, last]; the caller guarantees
  // last < size(). A scalar store clears at most two granules, so the
  // single-word case is the hot one and compiles to one masked store.
  void ClearSpan(size_t first, size_t last) {
    const size_t first_word = first / kBitsPerWord;
    const size_t last_word = last / kBitsPerWord;
    const uint64_t head = ~uint64_t{0} << (first % kBitsPerWord);
    const uint64_t tail =
        ~uint64_t{0} >> (kBitsPerWord - 1 - last % kBitsPerWord);
    if (first_word == last_word) [[likely]] {
      words_[first_word] &= ~(head & tail);
      return;
    }
    words_[first_word] &= ~head;
    for (size_t w = first_word + 1; w < last_word; ++w) {
      words_[w] = 0;
    }
    words_[last_word] &= ~tail;
  }

  // Index of the first set bit at or after `from`, or npos. Skips zero words
  // 64 bits at a time.
  size_t FindNextSet(size_t from) const {
    if (from >= bits_) {
      return npos;
    }
    size_t w = from / kBitsPerWord;
    uint64_t word = words_[w] & (~uint64_t{0} << (from % kBitsPerWord));
    while (word == 0) {
      if (++w == words_.size()) {
        return npos;
      }
      word = words_[w];
    }
    const size_t i = w * kBitsPerWord + std::countr_zero(word);
    return i < bits_ ? i : npos;
  }

  // True if any bit in [first, first + count) is set (clamped).
  bool AnyInRange(size_t first, size_t count) const {
    const size_t i = FindNextSet(first);
    return i != npos && count != 0 && i - first < count;
  }

  size_t PopCount() const {
    size_t n = 0;
    for (uint64_t w : words_) {
      n += std::popcount(w);
    }
    return n;
  }

  // Word-granular access for snapshot serialisation (DESIGN.md §10): the
  // packed words are the canonical on-disk form, so they are written
  // wholesale instead of bit-by-bit.
  const std::vector<uint64_t>& words() const { return words_; }

 private:
  void Apply(size_t word, uint64_t mask, bool value) {
    if (value) {
      words_[word] |= mask;
    } else {
      words_[word] &= ~mask;
    }
  }

  size_t bits_;
  std::vector<uint64_t> words_;
};

}  // namespace cheriot

#endif  // SRC_BASE_BITMAP_H_
