// One Ethernet frame as an immutable, reference-counted buffer (DESIGN.md
// §6). The fabric wraps each transmitted frame once; every port it reaches,
// the receiving board's RX queue and the NIC's RX FIFO and read latch then
// share that buffer instead of copying it. The bytes never change after
// wrapping, so boards stepped on different host threads may read and release
// one flooded frame concurrently.
#ifndef SRC_HW_SHARED_FRAME_H_
#define SRC_HW_SHARED_FRAME_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace cheriot {

class SharedFrame {
 public:
  using Bytes = std::vector<uint8_t>;

  // The empty frame; allocates nothing.
  SharedFrame() = default;
  // Implicit, so callers that hand over a plain byte vector still compile.
  SharedFrame(Bytes bytes)  // NOLINT
      : bytes_(std::make_shared<const Bytes>(std::move(bytes))) {}

  const Bytes& bytes() const { return bytes_ ? *bytes_ : Empty(); }
  // Implicit, so receivers written against a byte vector (by const reference
  // or by value) accept a shared frame unchanged.
  operator const Bytes&() const { return bytes(); }  // NOLINT
  size_t size() const { return bytes().size(); }

 private:
  static const Bytes& Empty() {
    static const Bytes empty;
    return empty;
  }

  std::shared_ptr<const Bytes> bytes_;
};

}  // namespace cheriot

#endif  // SRC_HW_SHARED_FRAME_H_
