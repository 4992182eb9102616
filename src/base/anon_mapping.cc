#include "src/base/anon_mapping.h"

#include <sys/mman.h>

#include <new>

namespace cheriot {

AnonMapping::AnonMapping(size_t size) : size_(size) {
  if (size == 0) {
    return;
  }
  void* p = mmap(nullptr, size, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) {
    throw std::bad_alloc();
  }
  // Adjacent mappings merge into one region, and a host whose transparent
  // huge pages are on for every region would then back 2 MiB at a board's
  // first touch. Best effort: without the advice only the footprint grows.
  madvise(p, size, MADV_NOHUGEPAGE);
  data_ = static_cast<uint8_t*>(p);
}

AnonMapping::~AnonMapping() {
  if (data_ != nullptr) {
    munmap(data_, size_);
  }
}

}  // namespace cheriot
