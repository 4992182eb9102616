#include "src/snap/snapshot.h"

#include <algorithm>

namespace cheriot::snap {

std::string SectionName(uint32_t id) {
  std::string s(4, '?');
  for (int i = 0; i < 4; ++i) {
    const char c = static_cast<char>((id >> (8 * i)) & 0xff);
    s[i] = (c >= 0x20 && c < 0x7f) ? c : '?';
  }
  return s;
}

const Section* Container::Find(uint32_t id) const {
  for (const Section& s : sections) {
    if (s.id == id) return &s;
  }
  return nullptr;
}

const Section& Container::Require(uint32_t id) const {
  const Section* s = Find(id);
  if (s == nullptr) {
    throw SnapshotError("snapshot missing section " + SectionName(id));
  }
  return *s;
}

ContainerWriter::ContainerWriter(Writer& w, uint8_t kind, uint32_t flags)
    : w_(w) {
  w_.U64(kMagic);
  w_.U32(kVersion);
  w_.U8(kind);
  w_.U32(flags);
  count_at_ = w_.size();
  w_.U32(0);
}

Container Container::Parse(std::span<const uint8_t> blob) {
  Reader r(blob);
  if (r.U64() != kMagic) throw SnapshotError("bad snapshot magic");
  const uint32_t version = r.U32();
  if (version != kVersion) {
    throw SnapshotError("unsupported snapshot version " +
                        std::to_string(version));
  }
  Container c;
  c.kind = r.U8();
  c.flags = r.U32();
  const uint32_t count = r.U32();
  for (uint32_t i = 0; i < count; ++i) {
    Section s;
    s.id = r.U32();
    const uint64_t len = r.U64();
    if (len > r.remaining()) throw SnapshotError("snapshot section truncated");
    s.body = r.Next(len);
    c.sections.push_back(s);
  }
  r.ExpectEnd("container");
  return c;
}

void VerifySections(const Container& saved, const Container& rebuilt) {
  if (rebuilt.sections.size() != saved.sections.size()) {
    throw SnapshotError("snapshot verify failed: section count");
  }
  for (size_t i = 0; i < saved.sections.size(); ++i) {
    const Section& a = saved.sections[i];
    const Section& b = rebuilt.sections[i];
    if (b.id != a.id || !std::ranges::equal(a.body, b.body)) {
      throw SnapshotError("snapshot verify failed at section " +
                          SectionName(a.id));
    }
  }
}

}  // namespace cheriot::snap
