#include "src/snap/snapshot.h"

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

std::vector<uint8_t> Container::Assemble() const {
  Writer w;
  w.U64(kMagic);
  w.U32(kVersion);
  w.U8(kind);
  w.U32(flags);
  w.U32(static_cast<uint32_t>(sections.size()));
  for (const Section& s : sections) {
    w.U32(s.id);
    w.U64(s.body.size());
    w.Bytes(s.body.data(), s.body.size());
  }
  return w.Take();
}

Container Container::Parse(const uint8_t* data, size_t size) {
  Reader r(data, size);
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
    s.body.resize(len);
    r.BytesInto(s.body.data(), len);
    c.sections.push_back(std::move(s));
  }
  r.ExpectEnd("container");
  return c;
}

void VerifySections(const Container& saved, const Container& rebuilt) {
  if (rebuilt.sections.size() != saved.sections.size()) {
    throw SnapshotError("snapshot verify failed: section count");
  }
  for (size_t i = 0; i < saved.sections.size(); ++i) {
    if (rebuilt.sections[i].id != saved.sections[i].id ||
        rebuilt.sections[i].body != saved.sections[i].body) {
      throw SnapshotError("snapshot verify failed at section " +
                          SectionName(saved.sections[i].id));
    }
  }
}

}  // namespace cheriot::snap
