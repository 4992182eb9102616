#include "src/snap/diff.h"

#include <algorithm>
#include <cstdio>

#include "src/snap/snapshot.h"

namespace cheriot::snap {

namespace {

// Absolute offset of `body`'s first byte in `blob` (a view from Parse).
size_t OffsetIn(const std::vector<uint8_t>& blob,
                std::span<const uint8_t> body) {
  return static_cast<size_t>(body.data() - blob.data());
}

std::string Format(const char* fmt, size_t x, size_t y) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), fmt, x, y);
  return buf;
}

}  // namespace

BlobDiff DiffBlobs(const std::vector<uint8_t>& a,
                   const std::vector<uint8_t>& b) {
  const Container ca = Container::Parse(a);
  const Container cb = Container::Parse(b);
  BlobDiff d;

  if (ca.kind != cb.kind) {
    d.header_differs = true;
    d.header_detail = Format("kind %zu vs %zu", ca.kind, cb.kind);
  } else if (ca.flags != cb.flags) {
    d.header_differs = true;
    d.header_detail = Format("flags 0x%zx vs 0x%zx", ca.flags, cb.flags);
  } else if (ca.sections.size() != cb.sections.size()) {
    d.header_differs = true;
    d.header_detail =
        Format("section count %zu vs %zu", ca.sections.size(),
               cb.sections.size());
  }

  // Walk A's sections in order, then anything only in B.
  for (const Section& sa : ca.sections) {
    const Section* sb = cb.Find(sa.id);
    SectionDiff sd;
    sd.id = sa.id;
    sd.name = SectionName(sa.id);
    sd.size_a = sa.body.size();
    sd.abs_offset_a = OffsetIn(a, sa.body);
    if (sb == nullptr) {
      sd.only_in_a = true;
      d.divergent.push_back(std::move(sd));
      continue;
    }
    sd.size_b = sb->body.size();
    const size_t common = std::min(sa.body.size(), sb->body.size());
    const auto mismatch = std::mismatch(
        sa.body.begin(), sa.body.begin() + common, sb->body.begin());
    const size_t first =
        static_cast<size_t>(mismatch.first - sa.body.begin());
    if (first == common && sa.body.size() == sb->body.size()) {
      continue;  // identical
    }
    sd.first_diff_offset = first;
    sd.abs_offset_a += first;
    sd.abs_offset_b = OffsetIn(b, sb->body) + first;
    d.divergent.push_back(std::move(sd));
  }
  for (const Section& sb : cb.sections) {
    if (ca.Find(sb.id) != nullptr) {
      continue;
    }
    SectionDiff sd;
    sd.id = sb.id;
    sd.name = SectionName(sb.id);
    sd.size_b = sb.body.size();
    sd.abs_offset_b = OffsetIn(b, sb.body);
    sd.only_in_b = true;
    d.divergent.push_back(std::move(sd));
  }

  d.equal = !d.header_differs && d.divergent.empty();
  if (d.equal) {
    return d;
  }
  if (!d.divergent.empty()) {
    const SectionDiff& f = d.divergent.front();
    if (f.only_in_a || f.only_in_b) {
      d.summary = "section " + f.name + " present only in " +
                  (f.only_in_a ? "first" : "second") + " blob";
    } else {
      char buf[192];
      std::snprintf(buf, sizeof(buf),
                    "section %s first differs at byte %zu of its body "
                    "(abs %zu vs %zu; sizes %zu vs %zu)",
                    f.name.c_str(), f.first_diff_offset, f.abs_offset_a,
                    f.abs_offset_b, f.size_a, f.size_b);
      d.summary = buf;
    }
  } else {
    d.summary = "header differs: " + d.header_detail;
  }
  return d;
}

}  // namespace cheriot::snap
