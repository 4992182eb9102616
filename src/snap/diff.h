// Structured comparison of two snapshot blobs: which sections differ, and
// for the first divergent section, the byte offset of the first difference
// within that section's body (plus its absolute offset in each blob). Used
// by `cheriot snap diff` and by tests asserting replay determinism.
#ifndef SRC_SNAP_DIFF_H_
#define SRC_SNAP_DIFF_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace cheriot::snap {

struct SectionDiff {
  uint32_t id = 0;        // fourcc
  std::string name;       // SectionName(id)
  size_t size_a = 0;
  size_t size_b = 0;
  bool only_in_a = false;
  bool only_in_b = false;
  // First differing byte within the section body (also set when the bodies
  // are equal up to the shorter length — then it is that length).
  size_t first_diff_offset = 0;
  // Absolute offset of that byte in each blob (header + frames + body
  // offset); 0 when the section is absent from that blob.
  size_t abs_offset_a = 0;
  size_t abs_offset_b = 0;
};

struct BlobDiff {
  bool equal = false;
  bool header_differs = false;   // magic/version/kind/flags/section count
  std::string header_detail;     // human-readable header mismatch, if any
  std::vector<SectionDiff> divergent;  // in section order of blob A
  // The first divergent section (the diff a human wants): name + offset.
  // Empty summary when equal.
  std::string summary;
};

// Parses both blobs and compares section-by-section. Throws SnapshotError
// if either blob is not a well-formed container.
BlobDiff DiffBlobs(const std::vector<uint8_t>& a,
                   const std::vector<uint8_t>& b);

}  // namespace cheriot::snap

#endif  // SRC_SNAP_DIFF_H_
