// Snapshot container format (DESIGN.md §10).
//
// A snapshot blob is a fixed header followed by a list of framed sections:
//
//   magic   u64   "CHERSNAP"
//   version u32   kVersion
//   kind    u8    kBoard | kFleet | kScene
//   flags   u32   Flags bitmask
//   count   u32   number of sections
//   count × { id u32 (fourcc), size u64, body[size] }
//
// Section bodies use snap::Writer/Reader primitives and are individually
// byte-stable: serialising the same state twice yields the same bytes, which
// is what lets Restore() verify itself by re-serialising and comparing.
//
// A blob is written once, in place: ContainerWriter puts the header and each
// section frame straight into one Writer and backpatches the lengths. It is
// read in place too: Container::Parse returns each section as a view into
// the caller's blob.
#ifndef SRC_SNAP_SNAPSHOT_H_
#define SRC_SNAP_SNAPSHOT_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/snap/wire.h"

namespace cheriot::snap {

inline constexpr uint64_t kMagic = 0x50414E5352454843ull;  // "CHERSNAP" LE
// v2: GuestThread::block_seq (KERN) + Scheduler block_seq counter (SCHD),
// pinning FIFO futex wake order across snapshot/restore.
// v3: authority-coverage recorder (COVG section + coverage presence bytes in
// the board OPTS and fleet FLET sections).
inline constexpr uint32_t kVersion = 3;

enum Kind : uint8_t {
  kBoard = 1,  // one board: options + full machine/kernel state (+ log)
  kFleet = 2,  // a fleet: options + per-board state + fabric + control log
  kScene = 3,  // crash scene: machine/kernel state only, mid-run, no restore
};

enum Flags : uint32_t {
  // Bit 0 is reserved. It was kColdRestorable, which marked a post-boot blob
  // for a second, direct restore path. It is no longer set and is ignored on
  // read: a blob that carries it restores like any other, by replaying its
  // (empty) log.
  //
  // The blob carries a replay log of every external input since Boot();
  // Restore() re-executes it to rebuild live fiber state deterministically.
  kHasReplayLog = 1u << 1,
  kHasTrace = 1u << 2,
  kHasForensics = 1u << 3,
  // Embedded inside a fleet blob: per-board state is verification-only (the
  // fleet replays its own control log to rebuild boards).
  kEmbedded = 1u << 4,
  kHasCoverage = 1u << 5,
};

// Section ids (fourcc, read as ASCII in hexdumps).
inline constexpr uint32_t FourCc(char a, char b, char c, char d) {
  return static_cast<uint32_t>(a) | (static_cast<uint32_t>(b) << 8) |
         (static_cast<uint32_t>(c) << 16) | (static_cast<uint32_t>(d) << 24);
}
inline constexpr uint32_t kSecOptions = FourCc('O', 'P', 'T', 'S');
inline constexpr uint32_t kSecClock = FourCc('C', 'L', 'C', 'K');
inline constexpr uint32_t kSecMemory = FourCc('S', 'R', 'A', 'M');
inline constexpr uint32_t kSecIrq = FourCc('I', 'R', 'Q', 'S');
inline constexpr uint32_t kSecDevices = FourCc('D', 'E', 'V', 'S');
inline constexpr uint32_t kSecRevoker = FourCc('R', 'V', 'O', 'K');
inline constexpr uint32_t kSecKernel = FourCc('K', 'E', 'R', 'N');
inline constexpr uint32_t kSecSched = FourCc('S', 'C', 'H', 'D');
inline constexpr uint32_t kSecSwitcher = FourCc('S', 'W', 'C', 'H');
inline constexpr uint32_t kSecAlloc = FourCc('A', 'L', 'O', 'C');
inline constexpr uint32_t kSecBoard = FourCc('B', 'O', 'R', 'D');
inline constexpr uint32_t kSecBootInfo = FourCc('B', 'O', 'O', 'T');
inline constexpr uint32_t kSecTrace = FourCc('T', 'R', 'C', 'E');
inline constexpr uint32_t kSecForensics = FourCc('H', 'L', 'T', 'H');
inline constexpr uint32_t kSecReplayLog = FourCc('R', 'L', 'O', 'G');
inline constexpr uint32_t kSecFleet = FourCc('F', 'L', 'E', 'T');
inline constexpr uint32_t kSecFabric = FourCc('F', 'A', 'B', 'R');
inline constexpr uint32_t kSecFleetBoards = FourCc('B', 'R', 'D', 'S');
inline constexpr uint32_t kSecFleetLog = FourCc('F', 'L', 'O', 'G');
inline constexpr uint32_t kSecCoverage = FourCc('C', 'O', 'V', 'G');

std::string SectionName(uint32_t id);

// One parsed section: its id and a view of its body in the parsed blob.
struct Section {
  uint32_t id = 0;
  std::span<const uint8_t> body;
};

struct Container {
  uint8_t kind = 0;
  uint32_t flags = 0;
  std::vector<Section> sections;

  // Returns the section or null; Require throws SnapshotError instead.
  const Section* Find(uint32_t id) const;
  const Section& Require(uint32_t id) const;
  bool Has(uint32_t id) const { return Find(id) != nullptr; }

  // Checks the header and every frame against `blob`'s length. The sections
  // are views into `blob`, which must outlive the container, so a temporary
  // vector is refused.
  static Container Parse(std::span<const uint8_t> blob);
  static Container Parse(std::vector<uint8_t>&&) = delete;
};

// Writes a container into `w` in place: the header goes out with a section
// count of zero, each Add() frames its section with Writer::Sized, and the
// count is backpatched as each section ends.
class ContainerWriter {
 public:
  ContainerWriter(Writer& w, uint8_t kind, uint32_t flags);

  // Appends section `id`, whose body is what `fill(Writer&)` writes.
  template <typename F>
  void Add(uint32_t id, F&& fill) {
    w_.U32(id);
    w_.Sized(fill);
    w_.PatchU32(count_at_, ++count_);
  }

 private:
  Writer& w_;
  size_t count_at_;
  uint32_t count_ = 0;
};

// The restore verify (DESIGN.md §10): throws SnapshotError unless `rebuilt`
// holds the sections of `saved`, in the same order, with the same bodies.
void VerifySections(const Container& saved, const Container& rebuilt);

}  // namespace cheriot::snap

#endif  // SRC_SNAP_SNAPSHOT_H_
