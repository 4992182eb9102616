// Deterministic snapshot/restore acceptance tests (DESIGN.md §10).
//
// The correctness contract under test: run a board N cycles, snapshot, run
// on to M; restore the snapshot into a second board and run it to M — the
// fingerprints are bit-identical and the trace/health exports byte-identical,
// for every shipped image and for fleets at 1/2/4 host workers. On top of
// that: the serialized form is byte-stable (two snapshots of the same state
// are identical), post-boot snapshots restore to a fresh boot's state,
// restored boards own their host-side handles, a seeded random scenario
// survives snapshot at a random cycle, and crash-scene capture costs zero
// guest cycles.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/base/costs.h"
#include "src/health/forensics.h"
#include "src/health/monitor.h"
#include "src/rtos.h"
#include "src/sim/board.h"
#include "src/sim/fleet.h"
#include "src/sim/fleet_app.h"
#include "src/snap/diff.h"
#include "src/snap/snapshot.h"
#include "src/sync/sync.h"
#include "src/trace/export.h"
#include "tools/lint_targets.h"

namespace cheriot {
namespace {

using sim::Board;
using sim::Fleet;
using sim::FleetOptions;
using tools::FindTarget;
using tools::LintTargets;

constexpr Cycles kSnapAt = 2'000'000;
constexpr Cycles kHorizon = 4'000'000;

FirmwareImage BuildImage(const std::string& name) {
  const tools::LintTarget* t = FindTarget(name);
  EXPECT_NE(t, nullptr) << name;
  return t->build();
}

// --- The headline contract, over every shipped image ----------------------

TEST(SnapshotTest, RoundTripFingerprintEqualityOnEveryShippedImage) {
  for (const auto& target : LintTargets()) {
    Board a(target.build(), {});
    a.Boot();
    a.StepTo(kSnapAt);
    std::vector<uint8_t> blob;
    a.Snapshot(blob);
    a.StepTo(kHorizon);

    auto b = Board::Restore(blob, target.build());
    b->StepTo(kHorizon);
    EXPECT_EQ(a.fingerprint(), b->fingerprint()) << target.name;
  }
}

TEST(SnapshotTest, TwoSnapshotsOfTheSameStateAreByteIdentical) {
  Board board(BuildImage("quickstart"), {});
  board.Boot();
  board.StepTo(kSnapAt);
  std::vector<uint8_t> first;
  std::vector<uint8_t> second;
  board.Snapshot(first);
  board.Snapshot(second);
  EXPECT_EQ(first, second);
  EXPECT_FALSE(first.empty());
}

TEST(SnapshotTest, RestoredBoardSnapshotsBackToTheOriginalBytes) {
  Board a(BuildImage("producer-consumer"), {});
  a.Boot();
  a.StepTo(kSnapAt);
  std::vector<uint8_t> blob;
  a.Snapshot(blob);

  auto b = Board::Restore(blob, BuildImage("producer-consumer"));
  std::vector<uint8_t> again;
  b->Snapshot(again);
  EXPECT_EQ(blob, again);
}

// --- Host-handle rebinding ------------------------------------------------

TEST(SnapshotTest, RestoreRebindsTheRawClockHookToTheNewMachine) {
  Board a(BuildImage("quickstart"), {});
  a.Boot();
  a.StepTo(kSnapAt);
  std::vector<uint8_t> blob;
  a.Snapshot(blob);

  auto b = Board::Restore(blob, BuildImage("quickstart"));
  // The PR 1 raw-pointer clock hook must point at the restored machine, not
  // dangle into the donor (or anywhere else).
  EXPECT_EQ(b->machine().clock().raw_hook_ctx(), &b->machine());
  EXPECT_NE(b->machine().clock().raw_hook_ctx(), &a.machine());
  EXPECT_NE(b->machine().clock().raw_hook(), nullptr);
  // And it must actually fire: advancing the restored board drives its own
  // revoker/timer, landing on the same fingerprint as the donor.
  a.StepTo(kHorizon);
  b->StepTo(kHorizon);
  EXPECT_EQ(a.fingerprint(), b->fingerprint());
}

// --- Post-boot snapshots -------------------------------------------------

TEST(SnapshotTest, PostBootSnapshotIsColdRestorable) {
  Board a(BuildImage("quickstart"), {});
  a.Boot();
  std::vector<uint8_t> blob;
  a.Snapshot(blob);

  auto b = Board::Restore(blob, BuildImage("quickstart"));
  a.StepTo(kSnapAt);
  b->StepTo(kSnapAt);
  EXPECT_EQ(a.fingerprint(), b->fingerprint());
}

TEST(SnapshotTest, MidRunSnapshotIsNotColdRestorable) {
  Board a(BuildImage("quickstart"), {});
  a.Boot();
  a.StepTo(100'000);
  std::vector<uint8_t> blob;
  a.Snapshot(blob);
  const snap::Container c = snap::Container::Parse(blob);
  EXPECT_TRUE(c.flags & snap::kHasReplayLog);
}

// Flag bit 0 is reserved (it marked post-boot blobs for a second restore
// path); a blob that carries it restores like any other.
TEST(SnapshotTest, PostBootBlobWithReservedFlagBitRestores) {
  Board a(BuildImage("quickstart"), {});
  a.Boot();
  std::vector<uint8_t> blob;
  a.Snapshot(blob);
  // The header's flags are a little-endian u32 after magic, version and
  // kind, so bit 0 is in byte 13.
  std::vector<uint8_t> flagged = blob;
  flagged.at(8 + 4 + 1) |= 1u;
  ASSERT_EQ(snap::Container::Parse(flagged).flags & 1u, 1u);

  auto b = Board::Restore(flagged, BuildImage("quickstart"));
  a.StepTo(kSnapAt);
  b->StepTo(kSnapAt);
  EXPECT_EQ(a.fingerprint(), b->fingerprint());
}

// The post-boot state of each image is snapshotted once per process; every
// restore of it must land where a fresh boot does.
class PostBootRestoreTest : public ::testing::Test {
 protected:
  static const std::vector<uint8_t>& BootBlob(const std::string& name) {
    static auto* cache = new std::map<std::string, std::vector<uint8_t>>();
    auto it = cache->find(name);
    if (it == cache->end()) {
      Board board(BuildImage(name), {});
      board.Boot();
      std::vector<uint8_t> blob;
      board.Snapshot(blob);
      it = cache->emplace(name, std::move(blob)).first;
    }
    return it->second;
  }

  static std::unique_ptr<Board> RestoredBoard(const std::string& name) {
    return Board::Restore(BootBlob(name), BuildImage(name));
  }
};

TEST_F(PostBootRestoreTest, MatchesAFreshBootOnEveryShippedImage) {
  for (const auto& target : LintTargets()) {
    Board fresh(target.build(), {});
    fresh.Boot();
    auto restored = RestoredBoard(target.name);
    fresh.StepTo(kSnapAt);
    restored->StepTo(kSnapAt);
    EXPECT_EQ(fresh.fingerprint(), restored->fingerprint()) << target.name;
  }
}

TEST_F(PostBootRestoreTest, BlobIsReusable) {
  // The cached blob restores any number of independent boards.
  auto first = RestoredBoard("producer-consumer");
  auto second = RestoredBoard("producer-consumer");
  first->StepTo(kSnapAt);
  second->StepTo(kSnapAt);
  EXPECT_EQ(first->fingerprint(), second->fingerprint());
}

// --- Byte goldens: the serialized form of two fixed board states ----------
//
// Every section body and the whole blob are pinned by FNV-1a digest, so a
// change that moves any serialized byte (or the header) shows up here by
// section name.

uint64_t Fnv1a(std::span<const uint8_t> bytes) {
  uint64_t h = 1469598103934665603ull;
  for (uint8_t b : bytes) {
    h = (h ^ b) * 1099511628211ull;
  }
  return h;
}

FirmwareImage FleetAppImage() {
  return sim::BuildFleetAppImage(std::make_shared<sim::FleetAppState>(), {});
}

// Fleet app image, board 0, all three recorders on, stepped every 500,000
// cycles to 4,000,000 with one 60-byte 0xAB frame injected after the
// 2,000,000 step (due 1,000 cycles later).
std::vector<uint8_t> GoldenMidRunBlob() {
  Board board(FleetAppImage(), {});
  board.EnableTrace();
  board.EnableForensics();
  board.EnableCoverage();
  board.Boot();
  for (Cycles t = 500'000; t <= 4'000'000; t += 500'000) {
    board.StepTo(t);
    if (t == 2'000'000) {
      board.InjectAt(t + 1'000, std::vector<uint8_t>(60, 0xAB));
    }
  }
  std::vector<uint8_t> blob;
  board.Snapshot(blob);
  return blob;
}

// Fleet app image straight after Boot(), no recorder attached.
std::vector<uint8_t> GoldenPostBootBlob() {
  Board board(FleetAppImage(), {});
  board.Boot();
  std::vector<uint8_t> blob;
  board.Snapshot(blob);
  return blob;
}

struct BlobGolden {
  size_t bytes;
  uint32_t flags;
  uint64_t digest;
  std::vector<std::pair<std::string, uint64_t>> sections;  // in blob order
};

void ExpectBlobMatches(const std::vector<uint8_t>& blob,
                       const BlobGolden& golden) {
  const snap::Container c = snap::Container::Parse(blob);
  std::vector<std::pair<std::string, uint64_t>> sections;
  for (const snap::Section& s : c.sections) {
    sections.emplace_back(snap::SectionName(s.id), Fnv1a(s.body));
  }
  EXPECT_EQ(blob.size(), golden.bytes);
  EXPECT_EQ(c.flags, golden.flags);
  EXPECT_EQ(Fnv1a(blob), golden.digest);
  EXPECT_EQ(sections, golden.sections);
}

TEST(SnapshotGoldenTest, MidRunBoardBlobIsByteStable) {
  ExpectBlobMatches(GoldenMidRunBlob(),
                    {582'002,
                     snap::kHasReplayLog | snap::kHasTrace |
                         snap::kHasForensics | snap::kHasCoverage,
                     0x1feab3ffd1ac2dffull,
                     {
                         {"OPTS", 0x9290c159ecfac4ccull},
                         {"BOOT", 0x45c6286b845485c1ull},
                         {"CLCK", 0x4a44475ab045849eull},
                         {"SRAM", 0x84190517735e1cedull},
                         {"IRQS", 0x315446a086a23133ull},
                         {"DEVS", 0x7e839e4d56678d96ull},
                         {"RVOK", 0x1e033c5949d8d351ull},
                         {"KERN", 0xb62160607676600bull},
                         {"SCHD", 0xfe1b78f4f9ebde0dull},
                         {"SWCH", 0x47fe0d7eaf8e51e3ull},
                         {"ALOC", 0xc9d70a4fb019c742ull},
                         {"BORD", 0x7d9182749eacd3d2ull},
                         {"TRCE", 0x541ecde9b85d2344ull},
                         {"HLTH", 0x83a93045435b6942ull},
                         {"COVG", 0x8562a32ee1730089ull},
                         {"RLOG", 0xd761c0671bb5c943ull},
                     }});
}

TEST(SnapshotGoldenTest, PostBootBoardBlobIsByteStable) {
  ExpectBlobMatches(GoldenPostBootBlob(),
                    {289'454,
                     snap::kHasReplayLog,
                     0xa078e003e1f03e66ull,
                     {
                         {"OPTS", 0x6a0cfafbe753c531ull},
                         {"BOOT", 0x45c6286b845485c1ull},
                         {"CLCK", 0x3fd445c70708a2ebull},
                         {"SRAM", 0xe93d91816dd4dd1bull},
                         {"IRQS", 0x315446a086a23133ull},
                         {"DEVS", 0x2da3627922570ec8ull},
                         {"RVOK", 0x1e033c5949d8d351ull},
                         {"KERN", 0x87af33d7f86acb96ull},
                         {"SCHD", 0xe10b1384542ce9e2ull},
                         {"SWCH", 0x47fe0d7eaf8e51e3ull},
                         {"ALOC", 0x95ea945a0acb69acull},
                         {"BORD", 0xffb0ad99e7fcce4full},
                         {"RLOG", 0x47fe0d7eaf8e51e3ull},
                     }});
}

// Quickstart's only thread switched in at cycle 8 and makes its first
// compartment call at cycle 202, so at cycle 100 the trace profiler holds an
// unsettled span on a thread it has not charged before. TRCE must carry that
// span and that thread's stack exactly as a settlement at cycle 100 would.
TEST(SnapshotGoldenTest, TraceSectionInAThreadsFirstCyclesIsByteStable) {
  Board board(BuildImage("quickstart"), {});
  board.EnableTrace();
  board.Boot();
  board.StepTo(100);
  std::vector<uint8_t> blob;
  board.Snapshot(blob);
  const snap::Container c = snap::Container::Parse(blob);
  EXPECT_EQ(Fnv1a(c.Require(snap::kSecTrace).body), 0xcc9ea11d6ce5d139ull);
}

// --- Trace / health exports survive a restore byte-identically ------------

TEST(SnapshotTest, TraceAndHealthExportsAreByteIdenticalAfterRestore) {
  Board a(BuildImage("iot-mqtt-app"), {});
  a.EnableTrace();
  a.EnableForensics();
  a.Boot();
  a.StepTo(kSnapAt);
  std::vector<uint8_t> blob;
  a.Snapshot(blob);

  const snap::Container c = snap::Container::Parse(blob);
  EXPECT_TRUE(c.flags & snap::kHasTrace);
  EXPECT_TRUE(c.flags & snap::kHasForensics);

  auto b = Board::Restore(blob, BuildImage("iot-mqtt-app"));
  EXPECT_EQ(trace::ChromeTrace(*a.trace_recorder()).Dump(2),
            trace::ChromeTrace(*b->trace_recorder()).Dump(2));
  EXPECT_EQ(health::HealthReport(a).Dump(2),
            health::HealthReport(*b).Dump(2));

  // And they stay in lockstep when both keep running.
  a.StepTo(kHorizon);
  b->StepTo(kHorizon);
  EXPECT_EQ(trace::ChromeTrace(*a.trace_recorder()).Dump(2),
            trace::ChromeTrace(*b->trace_recorder()).Dump(2));
  EXPECT_EQ(health::HealthReport(a).Dump(2),
            health::HealthReport(*b).Dump(2));
}

// --- Fleet snapshots -------------------------------------------------------

std::unique_ptr<Fleet> MakeFleet(int boards, int host_threads,
                                 FleetOptions options = {}) {
  options.host_threads = host_threads;
  auto fleet = std::make_unique<Fleet>(options);
  for (int i = 0; i < boards; ++i) {
    sim::FleetAppOptions app;
    app.board_index = i;
    fleet->AddBoard(
        sim::BuildFleetAppImage(std::make_shared<sim::FleetAppState>(), app));
  }
  fleet->Boot();
  return fleet;
}

Fleet::ImageResolver FleetImages() {
  return [](int i) {
    sim::FleetAppOptions app;
    app.board_index = i;
    return sim::BuildFleetAppImage(std::make_shared<sim::FleetAppState>(),
                                   app);
  };
}

TEST(SnapshotTest, FleetSnapshotIsByteIdenticalAcrossWorkerCounts) {
  // host_threads is a pure host-performance knob, so snapshots of the same
  // logical state taken at 1, 2 and 4 workers must byte-match.
  std::vector<uint8_t> reference;
  for (int workers : {1, 2, 4}) {
    auto fleet = MakeFleet(4, workers);
    fleet->Run(cost::kCoreHz);  // one simulated second
    fleet->PublishMqtt("snap/ctrl", {0x01, 0x02, 0x03});
    fleet->Run(cost::kCoreHz / 4);
    std::vector<uint8_t> blob;
    fleet->Snapshot(blob);
    if (reference.empty()) {
      reference = std::move(blob);
    } else {
      EXPECT_EQ(reference, blob) << workers << " workers";
    }
  }
  EXPECT_FALSE(reference.empty());
}

TEST(SnapshotTest, FleetRoundTripAtEveryWorkerCount) {
  auto original = MakeFleet(4, /*host_threads=*/1);
  original->Run(cost::kCoreHz);
  original->PublishMqtt("snap/ctrl", {0xAA, 0xBB});
  original->Run(cost::kCoreHz / 4);
  std::vector<uint8_t> blob;
  original->Snapshot(blob);
  original->Run(cost::kCoreHz / 2);
  const auto expect = original->Fingerprints();

  for (int workers : {1, 2, 4}) {
    auto restored = Fleet::Restore(blob, FleetImages(), workers);
    EXPECT_EQ(restored->Now(), original->Now() - cost::kCoreHz / 2);
    restored->Run(cost::kCoreHz / 2);
    EXPECT_EQ(restored->Fingerprints(), expect) << workers << " workers";
  }
}

// --- Fuzz smoke: snapshot at a random cycle in a random scenario ----------

TEST(SnapshotTest, FuzzSmokeRandomScenarioSurvivesSnapshotAtRandomCycle) {
  struct FuzzOp {
    Cycles target = 0;           // StepTo target
    bool inject = false;         // also inject a frame after stepping
    Cycles inject_delay = 0;     // due = Now() + delay
    std::vector<uint8_t> frame;  // random bytes
  };

  std::mt19937 rng(0xC4E1107u);
  std::vector<FuzzOp> ops;
  Cycles target = 50'000;
  for (int i = 0; i < 24; ++i) {
    FuzzOp op;
    target += 10'000 + rng() % 400'000;
    op.target = target;
    if (rng() % 3 == 0) {
      op.inject = true;
      op.inject_delay = 100 + rng() % 5'000;
      op.frame.resize(14 + rng() % 50);
      for (auto& byte : op.frame) {
        byte = static_cast<uint8_t>(rng());
      }
    }
    ops.push_back(std::move(op));
  }
  const size_t snap_index = 8 + rng() % 8;  // snapshot mid-scenario

  auto apply = [](Board& board, const FuzzOp& op) {
    board.StepTo(op.target);
    if (op.inject) {
      board.InjectAt(board.Now() + op.inject_delay, op.frame);
    }
  };

  Board a(BuildImage("fleet-node"), {});
  a.Boot();
  for (size_t i = 0; i < snap_index; ++i) {
    apply(a, ops[i]);
  }
  std::vector<uint8_t> blob;
  a.Snapshot(blob);

  auto b = Board::Restore(blob, BuildImage("fleet-node"));
  for (size_t i = snap_index; i < ops.size(); ++i) {
    apply(a, ops[i]);
    apply(*b, ops[i]);
  }
  EXPECT_EQ(a.fingerprint(), b->fingerprint());
}

// --- Crash scenes ----------------------------------------------------------

// Use-after-free with no handler: every call files a crash record, so scene
// capture has something to photograph.
FirmwareImage FaultingImage(int threads = 1) {
  ImageBuilder b("snap-fault");
  b.Compartment("app")
      .Globals(32)
      .AllocCap("q", 8192)
      .Export("main", [](CompartmentCtx& ctx, const std::vector<Capability>&) {
        const Capability q = ctx.SealedImport("q");
        const Capability p = ctx.HeapAllocate(q, 64);
        ctx.StoreWord(p, 0, 42);
        ctx.HeapFree(q, p);
        ctx.LoadWord(p, 0);  // traps: revoked capability, no handler
        return StatusCap(Status::kOk);
      });
  sync::UseAllocator(b, "app");
  for (int i = 0; i < threads; ++i) {
    std::string name = "t";
    name += std::to_string(i);
    b.Thread(name, 1, 8192, 8, "app.main");
  }
  return b.Build();
}

TEST(SnapshotTest, CrashSceneCaptureCostsZeroGuestCycles) {
  auto run = [](bool scenes) {
    Board board(FaultingImage(), {});
    health::ForensicsOptions fopts;
    fopts.capture_crash_scene = scenes;
    board.EnableForensics(fopts);
    board.Boot();
    board.StepTo(kSnapAt);
    return std::make_pair(board.fingerprint(),
                          board.forensics_recorder()->Records());
  };
  const auto with_scenes = run(true);
  const auto without = run(false);
  EXPECT_EQ(with_scenes.first, without.first);

  ASSERT_FALSE(with_scenes.second.empty());
  bool any_scene = false;
  for (const auto& rec : with_scenes.second) {
    if (rec.scene.empty()) {
      continue;
    }
    any_scene = true;
    // The scene is a parseable machine-state container with the memory image
    // and kernel sections aboard.
    const snap::Container c = snap::Container::Parse(rec.scene);
    EXPECT_EQ(c.kind, snap::kScene);
    EXPECT_TRUE(c.Has(snap::kSecMemory));
    EXPECT_TRUE(c.Has(snap::kSecKernel));
  }
  EXPECT_TRUE(any_scene);
  for (const auto& rec : without.second) {
    EXPECT_TRUE(rec.scene.empty());
  }
}

TEST(SnapshotTest, SceneRetentionIsBoundedByTheConfiguredLimit) {
  Board board(FaultingImage(), {});
  health::ForensicsOptions fopts;
  fopts.capture_crash_scene = true;
  fopts.scene_limit = 1;
  board.EnableForensics(fopts);
  board.Boot();
  board.StepTo(kSnapAt);
  size_t scenes = 0;
  for (const auto& rec : board.forensics_recorder()->Records()) {
    if (!rec.scene.empty()) {
      ++scenes;
    }
  }
  EXPECT_LE(scenes, 1u);
}

// --- Failure modes ---------------------------------------------------------

TEST(SnapshotTest, RestoreRejectsGarbageAndTruncation) {
  const std::vector<uint8_t> garbage = {0xDE, 0xAD, 0xBE, 0xEF};
  EXPECT_THROW(Board::Restore(garbage, BuildImage("quickstart")),
               snap::SnapshotError);

  Board a(BuildImage("quickstart"), {});
  a.Boot();
  std::vector<uint8_t> blob;
  a.Snapshot(blob);
  std::vector<uint8_t> truncated(blob.begin(),
                                 blob.begin() + blob.size() / 2);
  EXPECT_THROW(Board::Restore(truncated, BuildImage("quickstart")),
               snap::SnapshotError);
}

// A corrupt length in the DEVS section must raise SnapshotError, and nothing
// may be sized from it: the latched-frame length and the LED event count are
// patched to 0xFFFFFFF0. Restore never decodes DEVS, so the verify finds the
// patched section differs from the replayed board's.
TEST(SnapshotTest, RestoreRejectsDeviceLengthsBeyondTheSection) {
  Board a(BuildImage("quickstart"), {});
  a.Boot();
  std::vector<uint8_t> blob;
  a.Snapshot(blob);
  const snap::Container cold = snap::Container::Parse(blob);

  // DEVS: UART output, LED state and event list, timer, then the NIC's MAC,
  // its RX FIFO (empty after boot) and the latched frame.
  const std::span<const uint8_t> devs = cold.Require(snap::kSecDevices).body;
  snap::Reader r(devs);
  r.Str();
  r.U32();
  const size_t led_events_at = devs.size() - r.remaining();
  ASSERT_EQ(r.U32(), 0u);
  r.U64();
  r.Bool();
  uint8_t mac[6];
  r.BytesInto(mac, sizeof(mac));
  ASSERT_EQ(r.U32(), 0u);
  const size_t latched_length_at = devs.size() - r.remaining();

  const size_t devs_at = static_cast<size_t>(devs.data() - blob.data());
  auto with_length = [&](size_t offset) {
    std::vector<uint8_t> patched = blob;
    for (int i = 0; i < 4; ++i) {
      patched[devs_at + offset + static_cast<size_t>(i)] =
          static_cast<uint8_t>(0xFFFFFFF0u >> (8 * i));
    }
    return patched;
  };
  EXPECT_THROW(
      Board::Restore(with_length(latched_length_at), BuildImage("quickstart")),
      snap::SnapshotError);
  EXPECT_THROW(
      Board::Restore(with_length(led_events_at), BuildImage("quickstart")),
      snap::SnapshotError);
}

TEST(SnapshotTest, BoardRestoreRejectsFleetSnapshots) {
  auto fleet = MakeFleet(2, 1);
  fleet->Run(cost::kCoreHz / 8);
  std::vector<uint8_t> blob;
  fleet->Snapshot(blob);
  EXPECT_THROW(Board::Restore(blob, BuildImage("fleet-node")),
               snap::SnapshotError);
}

// --- Hostile blobs ---------------------------------------------------------
//
// Restore decodes only OPTS and RLOG for a board, and FLET and FLOG for a
// fleet. Nothing may be built or run from a decoded value the blob does not
// back: unchecked, each repro below raises std::bad_alloc,
// std::invalid_argument or std::length_error, aborts on a CHECK, or runs
// without end.

struct Field {
  size_t offset;
  size_t width;
};

size_t Offset(std::span<const uint8_t> body, const snap::Reader& r) {
  return body.size() - r.remaining();
}

std::span<const uint8_t> Body(const snap::Container& c, uint32_t id) {
  return c.Require(id).body;
}

// Where section `id`'s body starts in `blob`.
size_t BodyOffset(const std::vector<uint8_t>& blob, uint32_t id) {
  return static_cast<size_t>(
      Body(snap::Container::Parse(blob), id).data() - blob.data());
}

// A copy of `blob` with the `width`-byte little-endian `value` written at
// `offset` of section `id`.
std::vector<uint8_t> Patched(const std::vector<uint8_t>& blob, uint32_t id,
                             size_t offset, uint64_t value, size_t width) {
  if (offset + width > Body(snap::Container::Parse(blob), id).size()) {
    throw std::out_of_range("patch past the end of " + snap::SectionName(id));
  }
  std::vector<uint8_t> out = blob;
  const size_t at = BodyOffset(blob, id) + offset;
  for (size_t i = 0; i < width; ++i) {
    out[at + i] = static_cast<uint8_t>(value >> (8 * i));
  }
  return out;
}

// Board OPTS, in the order Board::Snapshot writes it; the trace and
// forensics fields exist only when those recorders are on.
struct OptsLayout {
  size_t sram_base = 0;
  size_t sram_size = 0;
  size_t trace_ring = 0;
  size_t forensics_ring = 0;
};

OptsLayout BoardOptsLayout(std::span<const uint8_t> opts) {
  OptsLayout l;
  snap::Reader r(opts);
  r.I32();  // index
  uint8_t mac[6];
  r.BytesInto(mac, sizeof(mac));
  l.sram_base = Offset(opts, r);
  r.U32();
  l.sram_size = Offset(opts, r);
  r.U32();
  r.Bool();  // uart_echo
  r.U64();   // tick_quantum
  r.U64();   // idle_chunk
  r.Bool();  // fast_forward
  if (r.Bool()) {
    l.trace_ring = Offset(opts, r);
    r.U64();
    r.Bool();  // profile
  }
  if (r.Bool()) {
    l.forensics_ring = Offset(opts, r);
  }
  return l;
}

// Fleet FLET, in the order Fleet::Snapshot writes it.
struct FletLayout {
  size_t epoch = 0;
  size_t board_link_latency = 0;
  size_t sram_size = 0;
  size_t fast_forward = 0;
  size_t board_count = 0;
};

FletLayout FleetFletLayout(std::span<const uint8_t> flet) {
  FletLayout l;
  snap::Reader r(flet);
  l.epoch = Offset(flet, r);
  r.U64();
  l.board_link_latency = Offset(flet, r);
  r.U64();
  r.U64();  // world link latency
  for (uint32_t n = r.U32(); n > 0; --n) {
    r.Str();
    r.U32();
  }
  r.U32();   // ntp_unix_base
  r.I32();   // drop_every_nth_tcp
  r.Bool();  // mqtt_fanout
  r.U32();   // sram_base
  l.sram_size = Offset(flet, r);
  r.U32();
  r.Bool();  // uart_echo
  r.U64();   // tick_quantum
  r.U64();   // idle_chunk
  l.fast_forward = Offset(flet, r);
  // The tail is board_count (U32), the fleet clock and frames exchanged.
  l.board_count = flet.size() - 4 - 8 - 8;
  return l;
}

// Every header field of a board RLOG body: the op count, then per op its
// kind, step target (or injection clock), due cycle and frame length.
std::vector<Field> RlogHeaderFields(std::span<const uint8_t> body) {
  std::vector<Field> out;
  snap::Reader r(body);
  out.push_back({Offset(body, r), 8});
  for (uint64_t n = r.U64(); n > 0; --n) {
    out.push_back({Offset(body, r), 1});
    r.U8();
    out.push_back({Offset(body, r), 8});
    r.U64();
    out.push_back({Offset(body, r), 8});
    r.U64();
    out.push_back({Offset(body, r), 8});
    r.Blob();
    r.I32();  // flow origin
    r.U32();  // flow sequence
  }
  return out;
}

// Every header field of a fleet FLOG body: the op count, then per op its
// kind and, by kind, the advance target or the MQTT topic and payload
// lengths (a ping carries no length or target).
std::vector<Field> FlogHeaderFields(std::span<const uint8_t> body) {
  std::vector<Field> out;
  snap::Reader r(body);
  out.push_back({Offset(body, r), 8});
  for (uint64_t n = r.U64(); n > 0; --n) {
    out.push_back({Offset(body, r), 1});
    switch (r.U8()) {
      case 0:
        out.push_back({Offset(body, r), 8});
        r.U64();
        break;
      case 1:
        out.push_back({Offset(body, r), 4});
        r.Str();
        out.push_back({Offset(body, r), 8});
        r.Blob();
        break;
      default:
        r.U32();
        r.U16();
        r.U16();
        break;
    }
  }
  return out;
}

std::vector<uint8_t> TwoBoardFleetBlob() {
  auto fleet = MakeFleet(2, 1);
  fleet->Run(cost::kCoreHz / 8);
  std::vector<uint8_t> blob;
  fleet->Snapshot(blob);
  return blob;
}

// The SnapshotError's text, or "" if `restore` returns or throws anything
// else.
std::string SnapshotErrorOf(const std::function<void()>& restore) {
  try {
    restore();
  } catch (const snap::SnapshotError& e) {
    return e.what();
  } catch (...) {
  }
  return "";
}

// A step or advance past the snapshot's clock is refused before it runs;
// the verify would object too, but only after the run.
constexpr const char* kPastTheClock = "past the snapshot's clock";

TEST(SnapshotTest, RestoreRefusesAStepPastTheSnapshotClock) {
  // The last logged op is the step to 4,000,000; patched to 2^40, the
  // board would run on toward cycle 2^40.
  const std::vector<uint8_t> blob = GoldenMidRunBlob();
  const std::vector<Field> rlog = RlogHeaderFields(
      Body(snap::Container::Parse(blob), snap::kSecReplayLog));
  const Field last_target = rlog[rlog.size() - 3];
  const std::vector<uint8_t> patched = Patched(
      blob, snap::kSecReplayLog, last_target.offset, 1ull << 40, 8);
  EXPECT_NE(SnapshotErrorOf([&] { Board::Restore(patched, FleetAppImage()); })
                .find(kPastTheClock),
            std::string::npos);
}

TEST(SnapshotTest, FleetRestoreRefusesAnAdvancePastTheSnapshotClock) {
  const std::vector<uint8_t> blob = TwoBoardFleetBlob();
  const std::vector<Field> flog =
      FlogHeaderFields(Body(snap::Container::Parse(blob), snap::kSecFleetLog));
  ASSERT_EQ(flog.size(), 3u);  // count, kind, the one advance target
  const std::vector<uint8_t> patched = Patched(
      blob, snap::kSecFleetLog, flog.back().offset, 1ull << 40, 8);
  EXPECT_NE(SnapshotErrorOf([&] { Fleet::Restore(patched, FleetImages()); })
                .find(kPastTheClock),
            std::string::npos);
}

TEST(SnapshotTest, RestoreRejectsAnSramSizeTheBlobDoesNotHold) {
  const std::vector<uint8_t> blob = GoldenMidRunBlob();
  const OptsLayout opts =
      BoardOptsLayout(Body(snap::Container::Parse(blob), snap::kSecOptions));
  EXPECT_THROW(
      Board::Restore(
          Patched(blob, snap::kSecOptions, opts.sram_size, 0xFFFFFFF0u, 4),
          FleetAppImage()),
      snap::SnapshotError);
}

TEST(SnapshotTest, RestoreRejectsSramGeometryUnlikeTheSramSection) {
  const std::vector<uint8_t> blob = GoldenMidRunBlob();
  const OptsLayout opts =
      BoardOptsLayout(Body(snap::Container::Parse(blob), snap::kSecOptions));
  EXPECT_THROW(Board::Restore(Patched(blob, snap::kSecOptions, opts.sram_size,
                                      4096, 4),
                              FleetAppImage()),
               snap::SnapshotError);
  EXPECT_THROW(Board::Restore(Patched(blob, snap::kSecOptions, opts.sram_base,
                                      0xFFFFF000u, 4),
                              FleetAppImage()),
               snap::SnapshotError);
}

// The trace and forensics rings grow on demand, so a patched capacity sizes
// nothing. Both rings below have wrapped, so a larger capacity would have
// kept what the snapshotted board dropped, and the verify objects. (A ring
// that never wrapped records the same events at any capacity; such a blob
// restores into an equivalent board.)
TEST(SnapshotTest, RestoreSizesNoRecorderRingFromItsCapacity) {
  Board board(FaultingImage(/*threads=*/2), {});
  trace::TraceOptions topts;
  topts.ring_capacity = 4;
  board.EnableTrace(topts);
  health::ForensicsOptions fopts;
  fopts.ring_capacity = 1;
  board.EnableForensics(fopts);
  board.Boot();
  board.StepTo(kSnapAt);
  ASSERT_GT(board.trace_recorder()->dropped(), 0u);
  ASSERT_GT(board.forensics_recorder()->dropped(), 0u);
  std::vector<uint8_t> blob;
  board.Snapshot(blob);

  const OptsLayout opts =
      BoardOptsLayout(Body(snap::Container::Parse(blob), snap::kSecOptions));
  for (const size_t ring : {opts.trace_ring, opts.forensics_ring}) {
    for (const uint64_t capacity : {1ull << 40, 1ull << 62}) {
      EXPECT_THROW(
          Board::Restore(
              Patched(blob, snap::kSecOptions, ring, capacity, 8),
              FaultingImage(/*threads=*/2)),
          snap::SnapshotError)
          << "ring at OPTS offset " << ring << ", capacity " << capacity;
    }
  }
}

TEST(SnapshotTest, FleetRestoreRejectsLinkLatencyAndEpochOutOfBounds) {
  const std::vector<uint8_t> blob = TwoBoardFleetBlob();
  const FletLayout flet =
      FleetFletLayout(Body(snap::Container::Parse(blob), snap::kSecFleet));
  EXPECT_THROW(Fleet::Restore(Patched(blob, snap::kSecFleet,
                                      flet.board_link_latency, 0, 8),
                              FleetImages()),
               snap::SnapshotError);
  EXPECT_THROW(Fleet::Restore(Patched(blob, snap::kSecFleet, flet.epoch,
                                      FleetOptions{}.board_link_latency + 1,
                                      8),
                              FleetImages()),
               snap::SnapshotError);
}

// FLET records the fast-forward mode, and a restore replays in it whatever
// CHERIOT_FLEET_FAST_FORWARD says: the device sections differ between modes,
// so a replay in the other mode could not reproduce them.
TEST(SnapshotTest, FleetRestoresInTheFastForwardModeOfItsSnapshot) {
  constexpr const char* kEnv = "CHERIOT_FLEET_FAST_FORWARD";
  const char* saved = std::getenv(kEnv);
  const std::string saved_value = saved != nullptr ? saved : "";
  ASSERT_EQ(unsetenv(kEnv), 0);
  FleetOptions options;
  options.system.fast_forward = false;
  auto fleet = MakeFleet(2, 1, options);
  fleet->Run(cost::kCoreHz / 2);
  std::vector<uint8_t> blob;
  fleet->Snapshot(blob);
  const std::span<const uint8_t> flet =
      Body(snap::Container::Parse(blob), snap::kSecFleet);
  EXPECT_EQ(flet[FleetFletLayout(flet).fast_forward], 0u);

  for (const char* env : {static_cast<const char*>(nullptr), "1"}) {
    if (env != nullptr) {
      ASSERT_EQ(setenv(kEnv, env, 1), 0);
    }
    std::unique_ptr<Fleet> restored = Fleet::Restore(blob, FleetImages());
    EXPECT_FALSE(restored->fast_forward());
    std::vector<uint8_t> again;
    restored->Snapshot(again);
    EXPECT_EQ(again, blob) << kEnv << "=" << (env != nullptr ? env : "");
  }
  if (saved != nullptr) {
    setenv(kEnv, saved_value.c_str(), 1);
  } else {
    unsetenv(kEnv);
  }
}

TEST(SnapshotTest, FleetRestoreRejectsABoardCountUnlikeItsBoards) {
  const std::vector<uint8_t> blob = TwoBoardFleetBlob();
  const FletLayout flet =
      FleetFletLayout(Body(snap::Container::Parse(blob), snap::kSecFleet));
  EXPECT_THROW(Fleet::Restore(Patched(blob, snap::kSecFleet, flet.board_count,
                                      100'000, 4),
                              FleetImages()),
               snap::SnapshotError);
}

TEST(SnapshotTest, FleetRestoreRejectsSramGeometryUnlikeItsBoards) {
  const std::vector<uint8_t> blob = TwoBoardFleetBlob();
  const FletLayout flet =
      FleetFletLayout(Body(snap::Container::Parse(blob), snap::kSecFleet));
  for (const uint32_t size : {0xFFFFFFF0u, 4096u}) {
    EXPECT_THROW(Fleet::Restore(Patched(blob, snap::kSecFleet, flet.sram_size,
                                        size, 4),
                                FleetImages()),
                 snap::SnapshotError)
        << size;
  }
}

// --- Hostile frame lengths --------------------------------------------------
//
// Restore and DiffBlobs read each section as a view bounded by its frame, so
// a blob cut at any frame, or a frame length past the end of the container
// holding it, raises SnapshotError and nothing else.

// A two-board fleet with every recorder on, so each BRDS entry carries TRCE,
// HLTH and COVG after the board's state sections.
std::vector<uint8_t> RecordedTwoBoardFleetBlob() {
  FleetOptions options;
  options.trace = options.forensics = options.cov = true;
  auto fleet = MakeFleet(2, 1, options);
  fleet->Run(cost::kCoreHz / 8);
  std::vector<uint8_t> blob;
  fleet->Snapshot(blob);
  return blob;
}

constexpr size_t kFrameBytes = 4 + 8;  // id u32, then the body length u64

// A u64 length field at `at` in `blob`, and the end of the container or
// BRDS section whose bytes it counts.
struct LengthField {
  size_t at;
  size_t end;
};

// Every section frame's start in `blob`, and every length field: each
// section's, each BRDS entry's and each section's in a BRDS entry.
void FramesOf(const std::vector<uint8_t>& blob, std::vector<size_t>* frames,
              std::vector<LengthField>* lengths) {
  auto at = [&blob](std::span<const uint8_t> s) {
    return static_cast<size_t>(s.data() - blob.data());
  };
  auto add_sections = [&](const snap::Container& c, size_t end) {
    for (const snap::Section& s : c.sections) {
      frames->push_back(at(s.body) - kFrameBytes);
      lengths->push_back({at(s.body) - 8, end});
    }
  };
  const snap::Container c = snap::Container::Parse(blob);
  add_sections(c, blob.size());
  if (const snap::Section* boards = c.Find(snap::kSecFleetBoards)) {
    snap::Reader r(boards->body);
    for (uint32_t n = r.U32(); n > 0; --n) {
      const std::span<const uint8_t> entry = r.View();
      lengths->push_back({at(entry) - 8, at(boards->body) + boards->body.size()});
      add_sections(snap::Container::Parse(entry), at(entry) + entry.size());
    }
  }
}

// What `fn` raised other than a SnapshotError, or "" if it returned or
// raised only that.
std::string NonSnapshotErrorOf(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const snap::SnapshotError&) {
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "an exception of no std type";
  }
  return "";
}

// Returns the number of section frames it cut at.
size_t ExpectHostileFramesRaiseSnapshotErrors(
    const std::vector<uint8_t>& blob,
    const std::function<void(const std::vector<uint8_t>&)>& restore) {
  std::vector<size_t> frames;
  std::vector<LengthField> lengths;
  FramesOf(blob, &frames, &lengths);
  for (const size_t frame : frames) {
    for (const size_t cut : {frame - 1, frame, frame + 1}) {
      const std::vector<uint8_t> cut_blob(blob.begin(), blob.begin() + cut);
      EXPECT_NE(SnapshotErrorOf([&] { restore(cut_blob); }), "")
          << "cut at " << cut;
      EXPECT_NE(SnapshotErrorOf([&] { snap::DiffBlobs(blob, cut_blob); }), "")
          << "cut at " << cut;
    }
  }
  for (const LengthField& f : lengths) {
    const uint64_t remaining = f.end - (f.at + 8);
    for (const uint64_t length : {remaining + 1, UINT64_MAX}) {
      std::vector<uint8_t> patched = blob;
      for (size_t i = 0; i < 8; ++i) {
        patched[f.at + i] = static_cast<uint8_t>(length >> (8 * i));
      }
      EXPECT_NE(SnapshotErrorOf([&] { restore(patched); }), "")
          << "length at " << f.at << " = " << length;
      // A BRDS entry is opaque to the diff, which then finds BRDS differs.
      EXPECT_EQ(NonSnapshotErrorOf([&] { snap::DiffBlobs(blob, patched); }),
                "")
          << "length at " << f.at << " = " << length;
      EXPECT_EQ(NonSnapshotErrorOf([&] { snap::DiffBlobs(patched, blob); }),
                "")
          << "length at " << f.at << " = " << length;
    }
  }
  return frames.size();
}

TEST(SnapshotTest, BoardBlobCutOrOverlongAtAnyFrameRaisesSnapshotError) {
  EXPECT_EQ(ExpectHostileFramesRaiseSnapshotErrors(
                GoldenMidRunBlob(),
                [](const std::vector<uint8_t>& b) {
                  Board::Restore(b, FleetAppImage());
                }),
            16u);
}

TEST(SnapshotTest, FleetBlobCutOrOverlongAtAnyFrameRaisesSnapshotError) {
  // FLET, FABR, TRCE, BRDS and FLOG, then per board its ten state sections
  // and three recorder sections.
  EXPECT_EQ(ExpectHostileFramesRaiseSnapshotErrors(
                RecordedTwoBoardFleetBlob(),
                [](const std::vector<uint8_t>& b) {
                  Fleet::Restore(b, FleetImages());
                }),
            5u + 2 * 13);
}

// TRCE is never decoded on restore; a flipped byte in board 1's ring is
// found by the verify, which names the outer section holding it.
TEST(SnapshotTest, FleetVerifyNamesBrdsForAFlippedBoardTraceByte) {
  const std::vector<uint8_t> blob = RecordedTwoBoardFleetBlob();
  const snap::Container c = snap::Container::Parse(blob);
  snap::Reader r(c.Require(snap::kSecFleetBoards).body);
  ASSERT_EQ(r.U32(), 2u);
  r.View();  // board 0
  const snap::Container board1 = snap::Container::Parse(r.View());
  const std::span<const uint8_t> trce = board1.Require(snap::kSecTrace).body;
  ASSERT_FALSE(trce.empty());
  std::vector<uint8_t> flipped = blob;
  flipped[static_cast<size_t>(trce.data() - blob.data()) + trce.size() / 2] ^=
      0xFF;
  EXPECT_EQ(SnapshotErrorOf([&] { Fleet::Restore(flipped, FleetImages()); }),
            "snapshot verify failed at section BRDS");
}

// --- Mutation test of the decoded sections ---------------------------------
//
// Every byte of OPTS (board) and FLET (fleet), and every header field of
// RLOG and FLOG, is replaced in turn by 0x00, 0xFF and each single-bit flip.
// Oracle: the restore throws snap::SnapshotError, or returns an object whose
// re-snapshot is the mutated blob byte for byte; it may not throw anything
// else, abort, or run past the wall-clock bound.

using RestoreFn =
    std::function<std::vector<uint8_t>(const std::vector<uint8_t>&)>;

std::vector<uint8_t> Replacements(uint8_t original) {
  std::vector<uint8_t> out;
  for (int v : {0x00, 0xFF, 0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80}) {
    const uint8_t b =
        v == 0x00 || v == 0xFF ? static_cast<uint8_t>(v)
                               : static_cast<uint8_t>(original ^ v);
    if (b != original && std::find(out.begin(), out.end(), b) == out.end()) {
      out.push_back(b);
    }
  }
  return out;
}

// Runs every mutant of the bytes at `offsets` in section `id` of `blob` and
// returns the first oracle violation, or "" when there is none. The bound is
// generous: a mutant may legitimately replay under slower options.
std::string FirstViolation(const std::vector<uint8_t>& blob, uint32_t id,
                           const std::vector<size_t>& offsets,
                           const RestoreFn& restore, int* mutants) {
  using Clock = std::chrono::steady_clock;
  const size_t body_at = BodyOffset(blob, id);
  const auto t0 = Clock::now();
  if (restore(blob) != blob) {
    return "the unmutated blob does not restore";
  }
  const double bound_s =
      1.0 + 200 * std::chrono::duration<double>(Clock::now() - t0).count();
  for (const size_t offset : offsets) {
    for (const uint8_t b : Replacements(blob.at(body_at + offset))) {
      std::vector<uint8_t> mutant = blob;
      mutant[body_at + offset] = b;
      const std::string where = snap::SectionName(id) + " byte " +
                                std::to_string(offset) + " = " +
                                std::to_string(b) + ": ";
      ++*mutants;
      const auto start = Clock::now();
      try {
        if (restore(mutant) != mutant) {
          return where + "restored, but re-snapshots to other bytes";
        }
      } catch (const snap::SnapshotError&) {
      } catch (const std::exception& e) {
        return where + "threw " + e.what();
      }
      const double s = std::chrono::duration<double>(Clock::now() - start)
                           .count();
      if (s > bound_s) {
        return where + "ran " + std::to_string(s) + " s";
      }
    }
  }
  return "";
}

std::vector<size_t> AllBytes(std::span<const uint8_t> body) {
  std::vector<size_t> out(body.size());
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = i;
  }
  return out;
}

std::vector<size_t> BytesOf(const std::vector<Field>& fields) {
  std::vector<size_t> out;
  for (const Field& f : fields) {
    for (size_t i = 0; i < f.width; ++i) {
      out.push_back(f.offset + i);
    }
  }
  return out;
}

TEST(SnapshotMutationTest, BoardOptionsAndReplayLogFailOnlyAsSnapshotErrors) {
  // Fleet app image with every recorder on, so OPTS carries each recorder's
  // options; the log holds steps and one injection.
  Board board(FleetAppImage(), {});
  board.EnableTrace();
  board.EnableForensics();
  board.EnableCoverage();
  board.Boot();
  board.StepTo(100'000);
  board.StepTo(200'000);
  board.InjectAt(board.Now() + 1'000, std::vector<uint8_t>(60, 0xAB));
  board.StepTo(300'000);
  std::vector<uint8_t> blob;
  board.Snapshot(blob);

  const RestoreFn restore = [](const std::vector<uint8_t>& b) {
    std::vector<uint8_t> again;
    Board::Restore(b, FleetAppImage())->Snapshot(again);
    return again;
  };
  const snap::Container c = snap::Container::Parse(blob);
  int mutants = 0;
  ASSERT_EQ(FirstViolation(blob, snap::kSecOptions,
                           AllBytes(Body(c, snap::kSecOptions)), restore,
                           &mutants),
            "");
  ASSERT_EQ(FirstViolation(blob, snap::kSecReplayLog,
                           BytesOf(RlogHeaderFields(
                               Body(c, snap::kSecReplayLog))),
                           restore, &mutants),
            "");
  EXPECT_GT(mutants, 1'000);
}

TEST(SnapshotMutationTest, FleetOptionsAndControlLogFailOnlyAsSnapshotErrors) {
  // Two boards; the control log holds advances, an MQTT publish and a ping.
  auto fleet = MakeFleet(2, 1);
  fleet->Run(100'000);
  fleet->PublishMqtt("snap/ctrl", {0x01, 0x02, 0x03});
  fleet->Run(50'000);
  fleet->SendPing(net::kDeviceIp, 7, 1);
  fleet->Run(50'000);
  std::vector<uint8_t> blob;
  fleet->Snapshot(blob);

  const RestoreFn restore = [](const std::vector<uint8_t>& b) {
    std::vector<uint8_t> again;
    Fleet::Restore(b, FleetImages())->Snapshot(again);
    return again;
  };
  const snap::Container c = snap::Container::Parse(blob);
  int mutants = 0;
  ASSERT_EQ(FirstViolation(blob, snap::kSecFleet,
                           AllBytes(Body(c, snap::kSecFleet)), restore,
                           &mutants),
            "");
  ASSERT_EQ(FirstViolation(blob, snap::kSecFleetLog,
                           BytesOf(FlogHeaderFields(
                               Body(c, snap::kSecFleetLog))),
                           restore, &mutants),
            "");
  EXPECT_GT(mutants, 1'000);
}

}  // namespace
}  // namespace cheriot
