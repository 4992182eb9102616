// Deterministic snapshot/restore acceptance tests (DESIGN.md §10).
//
// The correctness contract under test: run a board N cycles, snapshot, run
// on to M; restore the snapshot into a second board and run it to M — the
// fingerprints are bit-identical and the trace/health exports byte-identical,
// for every shipped image and for fleets at 1/2/4 host workers. On top of
// that: the serialized form is byte-stable (two snapshots of the same state
// are identical), cold post-boot snapshots restore without replay (the
// warm-boot fixture), restore re-binds every host-side handle, a seeded
// random scenario survives snapshot at a random cycle, and crash-scene
// capture costs zero guest cycles.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <random>
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
#include "src/snap/snapshot.h"
#include "src/sync/sync.h"
#include "src/trace/export.h"
#include "tools/lint_targets.h"

namespace cheriot {
namespace {

using sim::Board;
using sim::Fleet;
using sim::FleetOptions;
using tools::FindLintTarget;
using tools::LintTargets;

constexpr Cycles kSnapAt = 2'000'000;
constexpr Cycles kHorizon = 4'000'000;

FirmwareImage BuildImage(const std::string& name) {
  const tools::LintTarget* t = FindLintTarget(name);
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

// --- Cold restore / warm-boot fixture -------------------------------------

TEST(SnapshotTest, PostBootSnapshotIsColdRestorable) {
  Board a(BuildImage("quickstart"), {});
  a.Boot();
  std::vector<uint8_t> blob;
  a.Snapshot(blob);

  const snap::Container c = snap::Container::Parse(blob);
  EXPECT_TRUE(c.flags & snap::kColdRestorable);

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
  EXPECT_FALSE(c.flags & snap::kColdRestorable);
  EXPECT_TRUE(c.flags & snap::kHasReplayLog);
}

// Warm-boot fixture: the post-loader state of each image is snapshotted once
// per process and every test that wants a booted board restores it instead
// of re-running the loader. (EXPERIMENTS.md reports the ctest wall-time
// delta this buys.)
class WarmBootTest : public ::testing::Test {
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

  static std::unique_ptr<Board> WarmBoard(const std::string& name) {
    return Board::Restore(BootBlob(name), BuildImage(name));
  }
};

TEST_F(WarmBootTest, WarmBootMatchesColdBootOnEveryShippedImage) {
  for (const auto& target : LintTargets()) {
    Board cold(target.build(), {});
    cold.Boot();
    auto warm = WarmBoard(target.name);
    cold.StepTo(kSnapAt);
    warm->StepTo(kSnapAt);
    EXPECT_EQ(cold.fingerprint(), warm->fingerprint()) << target.name;
  }
}

TEST_F(WarmBootTest, WarmBootBlobIsReusable) {
  // The cached blob restores any number of independent boards.
  auto first = WarmBoard("producer-consumer");
  auto second = WarmBoard("producer-consumer");
  first->StepTo(kSnapAt);
  second->StepTo(kSnapAt);
  EXPECT_EQ(first->fingerprint(), second->fingerprint());
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

std::unique_ptr<Fleet> MakeFleet(int boards, int host_threads) {
  FleetOptions options;
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
FirmwareImage FaultingImage() {
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
  b.Thread("t", 1, 8192, 8, "app.main");
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

// A corrupt length in the DEVS section must raise SnapshotError before
// anything is sized from it: unchecked, the patched latched-frame length
// zero-fills 4 GiB and the LED event count sizes a 64 GiB log, so the
// restore dies of std::bad_alloc or exhausts host memory first.
TEST(SnapshotTest, RestoreRejectsDeviceLengthsBeyondTheSection) {
  Board a(BuildImage("quickstart"), {});
  a.Boot();
  std::vector<uint8_t> blob;
  a.Snapshot(blob);
  const snap::Container cold = snap::Container::Parse(blob);
  ASSERT_TRUE(cold.flags & snap::kColdRestorable);

  // DEVS: UART output, LED state and event list, timer, then the NIC's MAC,
  // its RX FIFO (empty after boot) and the latched frame.
  const std::vector<uint8_t>& devs = cold.Require(snap::kSecDevices).body;
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

  auto with_length = [&](size_t offset) {
    snap::Container c = cold;
    for (snap::Section& s : c.sections) {
      if (s.id == snap::kSecDevices) {
        for (int i = 0; i < 4; ++i) {
          s.body[offset + static_cast<size_t>(i)] =
              static_cast<uint8_t>(0xFFFFFFF0u >> (8 * i));
        }
      }
    }
    return c.Assemble();
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

}  // namespace
}  // namespace cheriot
