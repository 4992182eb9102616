// cheriot-mc acceptance tests (DESIGN.md §12).
//
// Under test: the schedule arbiter contract (all-default choices are
// invisible to the guest), the FIFO futex wait-queue contract and its
// survival across snapshot/restore, the explorer finding each seeded
// concurrency bug with a minimal (single forced choice) reproduction, the
// shipped fleet image coming back clean with meaningful partial-order
// pruning, report bytes pinned by digest, snapshot diffs naming the first
// divergent section and offset, and mid-run snapshot replay determinism
// under TCP loss injection.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/base/costs.h"
#include "src/kernel/schedule_arbiter.h"
#include "src/mc/explorer.h"
#include "src/rtos.h"
#include "src/sim/board.h"
#include "src/sim/fleet.h"
#include "src/sim/fleet_app.h"
#include "src/snap/diff.h"
#include "src/snap/snapshot.h"
#include "src/sync/sync.h"
#include "tools/lint_targets.h"
#include "tools/mc_targets.h"

namespace cheriot {
namespace {

using sim::Board;
using sim::Fleet;
using sim::FleetOptions;
using tools::FindTarget;

FirmwareImage BuildImage(const std::string& name) {
  const tools::LintTarget* t = FindTarget(name);
  EXPECT_NE(t, nullptr) << name;
  return t->build();
}

mc::McOptions FastOptions() {
  mc::McOptions o;
  o.max_schedules = 64;
  o.cycles = 2'000'000;
  return o;
}

// --- The arbiter contract: default choices are invisible ------------------

class DefaultArbiter : public ScheduleArbiter {
 public:
  int Choose(DecisionKind, uint32_t, int) override {
    ++consulted;
    return 0;
  }
  int consulted = 0;
};

TEST(McTest, AllDefaultArbiterLeavesTheFingerprintUntouched) {
  // Choice 0 must be bit-identical to running without an arbiter at all —
  // the wiring in the scheduler/kernel/board costs zero guest cycles.
  for (const char* name : {"seeded-lost-wake", "producer-consumer"}) {
    Board plain(BuildImage(name), {});
    plain.Boot();
    plain.StepTo(2'000'000);

    Board arbitered(BuildImage(name), {});
    DefaultArbiter arbiter;
    arbitered.SetArbiter(&arbiter);
    arbitered.Boot();
    arbitered.StepTo(2'000'000);

    EXPECT_EQ(plain.fingerprint(), arbitered.fingerprint()) << name;
  }
}

// --- FIFO futex wait-queue contract (src/sync/sync.h) ---------------------

struct WakeLog {
  std::vector<int> order;
};

// Three same-priority waiters block on the futex in creation order; a
// lower-priority waker sleeps past the snapshot point and then wakes all
// three. Each waiter appends its thread id as it resumes.
FirmwareImage FifoImage(std::shared_ptr<WakeLog> log) {
  ImageBuilder b("fifo-regression");
  b.Compartment("app")
      .Globals(64)
      .Export("waiter",
              [log](CompartmentCtx& ctx, const std::vector<Capability>&) {
                ctx.FutexWait(ctx.globals(), 0, ~0u);
                log->order.push_back(ctx.ThreadId());
                return StatusCap(Status::kOk);
              })
      .Export("waker",
              [](CompartmentCtx& ctx, const std::vector<Capability>&) {
                ctx.SleepCycles(1'000'000);
                ctx.StoreWord(ctx.globals(), 0, 1);
                ctx.FutexWake(ctx.globals(), 3);
                return StatusCap(Status::kOk);
              });
  sync::UseScheduler(b, "app");
  b.Thread("w0", 2, 4096, 8, "app.waiter");
  b.Thread("w1", 2, 4096, 8, "app.waiter");
  b.Thread("w2", 2, 4096, 8, "app.waiter");
  b.Thread("waker", 1, 4096, 8, "app.waker");
  return b.Build();
}

TEST(McTest, FutexWakeOrderIsFifo) {
  auto log = std::make_shared<WakeLog>();
  Board board(FifoImage(log), {});
  board.Boot();
  board.StepTo(3'000'000);
  EXPECT_EQ(log->order, (std::vector<int>{0, 1, 2}));
}

TEST(McTest, FutexWakeOrderSurvivesSnapshotRestore) {
  // Snapshot while the waiters are parked (the waker is still asleep),
  // restore into a fresh board, and let the wake happen there: the restored
  // wait queue must pop in the same FIFO order the original would have.
  auto original_log = std::make_shared<WakeLog>();
  Board original(FifoImage(original_log), {});
  original.Boot();
  original.StepTo(500'000);
  std::vector<uint8_t> blob;
  original.Snapshot(blob);
  original.StepTo(3'000'000);
  EXPECT_EQ(original_log->order, (std::vector<int>{0, 1, 2}));

  auto restored_log = std::make_shared<WakeLog>();
  auto restored = Board::Restore(blob, FifoImage(restored_log));
  restored->StepTo(3'000'000);
  EXPECT_EQ(restored_log->order, original_log->order);
  EXPECT_EQ(restored->fingerprint(), original.fingerprint());
}

// --- The explorer finds every seeded bug, minimally -----------------------

TEST(McTest, FindsSeededLostWakeDeadlockWithOneForcedChoice) {
  const tools::LintTarget* t = FindTarget("seeded-lost-wake");
  ASSERT_NE(t, nullptr);
  const mc::McReport report = mc::Explore(t->name, t->build, FastOptions());
  ASSERT_FALSE(report.clean());
  EXPECT_EQ(report.baseline_result, "all-exited");
  const mc::Failure& f = report.failures.front();
  EXPECT_EQ(f.kind, "deadlock");
  ASSERT_EQ(f.repro.size(), 1u);
  EXPECT_EQ(f.repro[0].kind, DecisionKind::kSyncPreempt);
}

TEST(McTest, FindsSeededWakeOrderDivergenceWithOneForcedChoice) {
  const tools::LintTarget* t = FindTarget("seeded-wake-order");
  ASSERT_NE(t, nullptr);
  const mc::McReport report = mc::Explore(t->name, t->build, FastOptions());
  ASSERT_FALSE(report.clean());
  bool found = false;
  for (const mc::Failure& f : report.failures) {
    if (f.kind == "divergence") {
      found = true;
      ASSERT_EQ(f.repro.size(), 1u);
      EXPECT_EQ(f.repro[0].kind, DecisionKind::kWakeOrder);
    }
  }
  EXPECT_TRUE(found);
}

TEST(McTest, FindsSeededQuotaRaceTrapWithOneForcedChoice) {
  const tools::LintTarget* t = FindTarget("seeded-quota-race");
  ASSERT_NE(t, nullptr);
  const mc::McReport report = mc::Explore(t->name, t->build, FastOptions());
  ASSERT_FALSE(report.clean());
  bool found = false;
  for (const mc::Failure& f : report.failures) {
    if (f.kind == "trap") {
      found = true;
      EXPECT_NE(f.detail.find("tag violation"), std::string::npos) << f.detail;
      EXPECT_NE(f.detail.find("app"), std::string::npos) << f.detail;
      ASSERT_EQ(f.repro.size(), 1u);
      EXPECT_EQ(f.repro[0].kind, DecisionKind::kSyncPreempt);
    }
  }
  EXPECT_TRUE(found);
}

// --- Shipped images stay clean; POR actually prunes -----------------------

TEST(McTest, ShippedFleetNodeImageIsCleanWithMajorityPruning) {
  const tools::LintTarget* t = FindTarget("fleet-node");
  ASSERT_NE(t, nullptr);
  const mc::McReport report = mc::Explore(t->name, t->build, FastOptions());
  EXPECT_TRUE(report.clean());
  EXPECT_TRUE(report.frontier_exhausted);
  // The acceptance bar: partial-order reduction prunes at least half of the
  // naive schedule tree on a real shipped image.
  EXPECT_GE(report.pruned_pct(), 50) << report.ToJson().Dump(2);
}

TEST(McTest, ReportJsonIsByteStableAcrossRuns) {
  const tools::LintTarget* t = FindTarget("seeded-lost-wake");
  ASSERT_NE(t, nullptr);
  const std::string a =
      mc::Explore(t->name, t->build, FastOptions()).ToJson().Dump(2);
  const std::string b =
      mc::Explore(t->name, t->build, FastOptions()).ToJson().Dump(2);
  EXPECT_EQ(a, b);
}

// The report bytes are pinned by FNV-1a digest of `ToJson().Dump(2)` (what
// `cheriot mc` writes, less the trailing newline) for the seeded images and
// the shipped fleet image, at default options and with fault injection, so
// any change to how schedules are run shows up as a changed report.
TEST(McTest, ReportBytesMatchTheGoldenDigests) {
  auto fnv1a = [](const std::string& s) {
    uint64_t h = 1469598103934665603ull;
    for (char c : s) {
      h = (h ^ static_cast<uint8_t>(c)) * 1099511628211ull;
    }
    return h;
  };
  struct Golden {
    const char* image;
    uint64_t default_digest;
    uint64_t faults_digest;
  };
  for (const Golden& g : std::vector<Golden>{
           {"seeded-lost-wake", 0x7611a6116b37f524ull, 0xfa0691e0211a5d3full},
           {"seeded-quota-race", 0xbb14264bcc327e0eull, 0x48b973ebc6829314ull},
           {"seeded-wake-order", 0x4cd01f9484854c33ull, 0xe585f811a44fb96aull},
           {"fleet-node", 0x8c380038af872d64ull, 0x3ef9ee9f1e17311aull},
       }) {
    const tools::LintTarget* t = FindTarget(g.image);
    ASSERT_NE(t, nullptr) << g.image;
    mc::McOptions faults;
    faults.inject_faults = true;
    EXPECT_EQ(fnv1a(mc::Explore(t->name, t->build).ToJson().Dump(2)),
              g.default_digest)
        << g.image;
    EXPECT_EQ(fnv1a(mc::Explore(t->name, t->build, faults).ToJson().Dump(2)),
              g.faults_digest)
        << g.image << " --inject-faults";
  }
}

// --- Snapshot diff names the first divergent section (satellite 3) --------

TEST(McTest, DiffBlobsNamesFirstDivergentSectionAndOffset) {
  Board board(BuildImage("quickstart"), {});
  board.Boot();
  board.StepTo(1'000'000);
  std::vector<uint8_t> blob;
  board.Snapshot(blob);

  // Perturb one byte in the middle of a section body, in a copy of the blob.
  const snap::Container c = snap::Container::Parse(blob);
  ASSERT_FALSE(c.sections.empty());
  const snap::Section* victim = nullptr;
  for (const snap::Section& s : c.sections) {
    if (s.body.size() >= 64) {
      victim = &s;
      break;
    }
  }
  ASSERT_NE(victim, nullptr);
  const size_t flip = victim->body.size() / 2;
  std::vector<uint8_t> perturbed = blob;
  perturbed[static_cast<size_t>(victim->body.data() - blob.data()) + flip] ^=
      0xFF;

  const snap::BlobDiff d = snap::DiffBlobs(blob, perturbed);
  EXPECT_FALSE(d.equal);
  ASSERT_EQ(d.divergent.size(), 1u);
  EXPECT_EQ(d.divergent[0].id, victim->id);
  EXPECT_EQ(d.divergent[0].name, snap::SectionName(victim->id));
  EXPECT_EQ(d.divergent[0].first_diff_offset, flip);
  // The summary carries the fourcc name and the offset (the human-facing
  // line `cheriot snap diff` prints).
  EXPECT_NE(d.summary.find(snap::SectionName(victim->id)), std::string::npos)
      << d.summary;
  EXPECT_NE(d.summary.find(std::to_string(flip)), std::string::npos)
      << d.summary;

  const snap::BlobDiff same = snap::DiffBlobs(blob, blob);
  EXPECT_TRUE(same.equal);
  EXPECT_TRUE(same.summary.empty());
}

// --- Mid-run snapshot replay under fault injection (satellite 4) ----------

Fleet::ImageResolver FleetImages() {
  return [](int i) {
    sim::FleetAppOptions app;
    app.board_index = i;
    app.busy_publishes = 8;  // must match the boards the snapshot was taken of
    return sim::BuildFleetAppImage(std::make_shared<sim::FleetAppState>(),
                                   app);
  };
}

TEST(McTest, MidRunSnapshotReplaysIdenticallyUnderTcpLoss) {
  FleetOptions options;
  options.host_threads = 1;
  options.world.drop_every_nth_tcp = 3;
  // Flow recording on: the snapshot lands between a TCP drop and its
  // retransmission, so in-flight flow spans (the dropped segment's record,
  // half-open publish causality) must survive the restore replay too.
  options.flow = true;
  auto fleet = std::make_unique<Fleet>(options);
  for (int i = 0; i < 2; ++i) {
    sim::FleetAppOptions app;
    app.board_index = i;
    // Enough back-to-back status publishes that each board's flow carries
    // several data segments — the gateway drops every third one.
    app.busy_publishes = 8;
    fleet->AddBoard(
        sim::BuildFleetAppImage(std::make_shared<sim::FleetAppState>(), app));
  }
  fleet->Boot();

  // Run in small steps until the gateway has dropped a TCP segment, then
  // snapshot immediately — before the sender's retransmission timer fires —
  // so the restore replays the loss-recovery window itself.
  const Cycles chunk = cost::kCoreHz / 4;
  for (int i = 0; i < 480 && fleet->gateway().tcp_segments_dropped() == 0;
       ++i) {
    fleet->Run(chunk);
  }
  ASSERT_GT(fleet->gateway().tcp_segments_dropped(), 0u);

  std::vector<uint8_t> blob;
  fleet->Snapshot(blob);
  fleet->Run(cost::kCoreHz / 2);
  const auto expect = fleet->Fingerprints();
  // Traffic kept flowing past the loss: retransmission recovered.
  EXPECT_GT(fleet->gateway().mqtt_publishes_received(), 0u);

  auto restored = Fleet::Restore(blob, FleetImages(), /*host_threads=*/1,
                                 /*flow=*/true);
  restored->Run(cost::kCoreHz / 2);
  EXPECT_EQ(restored->Fingerprints(), expect);
  EXPECT_EQ(restored->gateway().tcp_segments_dropped(),
            fleet->gateway().tcp_segments_dropped());
  // The restore replay regenerated the flow recorder's state — ids are
  // assigned unconditionally, so the replayed run re-derives byte-identical
  // flow/histogram/metrics exports, drops and in-flight spans included.
  ASSERT_NE(restored->flow_recorder(), nullptr);
  EXPECT_GT(fleet->flow_recorder()->drops(), 0u);
  EXPECT_EQ(restored->flow_recorder()->FlowTableJson().Dump(2),
            fleet->flow_recorder()->FlowTableJson().Dump(2));
  EXPECT_EQ(restored->flow_recorder()->HistogramsJson().Dump(2),
            fleet->flow_recorder()->HistogramsJson().Dump(2));
  // The metrics series samples at fleet barriers, and barriers fall wherever
  // Run() calls end: the original run above advanced in small chunks while
  // the restore replay coalesces consecutive advances into one Run(), so the
  // original can hold extra chunk-boundary samples the replay never takes.
  // Guest-visible state is unaffected (the fingerprint check above proves
  // it); only the host-side sampling grid shifts. Both runs do end at the
  // same barrier cycle, so the final per-board rows — every column — must
  // agree exactly.
  {
    const json::Value a = restored->flow_recorder()->MetricsJson();
    const json::Value b = fleet->flow_recorder()->MetricsJson();
    ASSERT_GE(a["rows"].AsInt(), 2);
    ASSERT_GE(b["rows"].AsInt(), 2);
    const json::Value& ac = a["columns"];
    const json::Value& bc = b["columns"];
    for (const char* col :
         {"cycle", "board", "board_cycle", "busy_cycles", "idle_cycles",
          "traps", "allocs", "quota_denials", "nic_tx_frames",
          "nic_rx_frames", "nic_drops", "futex_waits"}) {
      const size_t an = ac[col].size();
      const size_t bn = bc[col].size();
      for (size_t i = 1; i <= 2; ++i) {
        EXPECT_EQ(ac[col][an - i].AsInt(), bc[col][bn - i].AsInt())
            << "column " << col << " tail row " << i;
      }
    }
  }
}

}  // namespace
}  // namespace cheriot
