// cheriot-health acceptance tests (DESIGN.md §9).
//
// Four legs:
//  1. Forensics capture: every seeded fault files a crash record with the
//     right cause, disposition, decoded register file, compartment call
//     stack and allocation-site provenance.
//  2. Detector precision: each seeded-fault image trips exactly its intended
//     anomaly detector — and none fire on any shipped registry image.
//  3. Invariance: enabling forensics moves no guest cycle — fingerprints
//     match the plain run on every shipped image.
//  4. Determinism: the merged fleet health report is byte-identical for any
//     host worker count.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/health/forensics.h"
#include "src/health/monitor.h"
#include "src/rtos.h"
#include "src/sim/board.h"
#include "src/sim/fleet.h"
#include "tests/seeded_images.h"
#include "tools/lint_targets.h"

namespace cheriot {
namespace {

using health::AssessBoard;
using health::BoardHealth;
using health::CrashRecord;
using health::Detector;
using health::Disposition;
using health::ForensicsRecorder;
using health::HeapProvenance;
using sim::Board;
using sim::Fleet;
using tools::LintTargets;

constexpr Cycles kRunCycles = 2'000'000;

struct HealthRun {
  std::unique_ptr<Board> board;
  ForensicsRecorder* recorder = nullptr;  // owned by the board
};

HealthRun RunWithForensics(FirmwareImage image, Cycles cycles = kRunCycles) {
  HealthRun run;
  run.board = std::make_unique<Board>(std::move(image), sim::BoardOptions{});
  run.recorder = run.board->EnableForensics();
  run.board->Boot();
  run.board->StepTo(cycles);
  return run;
}

std::vector<Detector> Fired(const BoardHealth& h) {
  std::vector<Detector> out;
  for (const auto& a : h.anomalies) {
    out.push_back(a.detector);
  }
  return out;
}

// The seeded-fault images live in tests/seeded_images.cc.

// --- 1. Forensics capture -------------------------------------------------

TEST(HealthTest, UafCrashRecordCarriesFreedProvenanceAndDecodedRegs) {
  HealthRun run = RunWithForensics(seeded::Uaf());
  ASSERT_EQ(run.recorder->recorded(), 1u);
  const std::vector<CrashRecord> records = run.recorder->Records();
  const CrashRecord& r = records[0];
  const int app_id = run.board->system().boot().FindCompartment("app")->id;

  EXPECT_EQ(r.cause, TrapCode::kTagViolation);
  EXPECT_EQ(r.compartment, app_id);
  EXPECT_EQ(r.disposition, Disposition::kUnwindNoHandler);
  EXPECT_EQ(r.call_stack, std::vector<int>{app_id});
  EXPECT_EQ(r.trusted_depth, 1u);

  // The full register file, decoded in declaration order.
  ASSERT_EQ(r.regs.size(), 12u);
  EXPECT_EQ(r.regs[0].name, "pcc");
  EXPECT_EQ(r.regs[2].name, "csp");
  EXPECT_TRUE(r.regs[2].tag);  // the stack capability is live at the fault

  // Provenance: the faulting address resolves to app's freed allocation.
  ASSERT_TRUE(r.provenance.known);
  EXPECT_EQ(r.provenance.compartment, app_id);
  EXPECT_EQ(r.provenance.size, 64u);
  EXPECT_EQ(r.provenance.state, HeapProvenance::State::kQuarantined);
  EXPECT_EQ(r.provenance.freed_by, app_id);
  EXPECT_GE(r.provenance.freed_at, r.provenance.allocated_at);
  EXPECT_LE(r.provenance.freed_at, r.at);
  EXPECT_EQ(run.recorder->use_after_free_crashes(), 1u);
}

TEST(HealthTest, RebootLoopRecordsHandlerUnwindDispositions) {
  HealthRun run = RunWithForensics(seeded::RebootLoop());
  const int svc_id = run.board->system().boot().FindCompartment("svc")->id;
  ASSERT_EQ(run.recorder->recorded(), 3u);
  for (const CrashRecord& r : run.recorder->Records()) {
    EXPECT_EQ(r.compartment, svc_id);
    EXPECT_EQ(r.disposition, Disposition::kHandlerUnwind);
    EXPECT_EQ(r.cause, TrapCode::kTagViolation);
  }
  EXPECT_EQ(run.recorder->total_reboots(), 3u);
  ASSERT_EQ(run.recorder->reboots().count(svc_id), 1u);
  EXPECT_EQ(run.recorder->reboots().at(svc_id).size(), 3u);
}

TEST(HealthTest, AllocatorTracksSiteLifecycleNatively) {
  HealthRun run = RunWithForensics(seeded::RevokerBacklog());
  Allocator& alloc = run.board->system().alloc();
  EXPECT_EQ(alloc.allocation_count(), 5u);
  // All five frees landed in quarantine and nothing drained them.
  EXPECT_GT(alloc.QuarantinedBytesNative(), 5u * 16 * 1024);
  for (const auto& [addr, site] : alloc.sites()) {
    EXPECT_EQ(site.state, Allocator::SiteState::kQuarantined);
    EXPECT_EQ(site.size, 16u * 1024);
  }
}

// --- 2. Detector precision ------------------------------------------------

TEST(HealthTest, SeededUafTripsExactlyUseAfterFree) {
  HealthRun run = RunWithForensics(seeded::Uaf());
  const BoardHealth h = AssessBoard(*run.board);
  EXPECT_FALSE(h.healthy);
  EXPECT_EQ(Fired(h), std::vector<Detector>{Detector::kUseAfterFree});
}

TEST(HealthTest, SeededTrapStormTripsExactlyTrapStorm) {
  HealthRun run = RunWithForensics(seeded::TrapStorm());
  const BoardHealth h = AssessBoard(*run.board);
  EXPECT_EQ(h.traps, 24u);
  EXPECT_EQ(h.crash_records, 24u);
  EXPECT_EQ(Fired(h), std::vector<Detector>{Detector::kTrapStorm});
}

TEST(HealthTest, SeededRebootLoopTripsExactlyRebootLoop) {
  HealthRun run = RunWithForensics(seeded::RebootLoop());
  const int svc_id = run.board->system().boot().FindCompartment("svc")->id;
  const BoardHealth h = AssessBoard(*run.board);
  ASSERT_EQ(Fired(h), std::vector<Detector>{Detector::kRebootLoop});
  EXPECT_EQ(h.anomalies[0].compartment, svc_id);
}

TEST(HealthTest, SeededQuotaTripsExactlyQuotaExhaustion) {
  HealthRun run = RunWithForensics(seeded::Quota());
  const int app_id = run.board->system().boot().FindCompartment("app")->id;
  const BoardHealth h = AssessBoard(*run.board);
  EXPECT_EQ(h.traps, 0u);
  EXPECT_EQ(h.crash_records, 0u);
  EXPECT_EQ(h.quota_exhaustions, 4u);
  ASSERT_EQ(Fired(h), std::vector<Detector>{Detector::kQuotaExhaustion});
  EXPECT_EQ(h.anomalies[0].compartment, app_id);
}

TEST(HealthTest, SeededDeadlockTripsExactlyStuckBoard) {
  HealthRun run = RunWithForensics(seeded::Deadlock());
  EXPECT_EQ(run.board->last_result(), System::RunResult::kDeadlock);
  const BoardHealth h = AssessBoard(*run.board);
  EXPECT_EQ(Fired(h), std::vector<Detector>{Detector::kStuckBoard});
}

TEST(HealthTest, SeededRevokerBacklogTripsExactlyRevokerBacklog) {
  HealthRun run = RunWithForensics(seeded::RevokerBacklog());
  const BoardHealth h = AssessBoard(*run.board);
  EXPECT_GT(h.heap_quarantined_bytes, 32u * 1024);
  EXPECT_EQ(Fired(h), std::vector<Detector>{Detector::kRevokerBacklog});
}

TEST(HealthTest, NoDetectorFiresOnAnyShippedImage) {
  for (const auto& target : LintTargets()) {
    HealthRun run = RunWithForensics(target.build());
    const BoardHealth h = AssessBoard(*run.board);
    EXPECT_TRUE(h.healthy) << target.name;
    EXPECT_TRUE(h.anomalies.empty()) << target.name;
  }
}

// --- 3. Invariance --------------------------------------------------------

TEST(HealthTest, ForensicsMovesNoGuestCycleOnAnyShippedImage) {
  for (const auto& target : LintTargets()) {
    HealthRun on = RunWithForensics(target.build(), 500'000);
    Board off(target.build(), sim::BoardOptions{});
    off.Boot();
    off.StepTo(500'000);
    EXPECT_TRUE(on.board->fingerprint() == off.fingerprint()) << target.name;
  }
}

TEST(HealthTest, ForensicsMovesNoGuestCycleOnSeededFaultImages) {
  const std::vector<std::pair<const char*, FirmwareImage (*)()>> seeds = {
      {"seeded-uaf", seeded::Uaf},
      {"seeded-trap-storm", seeded::TrapStorm},
      {"seeded-reboot-loop", seeded::RebootLoop},
      {"seeded-quota", seeded::Quota},
      {"seeded-deadlock", seeded::Deadlock},
      {"seeded-revoker-backlog", seeded::RevokerBacklog},
  };
  for (const auto& [name, build] : seeds) {
    HealthRun on = RunWithForensics(build());
    Board off(build(), sim::BoardOptions{});
    off.Boot();
    off.StepTo(kRunCycles);
    EXPECT_TRUE(on.board->fingerprint() == off.fingerprint()) << name;
  }
}

// --- 4. Determinism -------------------------------------------------------

TEST(HealthTest, HealthReportIsDeterministicAndSchemaVersioned) {
  HealthRun a = RunWithForensics(seeded::Uaf());
  HealthRun b = RunWithForensics(seeded::Uaf());
  const json::Value ra = health::HealthReport(*a.board);
  EXPECT_EQ(ra.Dump(2), health::HealthReport(*b.board).Dump(2));
  EXPECT_EQ(ra["schema_version"].AsInt(), health::kHealthSchemaVersion);
  EXPECT_FALSE(ra["healthy"].AsBool());
  EXPECT_EQ(ra["anomalies"].size(), 1u);
  EXPECT_EQ(ra["anomalies"][0]["detector"].AsString(), "use_after_free");
  EXPECT_EQ(ra["crash_records"].size(), 1u);
  EXPECT_EQ(ra["crash_records"][0]["provenance"]["state"].AsString(),
            "quarantined");
  // The report round-trips through the parser.
  const json::Value reparsed = json::Parse(ra.Dump(2));
  EXPECT_EQ(reparsed.Dump(2), ra.Dump(2));
}

TEST(HealthTest, CrashDumpTextNamesFaultAndProvenance) {
  HealthRun run = RunWithForensics(seeded::Uaf());
  const std::string dump = health::CrashDumpText(*run.recorder);
  EXPECT_NE(dump.find("1 crash record(s)"), std::string::npos);
  EXPECT_NE(dump.find("tag violation"), std::string::npos);
  EXPECT_NE(dump.find("unwind_no_handler"), std::string::npos);
  EXPECT_NE(dump.find("allocated by app"), std::string::npos);
  EXPECT_NE(dump.find("freed by app"), std::string::npos);
  EXPECT_NE(dump.find("pcc"), std::string::npos);
}

std::string FleetReport(int host_threads) {
  const tools::LintTarget* t = tools::FindLintTarget("fleet-node");
  EXPECT_NE(t, nullptr);
  sim::FleetOptions opts;
  opts.host_threads = host_threads;
  opts.forensics = true;
  Fleet fleet(opts);
  for (int i = 0; i < 4; ++i) {
    fleet.AddBoard(t->build());
  }
  fleet.Boot();
  fleet.Run(kRunCycles);
  return health::FleetHealthReport(fleet).Dump(2);
}

TEST(HealthTest, FleetHealthReportByteIdenticalForAnyWorkerCount) {
  const std::string one = FleetReport(1);
  EXPECT_EQ(one, FleetReport(2));
  EXPECT_EQ(one, FleetReport(4));
  const json::Value doc = json::Parse(one);
  EXPECT_EQ(doc["schema_version"].AsInt(), health::kHealthSchemaVersion);
  EXPECT_EQ(doc["fleet"]["boards"].AsInt(), 4);
  EXPECT_EQ(doc["boards"].size(), 4u);
}

}  // namespace
}  // namespace cheriot
