// Byte-identity goldens for the board observers (DESIGN.md §8, §9, §14).
//
// Every shipped image, the seeded over-privileged coverage image and the
// seven seeded-fault images run on a board for 2,000,000 cycles under four
// recorder sets: trace only, forensics only, coverage only, and all three.
// Each (image, set) pair pins one FNV-1a digest over the attached
// recorders' exports and the OPTS/TRCE/HLTH/COVG bodies of the board's
// snapshot. A 4-board fleet-node fleet with every recorder on pins its
// merged exports and its fleet blob. On a mismatch the test prints one
// digest per artifact, so the failure names what changed.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/cov/report.h"
#include "src/flow/flow.h"
#include "src/health/monitor.h"
#include "src/rtos.h"
#include "src/sim/board.h"
#include "src/sim/fleet.h"
#include "src/sim/fleet_app.h"
#include "src/switcher/registers.h"
#include "src/trace/export.h"
#include "tests/seeded_images.h"
#include "tools/cov_targets.h"
#include "tools/lint_targets.h"

namespace cheriot {
namespace {

constexpr Cycles kRunCycles = 2'000'000;

uint64_t Fnv1a(const uint8_t* data, size_t size,
               uint64_t h = 1469598103934665603ull) {
  for (size_t i = 0; i < size; ++i) {
    h = (h ^ data[i]) * 1099511628211ull;
  }
  return h;
}

uint64_t Fnv1a(const std::string& s) {
  return Fnv1a(reinterpret_cast<const uint8_t*>(s.data()), s.size());
}

uint64_t Fnv1a(const std::vector<uint8_t>& v) {
  return Fnv1a(v.data(), v.size());
}

// Named artifact digests; the pinned value is a digest over all of them.
struct Digests {
  std::vector<std::pair<std::string, uint64_t>> parts;

  void Add(std::string name, uint64_t digest) {
    parts.emplace_back(std::move(name), digest);
  }
  uint64_t Combined() const {
    uint64_t h = 1469598103934665603ull;
    for (const auto& [name, d] : parts) {
      h = Fnv1a(reinterpret_cast<const uint8_t*>(name.data()), name.size(), h);
      h = Fnv1a(reinterpret_cast<const uint8_t*>(&d), sizeof d, h);
    }
    return h;
  }
  std::string Table() const {
    std::string out;
    char line[96];
    for (const auto& [name, d] : parts) {
      std::snprintf(line, sizeof line, "  %-22s %016llx\n", name.c_str(),
                    static_cast<unsigned long long>(d));
      out += line;
    }
    return out;
  }
};

enum RecorderSet : int { kTrace = 1, kForensics = 2, kCoverage = 4 };
constexpr int kAll = kTrace | kForensics | kCoverage;

const char* SetName(int set) {
  switch (set) {
    case kTrace: return "trace";
    case kForensics: return "forensics";
    case kCoverage: return "coverage";
    default: return "all";
  }
}

Digests RunBoard(const tools::LintTarget& target, int set) {
  sim::Board board(target.build(), sim::BoardOptions{});
  if (set & kTrace) {
    board.EnableTrace();
  }
  if (set & kForensics) {
    board.EnableForensics();
  }
  if (set & kCoverage) {
    board.EnableCoverage();
  }
  board.Boot();
  board.StepTo(kRunCycles);

  Digests d;
  std::vector<uint8_t> blob;
  board.Snapshot(blob);
  const snap::Container c = snap::Container::Parse(blob);
  for (uint32_t id : {snap::kSecOptions, snap::kSecTrace, snap::kSecForensics,
                      snap::kSecCoverage}) {
    if (const snap::Section* s = c.Find(id)) {
      d.Add(snap::SectionName(id), Fnv1a(s->body));
    }
  }
  if (trace::TraceRecorder* tr = board.trace_recorder()) {
    std::vector<trace::ThreadStackStats> stats;
    for (const GuestThread& t : board.system().threads()) {
      stats.push_back(
          {t.name, t.stack_size, t.peak_stack_bytes, t.compartment_calls});
    }
    d.Add("ChromeTrace", Fnv1a(trace::ChromeTrace(*tr).Dump(2)));
    d.Add("MetricsSnapshot",
          Fnv1a(trace::MetricsSnapshot(*tr, stats).Dump(2)));
    d.Add("CollapsedStacksText", Fnv1a(trace::CollapsedStacksText(*tr)));
    d.Add("ProfileText", Fnv1a(trace::ProfileText(*tr)));
  }
  if (health::ForensicsRecorder* fr = board.forensics_recorder()) {
    d.Add("HealthReport", Fnv1a(health::HealthReport(board).Dump(2)));
    d.Add("CrashDumpText", Fnv1a(health::CrashDumpText(*fr)));
  }
  if (const cov::CovRecorder* cr = board.cov_recorder()) {
    d.Add("CoverageJson",
          Fnv1a(cov::CoverageJson(target.name, {cr}).Dump(2)));
  }
  return d;
}

struct Golden {
  const char* image;
  uint64_t trace;
  uint64_t forensics;
  uint64_t coverage;
  uint64_t all;
};

void CheckImages(const std::vector<const tools::LintTarget*>& targets,
                 const std::vector<Golden>& goldens) {
  ASSERT_EQ(targets.size(), goldens.size());
  std::string table;
  for (size_t i = 0; i < targets.size(); ++i) {
    const tools::LintTarget& target = *targets[i];
    ASSERT_EQ(target.name, goldens[i].image);
    const uint64_t want[] = {goldens[i].trace, goldens[i].forensics,
                             goldens[i].coverage, goldens[i].all};
    const int sets[] = {kTrace, kForensics, kCoverage, kAll};
    uint64_t got[4];
    for (int k = 0; k < 4; ++k) {
      const Digests d = RunBoard(target, sets[k]);
      got[k] = d.Combined();
      EXPECT_EQ(got[k], want[k])
          << target.name << " under " << SetName(sets[k])
          << ": per-artifact digests\n"
          << d.Table();
    }
    char line[160];
    std::snprintf(line, sizeof line,
                  "      {\"%s\", 0x%016llxull, 0x%016llxull, 0x%016llxull,"
                  " 0x%016llxull},\n",
                  target.name.c_str(), static_cast<unsigned long long>(got[0]),
                  static_cast<unsigned long long>(got[1]),
                  static_cast<unsigned long long>(got[2]),
                  static_cast<unsigned long long>(got[3]));
    table += line;
  }
  if (::testing::Test::HasFailure()) {
    std::printf("observed goldens:\n%s", table.c_str());
  }
}

TEST(ObserverGoldenTest, ShippedImagesUnderEveryRecorderSet) {
  std::vector<const tools::LintTarget*> targets;
  for (const auto& t : tools::LintTargets()) {
    targets.push_back(&t);
  }
  for (const auto& t : tools::CovSeededTargets()) {
    targets.push_back(&t);
  }
  CheckImages(targets, {
      {"fault-tolerance", 0xe275ca5bc36ec746ull, 0xd2592b00aad131c5ull,
       0xa930d96a5fb17fdcull, 0x63cd95049270c085ull},
      {"fleet-node", 0x012607d2f0593527ull, 0x37e37d9bd2de910eull,
       0x133b630690ee4deaull, 0x45483b77c1914fb9ull},
      {"http-firmware", 0xa922211643cf6d93ull, 0xd2592b00aad131c5ull,
       0xe4a1ebec8cc6c578ull, 0x39336e2d07ab757cull},
      {"http-firmware-backdoored", 0xa922211643cf6d93ull, 0xd2592b00aad131c5ull,
       0xb8a3d1b55c773666ull, 0x9fb1106cf9cc5ceaull},
      {"iot-mqtt-app", 0x4d51465c408693ffull, 0xd39176f997e658ccull,
       0x0c4639e2185fa1b8ull, 0x3102810fd62944f7ull},
      {"producer-consumer", 0x1e835b3ec9e79d20ull, 0xce16550a66e35512ull,
       0x2fc24bb636d08ed6ull, 0x55db2f98524a6e28ull},
      {"quickstart", 0xe7a16d137d464682ull, 0xd2592b00aad131c5ull,
       0x9abc4c6502af2c6cull, 0x76b3e5afa07d144full},
      {"cov-overprivileged", 0x9f84e889bc3c822full, 0x6798d7d16154ddd9ull,
       0x87d1b10f57714fc2ull, 0x706f97962d10eaeeull},
  });
}

TEST(ObserverGoldenTest, SeededFaultImagesUnderEveryRecorderSet) {
  std::vector<const tools::LintTarget*> targets;
  for (const auto& t : seeded::SeededImages()) {
    targets.push_back(&t);
  }
  CheckImages(targets, {
      {"seeded-uaf", 0x5c40db9bb8a4759aull, 0x4125cd1a504a65c6ull,
       0xb1968ba3c7af3c46ull, 0x5a1797037cda2f45ull},
      {"seeded-trap-storm", 0x7b24a3f6a9a67259ull, 0x6ef4f9e2df69bfd1ull,
       0xbb0db5d1636d8c3cull, 0x42e5264242495ec6ull},
      {"seeded-reboot-loop", 0x1491b9a802d7289aull, 0xff29a4d6505f8853ull,
       0x9a179965b4392cffull, 0x79c5b54e861019ebull},
      {"seeded-quota", 0x96857a820b9c7e0bull, 0x64ca1c01b33a7f77ull,
       0x70ead3c4d85e36bbull, 0xc687ffdc6f316f1bull},
      {"seeded-deadlock", 0x4d79921157d07aecull, 0x8881329904dd2930ull,
       0x00ed9d1a557cdb5aull, 0xec6f0935dd33e542ull},
      {"seeded-revoker-backlog", 0x343e72d4a459612aull, 0x910f8520dde2416cull,
       0xdb916a3034d219d9ull, 0x9f37b2db10cc5a37ull},
      {"seeded-forced-unwind", 0x32c191bcb2c1b305ull, 0x2e9567437cd33e5aull,
       0x10c6bfa6b1a8a20cull, 0x15afd332719ece23ull},
  });
}

// The only image that reaches the switcher's forced-unwind path: the
// sleeper's record is joined to the trace by a kCrashRecord event, as is the
// crasher's handler_unwind record.
TEST(ObserverGoldenTest, SeededForcedUnwindFilesOneForcedUnwindRecord) {
  sim::Board board(seeded::ForcedUnwind(), sim::BoardOptions{});
  trace::TraceRecorder* tr = board.EnableTrace();
  health::ForensicsRecorder* fr = board.EnableForensics();
  board.Boot();
  board.StepTo(kRunCycles);
  EXPECT_EQ(fr->forced_unwinds(), 1u);
  const auto& by_disposition = fr->crashes_by_disposition();
  const auto count = [&](health::Disposition d) -> uint64_t {
    const auto it = by_disposition.find(static_cast<int>(d));
    return it == by_disposition.end() ? 0 : it->second;
  };
  EXPECT_EQ(count(health::Disposition::kForcedUnwind), 1u);
  EXPECT_EQ(count(health::Disposition::kHandlerUnwind), 1u);
  EXPECT_EQ(fr->recorded(), 2u);
  EXPECT_EQ(tr->events_of_type(trace::EventType::kCrashRecord), 2u);
}

// The images above emit no library call, trap, sweep, frame drop, fabric
// frame, crash record or idle fast-forward, so a key-order slip in those
// kinds would pass them. This feeds one board recorder every kind of event
// through its hooks (frame drops with both reasons, NIC frames and drops with
// and without a flow), plus a clockless fabric recorder, and pins the
// Chrome-trace bytes, pretty and compact, alone and merged.
TEST(ObserverGoldenTest, ChromeTraceOfEveryEventType) {
  Machine machine;
  trace::TraceRecorder board;
  board.SetOwner("board0", 0);
  machine.Attach(&board);
  ImageBuilder b("every-event");
  b.Library("mathlib").Export(
      "square", [](CompartmentCtx&, const std::vector<Capability>&) {
        return WordCap(0);
      });
  b.Compartment("beta").Globals(64).Export(
      "work", [](CompartmentCtx&, const std::vector<Capability>&) {
        return WordCap(0);
      });
  b.Compartment("alpha")
      .Globals(64)
      .ImportCompartment("beta.work")
      .ImportLibrary("mathlib.square")
      .Export("main", [](CompartmentCtx&, const std::vector<Capability>&) {
        return WordCap(0);
      });
  b.Thread("main \"t\"", 1, 4096, 4, "alpha.main");
  b.Thread("second", 2, 4096, 4, "alpha.main");
  System sys(machine, b.Build());
  sys.Boot();
  int alpha = -1000;
  int beta = -1000;
  for (int id = 0; id < 32; ++id) {
    if (board.CompartmentName(id) == "alpha") {
      alpha = id;
    } else if (board.CompartmentName(id) == "beta") {
      beta = id;
    }
  }
  ASSERT_NE(alpha, -1000);
  ASSERT_NE(beta, -1000);

  const auto tick = [&](Cycles n) { machine.clock().Tick(n); };
  const auto flow = [](int16_t origin, uint32_t seq) {
    flow::FlowId id;
    id.origin = origin;
    id.seq = seq;
    return id;
  };
  const flow::FlowId none;
  GuestThread& t = sys.threads()[0];
  const RegisterFile regs;
  tick(100);
  board.OnContextSwitch(-1, 0);
  tick(40);
  t.compartment_stack = {alpha, beta};
  t.current_compartment = beta;
  board.OnCompartmentCall(t, alpha, 0);
  tick(25);
  board.OnLibraryCall(t, 0, 0);
  tick(10);
  const obs::TrapEvent trap{t, beta, TrapCode::kBoundsViolation, 0x2000'0040,
                            regs};
  board.OnTrap(trap);
  board.OnCrashRecord(trap, 7);
  tick(5);
  t.compartment_stack = {alpha};
  t.current_compartment = alpha;
  board.OnCompartmentReturn(t, beta);
  tick(20);
  board.OnHeapAlloc({0, alpha, alpha, 3, 64});
  tick(20);
  board.OnQuotaDenied({0, alpha, alpha, 3, 4096});
  tick(20);
  board.OnHeapFree({0, alpha, alpha, 3, 64});
  board.OnThreadWake(1);
  tick(15);
  board.OnThreadBlock(0, 0x2000'0100);
  board.OnContextSwitch(0, 1);
  tick(30);
  board.OnThreadSleep(1, 90'000);
  board.OnSweepBegin(4);
  tick(300);
  board.OnSweepEnd(6, 1024);
  board.OnNicTx(60, flow(0, 1));
  board.OnNicTx(342, none);
  tick(50);
  board.OnNicRx(60, flow(flow::FlowId::kGateway, 2));
  board.OnNicRx(90, none);
  board.OnFrameDrop(flow::kDropNicLoss, 60, flow(0, 3));
  board.OnFrameDrop(flow::kDropNicLoss, 61, none);
  board.OnFrameDrop(flow::kDropGatewayTcp, 62, flow(flow::FlowId::kGateway, 4));
  board.OnFrameDrop(flow::kDropGatewayTcp, 63, none);
  board.OnContextSwitch(1, -1);
  tick(5000);
  board.OnIdleFastForward(5000);

  trace::TraceRecorder fabric;
  fabric.SetOwner("fabric", -1);
  fabric.OnFabricFrame(140, 0, 1, 64, 0, 1);
  fabric.OnFabricFrame(140, 1, -1, 342);
  fabric.OnFabricFrame(700, 1, 0, 60, flow::FlowId::kGateway, 2);
  fabric.OnFrameDropAt(700, flow::kDropNicLoss, 60, 0, 3);
  fabric.OnFrameDropAt(800, flow::kDropGatewayTcp, 63, trace::kNoFlowOrigin,
                       0);
  for (size_t k = 0; k < trace::kEventTypeCount; ++k) {
    const auto type = static_cast<trace::EventType>(k);
    EXPECT_GT(board.events_of_type(type) + fabric.events_of_type(type), 0u)
        << trace::EventTypeName(type);
  }

  Digests d;
  d.Add("ChromeTrace", Fnv1a(trace::ChromeTrace(board).Dump(2)));
  d.Add("ChromeTraceCompact", Fnv1a(trace::ChromeTrace(board).Dump(-1)));
  d.Add("FabricChromeTrace", Fnv1a(trace::ChromeTrace(fabric).Dump(2)));
  d.Add("FabricChromeTraceCompact",
        Fnv1a(trace::ChromeTrace(fabric).Dump(-1)));
  d.Add("MergedChromeTrace",
        Fnv1a(trace::MergedChromeTrace({&board, &fabric}).Dump(2)));
  d.Add("MergedChromeTraceCompact",
        Fnv1a(trace::MergedChromeTrace({&board, &fabric}).Dump(-1)));
  EXPECT_EQ(d.Combined(), 0xa5921379f6ec75f7ull)
      << "per-artifact digests\n"
      << d.Table();
}

TEST(ObserverGoldenTest, FleetNodeFleetWithEveryRecorder) {
  sim::FleetOptions options;
  options.host_threads = 2;
  options.trace = true;
  options.forensics = true;
  options.cov = true;
  options.flow = true;
  sim::Fleet fleet(options);
  std::vector<std::shared_ptr<sim::FleetAppState>> states;
  for (int i = 0; i < 4; ++i) {
    auto state = std::make_shared<sim::FleetAppState>();
    sim::FleetAppOptions app;
    app.board_index = i;
    fleet.AddBoard(sim::BuildFleetAppImage(state, app));
    states.push_back(std::move(state));
  }
  fleet.Boot();
  fleet.Run(20'000'000);

  Digests d;
  d.Add("MergedChromeTrace",
        Fnv1a(trace::MergedChromeTrace(fleet.TraceRecorders()).Dump(2)));
  d.Add("FleetHealthReport", Fnv1a(health::FleetHealthReport(fleet).Dump(2)));
  d.Add("CoverageJson",
        Fnv1a(cov::CoverageJson("fleet-node", fleet.CovRecorders()).Dump(2)));
  const flow::FlowRecorder& flow = *fleet.flow_recorder();
  d.Add("FlowTableJson", Fnv1a(flow.FlowTableJson().Dump(2)));
  d.Add("HistogramsJson", Fnv1a(flow.HistogramsJson().Dump(2)));
  d.Add("MetricsJson", Fnv1a(flow.MetricsJson().Dump(2)));
  std::vector<uint8_t> blob;
  fleet.Snapshot(blob);
  d.Add("FleetSnapshot", Fnv1a(blob));
  // CHERIOT_FLEET_FAST_FORWARD can force either fast-forward mode, and the
  // fleet snapshot differs between them, so each mode has its own digest.
  EXPECT_EQ(d.Combined(), fleet.fast_forward() ? 0x3e3f0ed71408ef94ull
                                               : 0xb94cb47617897f86ull)
      << "per-artifact digests\n"
      << d.Table();
}

}  // namespace
}  // namespace cheriot
