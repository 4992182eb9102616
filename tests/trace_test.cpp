// cheriot-trace determinism and attribution tests (DESIGN.md §8).
//
// The recorder's contract has three legs, each pinned here:
//  1. Determinism: a trace is a pure function of the firmware — the same
//     image traced twice yields bit-identical events and byte-identical
//     exports, and a traced fleet's merged stream does not change with the
//     host worker count.
//  2. Invariance: enabling tracing moves no guest cycle — fingerprints match
//     the untraced run on every shipped image.
//  3. Attribution: the profiler charges every guest cycle to exactly one
//     context, so Σ self == the board's cycle counter, exactly.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/rtos.h"
#include "src/sim/board.h"
#include "src/sim/fleet.h"
#include "src/sim/fleet_app.h"
#include "src/sync/sync.h"
#include "src/trace/export.h"
#include "src/trace/trace.h"
#include "tools/lint_targets.h"

namespace cheriot {
namespace {

using sim::Board;
using sim::Fleet;
using tools::FindTarget;
using tools::LintTargets;

constexpr Cycles kRunCycles = 500'000;

struct TracedRun {
  std::unique_ptr<Board> board;
  trace::TraceRecorder* recorder = nullptr;  // owned by the board
};

TracedRun RunTraced(const tools::LintTarget& target, Cycles cycles,
                    size_t ring = 1 << 16) {
  TracedRun run;
  run.board = std::make_unique<Board>(target.build(), sim::BoardOptions{});
  trace::TraceOptions opts;
  opts.ring_capacity = ring;
  run.recorder = run.board->EnableTrace(opts);
  run.board->Boot();
  run.board->StepTo(cycles);
  return run;
}

Board::Fingerprint RunUntraced(const tools::LintTarget& target,
                               Cycles cycles) {
  Board board(target.build(), sim::BoardOptions{});
  board.Boot();
  board.StepTo(cycles);
  return board.fingerprint();
}

bool SameEvents(const std::vector<trace::Event>& a,
                const std::vector<trace::Event>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(trace::Event)) != 0) {
      return false;
    }
  }
  return true;
}

// --- 1. Determinism -------------------------------------------------------

TEST(TraceTest, SameImageTracedTwiceIsBitIdentical) {
  const tools::LintTarget* t = FindTarget("fleet-node");
  ASSERT_NE(t, nullptr);
  TracedRun a = RunTraced(*t, kRunCycles);
  TracedRun b = RunTraced(*t, kRunCycles);
  EXPECT_TRUE(a.board->fingerprint() == b.board->fingerprint());
  EXPECT_TRUE(SameEvents(a.recorder->Events(), b.recorder->Events()));
  EXPECT_EQ(trace::ChromeTrace(*a.recorder).Dump(2),
            trace::ChromeTrace(*b.recorder).Dump(2));
  EXPECT_EQ(trace::MetricsSnapshot(*a.recorder).Dump(2),
            trace::MetricsSnapshot(*b.recorder).Dump(2));
  EXPECT_EQ(trace::CollapsedStacksText(*a.recorder),
            trace::CollapsedStacksText(*b.recorder));
}

// --- 2. Invariance --------------------------------------------------------

TEST(TraceTest, TracingMovesNoGuestCycleOnAnyShippedImage) {
  for (const auto& target : LintTargets()) {
    TracedRun traced = RunTraced(target, kRunCycles);
    const Board::Fingerprint plain = RunUntraced(target, kRunCycles);
    EXPECT_TRUE(traced.board->fingerprint() == plain) << target.name;
  }
}

// --- 3. Attribution -------------------------------------------------------

TEST(TraceTest, AttributedCyclesEqualCycleCounterOnEveryShippedImage) {
  int real_workloads = 0;
  for (const auto& target : LintTargets()) {
    TracedRun run = RunTraced(target, kRunCycles);
    EXPECT_EQ(run.recorder->attributed_cycles(), run.board->Now())
        << target.name;
    if (run.recorder->events_of_type(trace::EventType::kCompartmentCall) >
        0) {
      ++real_workloads;
    }
  }
  // The acceptance bar: exact attribution demonstrated on at least two
  // images that actually execute compartment calls.
  EXPECT_GE(real_workloads, 2);
}

TEST(TraceTest, ProfilerChargesNestedCallsToCalleeSelfAndCallerTotal) {
  Machine machine;
  trace::TraceRecorder rec;
  machine.Attach(&rec);

  ImageBuilder b("trace-profile");
  b.Compartment("leaf").Globals(64).Export(
      "burn", [](CompartmentCtx& ctx, const std::vector<Capability>&) {
        ctx.Burn(10'000);
        return WordCap(0);
      });
  b.Compartment("mid")
      .Globals(64)
      .ImportCompartment("leaf.burn")
      .Export("work", [](CompartmentCtx& ctx,
                         const std::vector<Capability>&) {
        ctx.Burn(1'000);
        ctx.Call("leaf.burn", {});
        return WordCap(0);
      });
  b.Compartment("top")
      .Globals(64)
      .ImportCompartment("mid.work")
      .Export("main", [](CompartmentCtx& ctx,
                         const std::vector<Capability>&) {
        for (int i = 0; i < 3; ++i) {
          ctx.Call("mid.work", {});
        }
        return StatusCap(Status::kOk);
      });
  sync::UseScheduler(b, "top");
  b.Thread("t", 1, 8192, 8, "top.main");

  System sys(machine, b.Build());
  sys.Boot();
  EXPECT_EQ(sys.Run(20'000'000'000ull), System::RunResult::kAllExited);

  // Resolve compartment ids through the recorder's published name table.
  auto id_of = [&](const std::string& name) {
    for (const auto& [id, p] : rec.Profile()) {
      if (rec.CompartmentName(id) == name) {
        return id;
      }
    }
    return -1000;
  };
  const auto& profile = rec.Profile();
  const int leaf = id_of("leaf");
  const int mid = id_of("mid");
  const int top = id_of("top");
  ASSERT_NE(leaf, -1000);
  ASSERT_NE(mid, -1000);
  ASSERT_NE(top, -1000);

  // Self time: leaf burned 3 x 10k inside its own frame, mid 3 x 1k.
  EXPECT_GE(profile.at(leaf).self, 30'000u);
  EXPECT_GE(profile.at(mid).self, 3'000u);
  EXPECT_LT(profile.at(mid).self, 10'000u);  // leaf's burn is not mid's self
  // Total time: everything leaf did is inside mid's and top's frames too.
  EXPECT_GE(profile.at(mid).total, profile.at(leaf).self + 3'000u);
  EXPECT_GE(profile.at(top).total,
            profile.at(mid).total + profile.at(top).self);
  EXPECT_EQ(profile.at(leaf).calls, 3u);
  EXPECT_EQ(profile.at(mid).calls, 3u);
  EXPECT_EQ(profile.at(top).calls, 1u);
  // Every cycle in exactly one bucket.
  EXPECT_EQ(rec.attributed_cycles(), machine.clock().now());

  // The top;mid;leaf chain appears in the collapsed stacks with leaf's burn
  // time on it.
  bool found_chain = false;
  for (const auto& [key, cycles] : rec.CollapsedStacks()) {
    if (key.size() == 4 && key[1] == top && key[2] == mid && key[3] == leaf) {
      found_chain = true;
      EXPECT_GE(cycles, 30'000u);
    }
  }
  EXPECT_TRUE(found_chain);
}

// The profiler charges the cycles since its last settlement to the context
// it captured there, at the next event that can change the context. Every
// kind of context change must move the next span: a compartment stack
// rewritten under the same thread, depth and top, a recursive stack, the
// kernel, another thread with an equal stack, and idle. Each stack rewrite
// is followed by the event the switcher raises after its own push or pop.
TEST(TraceTest, ProfilerChargesEachSpanToTheContextItRanIn) {
  Machine machine;
  trace::TraceRecorder rec;
  machine.Attach(&rec);
  ImageBuilder image("charge-target");
  for (const char* name : {"a", "b", "c"}) {
    image.Compartment(name).Globals(64).Export(
        "main", [](CompartmentCtx&, const std::vector<Capability>&) {
          return WordCap(0);
        });
  }
  image.Thread("t0", 1, 4096, 4, "a.main");
  image.Thread("t1", 1, 4096, 4, "b.main");
  System sys(machine, image.Build());
  sys.Boot();
  int a = -1000;
  int b = -1000;
  int c = -1000;
  for (int id = 0; id < 32; ++id) {
    const std::string name = rec.CompartmentName(id);
    a = name == "a" ? id : a;
    b = name == "b" ? id : b;
    c = name == "c" ? id : c;
  }
  ASSERT_NE(a, -1000);
  ASSERT_NE(b, -1000);
  ASSERT_NE(c, -1000);
  const Cycles idle_before = rec.idle_cycles();
  const auto tick = [&](Cycles n) { machine.clock().Tick(n); };
  GuestThread& t0 = sys.threads()[0];
  GuestThread& t1 = sys.threads()[1];
  const auto call = [&](GuestThread& t, std::vector<int> stack) {
    t.compartment_stack = std::move(stack);
    t.current_compartment = t.compartment_stack.back();
    rec.OnCompartmentCall(t, -1, 0);
  };

  tick(100);  // idle
  rec.OnContextSwitch(-1, 0);
  call(t0, {a, c});
  tick(1'000);
  call(t0, {b, c});  // same thread, depth and top
  tick(2'000);
  t0.compartment_stack = {};  // kernel
  rec.OnCompartmentReturn(t0, c);
  tick(300);
  call(t0, {c, a, c});  // recursion: c's total counts once
  tick(50);
  rec.OnContextSwitch(0, 1);
  call(t1, {b, c});  // another thread, an equal stack
  tick(400);
  rec.OnContextSwitch(1, -1);
  tick(500);  // idle again

  const auto& profile = rec.Profile();
  EXPECT_EQ(profile.at(a).self, 0u);
  EXPECT_EQ(profile.at(a).total, 1'000u + 50u);
  EXPECT_EQ(profile.at(b).self, 0u);
  EXPECT_EQ(profile.at(b).total, 2'000u + 400u);
  EXPECT_EQ(profile.at(c).self, 1'000u + 2'000u + 50u + 400u);
  EXPECT_EQ(profile.at(c).total, 1'000u + 2'000u + 50u + 400u);
  EXPECT_EQ(profile.at(obs::kContextKernel).self, 300u);
  EXPECT_EQ(rec.idle_cycles() - idle_before, 100u + 500u);
  const std::map<std::vector<int>, Cycles> want_stacks = {
      {{0, a, c}, 1'000},
      {{0, b, c}, 2'000},
      {{0, obs::kContextKernel}, 300},
      {{0, c, a, c}, 50},
      {{1, b, c}, 400},
  };
  std::map<std::vector<int>, Cycles> thread_stacks;
  for (const auto& [key, cycles] : rec.CollapsedStacks()) {
    if (key.size() > 1) {  // all but <boot> and <idle>
      thread_stacks[key] = cycles;
    }
  }
  EXPECT_EQ(thread_stacks, want_stacks) << trace::CollapsedStacksText(rec);
  EXPECT_EQ(rec.attributed_cycles(), machine.clock().now());
}

// --- Ring bounds ----------------------------------------------------------

TEST(TraceTest, FullRingDropsOldestEventsDeterministically) {
  const tools::LintTarget* t = FindTarget("fleet-node");
  ASSERT_NE(t, nullptr);
  TracedRun big = RunTraced(*t, kRunCycles);
  TracedRun small = RunTraced(*t, kRunCycles, /*ring=*/64);

  ASSERT_GT(big.recorder->event_count(), 64u);
  EXPECT_EQ(small.recorder->event_count(), 64u);
  EXPECT_EQ(small.recorder->emitted(), big.recorder->emitted());
  EXPECT_EQ(small.recorder->dropped(), big.recorder->emitted() - 64u);
  // The ring holds exactly the newest 64 events of the full stream.
  const std::vector<trace::Event> all = big.recorder->Events();
  const std::vector<trace::Event> tail(all.end() - 64, all.end());
  EXPECT_TRUE(SameEvents(small.recorder->Events(), tail));
  // Aggregates and the profiler never drop, whatever the ring size.
  EXPECT_EQ(small.recorder->attributed_cycles(),
            big.recorder->attributed_cycles());
  // And the bounded ring still moved no guest cycle.
  EXPECT_TRUE(small.board->fingerprint() == big.board->fingerprint());
}

// --- Fleet ----------------------------------------------------------------

std::string MergedFleetTrace(int host_threads,
                             std::vector<Board::Fingerprint>* fps) {
  sim::FleetOptions options;
  options.host_threads = host_threads;
  options.trace = true;
  Fleet fleet(options);
  std::vector<std::shared_ptr<sim::FleetAppState>> states;
  for (int i = 0; i < 3; ++i) {
    auto state = std::make_shared<sim::FleetAppState>();
    sim::FleetAppOptions app;
    app.board_index = i;
    fleet.AddBoard(sim::BuildFleetAppImage(state, app));
    states.push_back(std::move(state));
  }
  fleet.Boot();
  fleet.Run(20'000'000);  // enough for DHCP + MQTT connect traffic
  *fps = fleet.Fingerprints();
  return trace::MergedChromeTrace(fleet.TraceRecorders()).Dump(2);
}

TEST(TraceTest, MergedFleetTraceIsByteIdenticalForAnyWorkerCount) {
  std::vector<Board::Fingerprint> fp1, fp2, fp4;
  const std::string t1 = MergedFleetTrace(1, &fp1);
  const std::string t2 = MergedFleetTrace(2, &fp2);
  const std::string t4 = MergedFleetTrace(4, &fp4);
  EXPECT_EQ(fp1, fp2);
  EXPECT_EQ(fp1, fp4);
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(t1, t4);
  // A real fleet run produces NIC and fabric traffic in the merged stream.
  EXPECT_NE(t1.find("fabric_frame"), std::string::npos);
  EXPECT_NE(t1.find("nic_tx"), std::string::npos);
}

TEST(TraceTest, TracedFleetFingerprintsMatchUntracedFleet) {
  auto run = [](bool traced) {
    sim::FleetOptions options;
    options.trace = traced;
    Fleet fleet(options);
    std::vector<std::shared_ptr<sim::FleetAppState>> states;
    for (int i = 0; i < 2; ++i) {
      auto state = std::make_shared<sim::FleetAppState>();
      sim::FleetAppOptions app;
      app.board_index = i;
      fleet.AddBoard(sim::BuildFleetAppImage(state, app));
      states.push_back(std::move(state));
    }
    fleet.Boot();
    fleet.Run(10'000'000);
    return fleet.Fingerprints();
  };
  EXPECT_EQ(run(true), run(false));
}

// --- Exports --------------------------------------------------------------

TEST(TraceTest, MetricsSnapshotHasVersionedStableSchema) {
  const tools::LintTarget* t = FindTarget("fleet-node");
  ASSERT_NE(t, nullptr);
  TracedRun run = RunTraced(*t, kRunCycles);

  std::vector<trace::ThreadStackStats> stats;
  for (const GuestThread& th : run.board->system().threads()) {
    stats.push_back(
        {th.name, th.stack_size, th.peak_stack_bytes, th.compartment_calls});
  }
  const json::Value doc = trace::MetricsSnapshot(*run.recorder, stats);
  EXPECT_EQ(doc["schema_version"].AsInt(), trace::kMetricsSchemaVersion);
  EXPECT_EQ(doc["label"].AsString(), "board0");
  EXPECT_EQ(doc["now"].AsInt(), static_cast<int64_t>(run.board->Now()));
  ASSERT_TRUE(doc.Has("events"));
  ASSERT_TRUE(doc.Has("profile"));
  ASSERT_TRUE(doc.Has("heap"));
  ASSERT_TRUE(doc.Has("revoker"));
  ASSERT_TRUE(doc.Has("nic"));
  ASSERT_TRUE(doc.Has("threads"));
  EXPECT_EQ(doc["events"]["emitted"].AsInt(),
            static_cast<int64_t>(run.recorder->emitted()));
  EXPECT_EQ(doc["profile"]["attributed_cycles"].AsInt(),
            static_cast<int64_t>(run.board->Now()));
  // Thread stats flow through verbatim, including the monotonic stack
  // watermark (its growth semantics are pinned in debug_test).
  ASSERT_EQ(doc["threads"].size(), stats.size());
  ASSERT_GT(stats.size(), 0u);
  for (size_t i = 0; i < doc["threads"].size(); ++i) {
    EXPECT_EQ(doc["threads"][i]["name"].AsString(), stats[i].name);
    EXPECT_EQ(doc["threads"][i]["peak_stack_bytes"].AsInt(),
              static_cast<int64_t>(stats[i].peak_stack_bytes));
    EXPECT_EQ(doc["threads"][i]["stack_size"].AsInt(),
              static_cast<int64_t>(stats[i].stack_size));
  }
  // Byte-stable: serializing twice (with fresh settlement calls in between)
  // yields the same document.
  EXPECT_EQ(doc.Dump(2), trace::MetricsSnapshot(*run.recorder, stats).Dump(2));
}

TEST(TraceTest, ChromeTraceEventsAreWellFormed) {
  const tools::LintTarget* t = FindTarget("fleet-node");
  ASSERT_NE(t, nullptr);
  TracedRun run = RunTraced(*t, kRunCycles);
  const std::string text = trace::ChromeTrace(*run.recorder).Dump(2);
  const json::Value doc = json::Parse(text);
  ASSERT_TRUE(doc.Has("traceEvents"));
  const json::Value& events = doc["traceEvents"];
  ASSERT_GT(events.size(), 0u);
  int depth = 0;
  Cycles last_ts = 0;
  for (size_t i = 0; i < events.size(); ++i) {
    const json::Value& e = events[i];
    const std::string& ph = e["ph"].AsString();
    ASSERT_FALSE(ph.empty());
    if (ph == "M") {
      continue;  // metadata carries no timestamp
    }
    // Non-metadata events are sorted by guest time.
    const Cycles ts = static_cast<Cycles>(e["ts"].AsInt());
    EXPECT_GE(ts, last_ts);
    last_ts = ts;
    if (ph == "B") {
      ++depth;
    } else if (ph == "E") {
      --depth;
      EXPECT_GE(depth, 0);
    }
  }
  // The parsed document dumps back to the exported bytes.
  EXPECT_EQ(doc.Dump(2), text);
}

// --- Ring boundaries ------------------------------------------------------

TEST(TraceTest, RingAtExactlyFullKeepsEveryEvent) {
  trace::TraceOptions opts;
  opts.ring_capacity = 4;
  trace::TraceRecorder rec(opts);
  for (int i = 0; i < 4; ++i) {
    rec.OnFabricFrame(/*at=*/100 * (i + 1), /*src_port=*/i, /*dst_port=*/9,
                      /*bytes=*/64);
  }
  EXPECT_EQ(rec.emitted(), 4u);
  EXPECT_EQ(rec.dropped(), 0u);
  const std::vector<trace::Event> events = rec.Events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().a, 0);  // the first event is still there
  EXPECT_EQ(events.back().a, 3);
}

TEST(TraceTest, RingAtCapacityPlusOneDropsExactlyTheOldest) {
  trace::TraceOptions opts;
  opts.ring_capacity = 4;
  trace::TraceRecorder rec(opts);
  for (int i = 0; i < 5; ++i) {
    rec.OnFabricFrame(/*at=*/100 * (i + 1), /*src_port=*/i, /*dst_port=*/9,
                      /*bytes=*/64);
  }
  EXPECT_EQ(rec.emitted(), 5u);
  EXPECT_EQ(rec.dropped(), 1u);
  const std::vector<trace::Event> events = rec.Events();
  ASSERT_EQ(events.size(), 4u);
  // Drop-oldest: event 0 is gone, order of the survivors is preserved.
  EXPECT_EQ(events.front().a, 1);
  EXPECT_EQ(events.back().a, 4);
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].at, events[i - 1].at);
  }
}

}  // namespace
}  // namespace cheriot
