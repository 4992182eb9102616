// The observer interface itself (DESIGN.md §8.0): a new observer is one
// class attached through the public interface, every choke-point event
// reaches every attached observer, and a second observer of an attached
// kind is refused before anything is freed.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/obs/observer.h"
#include "src/rtos.h"
#include "src/sim/board.h"
#include "src/sync/sync.h"
#include "tests/seeded_images.h"
#include "tools/lint_targets.h"

namespace cheriot {
namespace {

using trace::EventType;

constexpr Cycles kRunCycles = 2'000'000;

// A sixth observer, written against the public interface only: it counts
// every event the trace recorder also records, by trace event kind.
class CountingObserver : public obs::Observer {
 public:
  using E = EventType;
  using Heap = obs::HeapEvent;
  using Trap = obs::TrapEvent;
  using Flow = flow::FlowId;
  uint64_t counts[trace::kEventTypeCount] = {};

  void OnBootDone(System&, std::shared_ptr<const obs::NameTable>) override {
    Count(E::kBootDone);
  }
  void OnCompartmentCall(const GuestThread&, int, int) override {
    Count(E::kCompartmentCall);
  }
  void OnCompartmentReturn(const GuestThread&, int) override {
    Count(E::kCompartmentReturn);
  }
  void OnLibraryCall(const GuestThread&, int, int) override {
    Count(E::kLibraryCall);
  }
  void OnTrap(const Trap&) override { Count(E::kTrap); }
  void OnCrashRecord(const Trap&, uint64_t) override { Count(E::kCrashRecord); }
  void OnContextSwitch(int, int) override { Count(E::kContextSwitch); }
  void OnThreadWake(int) override { Count(E::kThreadWake); }
  void OnThreadBlock(int, Address) override { Count(E::kThreadBlock); }
  void OnThreadSleep(int, Cycles) override { Count(E::kThreadSleep); }
  void OnHeapAlloc(const Heap&) override { Count(E::kHeapAlloc); }
  void OnHeapFree(const Heap&) override { Count(E::kHeapFree); }
  void OnQuotaDenied(const Heap&) override { Count(E::kQuotaExhausted); }
  void OnSweepBegin(uint32_t) override { Count(E::kSweepBegin); }
  void OnSweepEnd(uint32_t, uint64_t) override { Count(E::kSweepEnd); }
  void OnNicTx(size_t, const Flow&) override { Count(E::kNicTx); }
  void OnNicRx(size_t, const Flow&) override { Count(E::kNicRx); }
  void OnFrameDrop(uint8_t, size_t, const Flow&) override {
    Count(E::kFrameDrop);
  }
  void OnIdleFastForward(Cycles) override { Count(E::kIdleFastForward); }

 private:
  void Count(E type) { ++counts[static_cast<size_t>(type)]; }
};

void ExpectCountsMatchTrace(const tools::LintTarget& target) {
  CountingObserver counter;  // outlives the board's last tick
  sim::Board board(target.build(), sim::BoardOptions{});
  trace::TraceRecorder* tr = board.EnableTrace();
  board.EnableForensics();  // files the crash records kCrashRecord joins
  board.machine().Attach(&counter);
  board.Boot();
  board.StepTo(kRunCycles);

  for (size_t k = 0; k < trace::kEventTypeCount; ++k) {
    const auto type = static_cast<EventType>(k);
    if (type == EventType::kFabricFrame) {
      continue;  // the fleet fabric's clockless recorder, not a board event
    }
    EXPECT_EQ(counter.counts[k], tr->events_of_type(type))
        << target.name << ": " << trace::EventTypeName(type);
  }

  sim::Board plain(target.build(), sim::BoardOptions{});
  plain.Boot();
  plain.StepTo(kRunCycles);
  EXPECT_TRUE(board.fingerprint() == plain.fingerprint()) << target.name;
}

TEST(ObserverTest, CountingObserverSeesEveryEventTheTraceRecords) {
  for (const auto& target : tools::LintTargets()) {
    ExpectCountsMatchTrace(target);
  }
  // The seeded images reach traps, crash records, quota denials and forced
  // unwinds, which no shipped image does.
  for (const auto& target : seeded::SeededImages()) {
    ExpectCountsMatchTrace(target);
  }
}

// Trap dispositions pair with their own thread's trap even when handlers on
// two threads interleave: thread "a" traps first and its handler sleeps;
// thread "b" traps while "a" sleeps and its handler sleeps longer, so "a"
// files its record while "b"'s trap is still pending.
TEST(ObserverTest, InterleavedHandlerTrapsKeepTheirOwnRecords) {
  ImageBuilder b("interleaved-handlers");
  const auto svc = [&b](const char* name, Address fault, Cycles nap) {
    b.Compartment(name)
        .ErrorHandler([nap](CompartmentCtx& ctx, TrapInfo&) {
          ctx.SleepCycles(nap);
          return ErrorRecovery::kForceUnwind;
        })
        .Export("boom", [fault](CompartmentCtx& ctx,
                                const std::vector<Capability>&) {
          ctx.LoadWord(Capability::FromWord(fault), 0);
          return StatusCap(Status::kOk);
        });
    sync::UseScheduler(b, name);
  };
  svc("svc_a", 0xA00, 50'000);
  svc("svc_b", 0xB00, 200'000);
  b.Compartment("app")
      .ImportCompartment("svc_a.boom")
      .ImportCompartment("svc_b.boom")
      .Export("a", [](CompartmentCtx& ctx, const std::vector<Capability>&) {
        ctx.Call("svc_a.boom", {});
        return StatusCap(Status::kOk);
      })
      .Export("b", [](CompartmentCtx& ctx, const std::vector<Capability>&) {
        ctx.SleepCycles(10'000);
        ctx.Call("svc_b.boom", {});
        return StatusCap(Status::kOk);
      });
  sync::UseScheduler(b, "app");
  b.Thread("a", 2, 8192, 8, "app.a");
  b.Thread("b", 2, 8192, 8, "app.b");

  sim::Board board(b.Build(), sim::BoardOptions{});
  health::ForensicsRecorder* fr = board.EnableForensics();
  board.Boot();
  board.StepTo(kRunCycles);
  const std::vector<health::CrashRecord> records = fr->Records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(fr->ThreadName(records[0].thread), "a");  // filed first
  EXPECT_EQ(records[0].fault_address, 0xA00u);
  EXPECT_EQ(fr->CompartmentName(records[0].compartment), "svc_a");
  EXPECT_EQ(fr->ThreadName(records[1].thread), "b");
  EXPECT_EQ(records[1].fault_address, 0xB00u);
  EXPECT_EQ(fr->CompartmentName(records[1].compartment), "svc_b");
}

TEST(ObserverDeathTest, SecondRecorderOfAnAttachedKindIsRefused) {
  EXPECT_DEATH(
      {
        sim::Board board(seeded::TrapStorm(), sim::BoardOptions{});
        board.EnableTrace({});
        board.EnableTrace({});
        board.Boot();
      },
      "an observer of this kind is already attached");
}

}  // namespace
}  // namespace cheriot
