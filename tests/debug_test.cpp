// Stack watermark tooling (§3.2.5) and its surfacing in the metrics
// snapshot: debug::StackPeakBytes / StackHeadroom across nested compartment
// calls, the switcher's zero-and-reset on return, and the monotonic
// per-thread peak that cheriot-trace exports.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/debug/debug.h"
#include "src/rtos.h"
#include "src/sync/sync.h"
#include "src/trace/export.h"
#include "src/trace/trace.h"

namespace cheriot {
namespace {

struct Shared {
  std::vector<Address> values;
};

TEST(DebugTest, WatermarkGrowsAcrossNestedCallsAndResetsOnReturn) {
  auto shared = std::make_shared<Shared>();
  Machine machine;
  ImageBuilder b("debug-watermark");
  b.Compartment("callee").Export(
      "deep", [shared](CompartmentCtx& ctx, const std::vector<Capability>&) {
        shared->values.push_back(debug::StackPeakBytes(ctx));  // [1] at entry
        {
          auto buf = ctx.AllocStack(2048);
          ctx.StoreWord(buf.cap(), 0, 0xd00d);
          shared->values.push_back(debug::StackPeakBytes(ctx));  // [2] deep
          shared->values.push_back(debug::StackHeadroom(ctx));   // [3]
        }
        return StatusCap(Status::kOk);
      });
  b.Compartment("caller")
      .ImportCompartment("callee.deep")
      .Export("main", [shared](CompartmentCtx& ctx,
                               const std::vector<Capability>&) {
        shared->values.push_back(debug::StackHeadroom(ctx));  // [0] before
        ctx.Call("callee.deep", {});
        // The switcher zeroed the callee's dirty region and pulled the
        // watermark back to the stack level at the call, so the callee's
        // deeper use is no longer visible here...
        shared->values.push_back(debug::StackPeakBytes(ctx));  // [4] after
        shared->values.push_back(debug::StackHeadroom(ctx));   // [5] after
        return StatusCap(Status::kOk);
      });
  sync::UseScheduler(b, "caller");
  b.Thread("t", 1, 8192, 8, "caller.main");

  System sys(machine, b.Build());
  sys.Boot();
  EXPECT_EQ(sys.Run(20'000'000'000ull), System::RunResult::kAllExited);

  ASSERT_EQ(shared->values.size(), 6u);
  const Address entry_peak = shared->values[1];
  const Address deep_peak = shared->values[2];
  const Address deep_headroom = shared->values[3];
  const Address after_peak = shared->values[4];
  const Address after_headroom = shared->values[5];

  // Allocating 2 KiB and dirtying it moved the watermark by at least 2 KiB.
  EXPECT_GE(deep_peak, entry_peak + 2048);
  // Headroom shrank accordingly but never hit the guard.
  EXPECT_GT(deep_headroom, 0u);
  EXPECT_GE(shared->values[0], after_headroom);
  // Zero-and-reset on return: the caller does not see the callee's depth.
  EXPECT_LT(after_peak, deep_peak);

  // ...but the kernel's monotonic per-thread peak does keep it.
  const GuestThread& t = sys.threads().front();
  EXPECT_GE(t.peak_stack_bytes, deep_peak);
  EXPECT_LE(t.peak_stack_bytes, t.stack_size);
}

TEST(DebugTest, PerThreadPeakStackReachesMetricsSnapshot) {
  auto shared = std::make_shared<Shared>();
  Machine machine;
  trace::TraceRecorder rec;
  machine.Attach(&rec);

  ImageBuilder b("debug-metrics");
  b.Compartment("app")
      .Export("light",
              [shared](CompartmentCtx& ctx, const std::vector<Capability>&) {
                auto buf = ctx.AllocStack(256);
                ctx.StoreWord(buf.cap(), 0, 1);
                return StatusCap(Status::kOk);
              })
      .Export("heavy",
              [shared](CompartmentCtx& ctx, const std::vector<Capability>&) {
                auto buf = ctx.AllocStack(4096);
                ctx.StoreWord(buf.cap(), 0, 1);
                return StatusCap(Status::kOk);
              });
  sync::UseScheduler(b, "app");
  b.Thread("light", 1, 8192, 8, "app.light");
  b.Thread("heavy", 2, 8192, 8, "app.heavy");

  System sys(machine, b.Build());
  sys.Boot();
  EXPECT_EQ(sys.Run(20'000'000'000ull), System::RunResult::kAllExited);

  std::vector<trace::ThreadStackStats> stats;
  for (const GuestThread& t : sys.threads()) {
    stats.push_back(
        {t.name, t.stack_size, t.peak_stack_bytes, t.compartment_calls});
  }
  const json::Value doc = trace::MetricsSnapshot(rec, stats);
  ASSERT_EQ(doc["threads"].size(), 2u);

  int64_t light_peak = -1;
  int64_t heavy_peak = -1;
  for (size_t i = 0; i < doc["threads"].size(); ++i) {
    const json::Value& t = doc["threads"][i];
    if (t["name"].AsString() == "light") {
      light_peak = t["peak_stack_bytes"].AsInt();
    } else if (t["name"].AsString() == "heavy") {
      heavy_peak = t["peak_stack_bytes"].AsInt();
    }
    EXPECT_EQ(t["stack_size"].AsInt(), 8192);
  }
  ASSERT_GE(light_peak, 256);
  ASSERT_GE(heavy_peak, 4096);
  // The 4 KiB frame shows up as a deeper peak than the 256-byte one.
  EXPECT_GT(heavy_peak, light_peak);
  // And attribution still balances with the recorder attached.
  EXPECT_EQ(rec.attributed_cycles(), machine.clock().now());
}

}  // namespace
}  // namespace cheriot
