#include "tools/mc_targets.h"

#include <algorithm>

#include "src/rtos.h"
#include "src/sync/sync.h"

namespace cheriot::tools {

namespace {

// Check-then-wait with the flag and the futex word in different granules:
// the waiter tests `flag` and then sleeps on `wake_word`, so a signal that
// lands between the test and the sleep is lost — the signaler bumps only
// the flag, the futex compare on `wake_word` still sees the expected value
// and the waiter blocks forever. The default schedule never preempts in
// that window; one forced sync-preempt at the FutexWait entry does.
FirmwareImage SeededLostWake() {
  ImageBuilder b("seeded-lost-wake");
  b.Compartment("app")
      .Globals(64)
      .Export("waiter",
              [](CompartmentCtx& ctx, const std::vector<Capability>&) {
                const Capability flag = ctx.globals();
                const Capability wake_word = ctx.globals().AddOffset(4);
                // BUG: the condition lives in `flag` but the wait is keyed
                // on `wake_word`, which nobody ever writes — the atomicity
                // of check+wait rests entirely on not being preempted here.
                while (ctx.LoadWord(flag) == 0) {
                  ctx.FutexWait(wake_word, 0, ~0u);
                }
                return StatusCap(Status::kOk);
              })
      .Export("signaler",
              [](CompartmentCtx& ctx, const std::vector<Capability>&) {
                ctx.StoreWord(ctx.globals(), 0, 1);
                ctx.FutexWake(ctx.globals().AddOffset(4), 1);
                return StatusCap(Status::kOk);
              });
  sync::UseScheduler(b, "app");
  // Same priority: the sync-preempt branch round-robins to the signaler.
  b.Thread("waiter", 2, 4096, 8, "app.waiter");
  b.Thread("signaler", 2, 4096, 8, "app.signaler");
  return b.Build();
}

// Two same-priority workers block FIFO on a futex; the main thread wakes
// both at once and then prints the accumulator. The workers' updates do not
// commute (*3 vs +5), so the wake order is guest-visible: FIFO gives
// (0*3)+5 = 5, the flipped order gives (0+5)*3 = 15 on the UART.
FirmwareImage SeededWakeOrder() {
  ImageBuilder b("seeded-wake-order");
  auto worker = [](Word mul, Word add) {
    return [mul, add](CompartmentCtx& ctx, const std::vector<Capability>&) {
      const Capability wake_word = ctx.globals();
      const Capability acc = ctx.globals().AddOffset(4);
      ctx.FutexWait(wake_word, 0, ~0u);
      // BUG: read-modify-write in wake order with non-commutative updates;
      // the result depends on which waiter the kernel pops first.
      ctx.StoreWord(acc, 0, ctx.LoadWord(acc) * mul + add);
      return StatusCap(Status::kOk);
    };
  };
  b.Compartment("app")
      .Globals(64)
      .ImportMmio("uart", kUartMmioBase, kMmioRegionSize, true)
      .Export("w1", worker(3, 0))
      .Export("w2", worker(1, 5))
      .Export("main",
              [](CompartmentCtx& ctx, const std::vector<Capability>&) {
                const Capability wake_word = ctx.globals();
                ctx.StoreWord(wake_word, 0, 1);
                ctx.FutexWake(wake_word, 2);
                const Word g = ctx.LoadWord(ctx.globals(), 4);
                const Capability uart = ctx.Mmio("uart");
                char buf[16];
                int n = std::snprintf(buf, sizeof(buf), "acc=%u\n",
                                      static_cast<unsigned>(g));
                for (int i = 0; i < n; ++i) {
                  ctx.StoreWord(uart, 0, static_cast<uint8_t>(buf[i]));
                }
                return StatusCap(Status::kOk);
              });
  sync::UseScheduler(b, "app");
  // Workers outrank main so both are parked on the futex before the wake;
  // equal worker priorities make the ready order follow the pop order.
  b.Thread("w1", 2, 4096, 8, "app.w1");
  b.Thread("w2", 2, 4096, 8, "app.w2");
  b.Thread("main", 1, 4096, 8, "app.main");
  return b.Build();
}

// TOCTOU across the allocator boundary: the racer checks the quota, a rival
// drains it in the preemption window, and the racer stores through the
// unchecked HeapAllocate result — an untagged status capability — and traps.
// The quota (600) fits exactly one 512-byte allocation (charged 512+16).
FirmwareImage SeededQuotaRace() {
  ImageBuilder b("seeded-quota-race");
  b.Compartment("app")
      .Globals(64)
      .AllocCap("q", 600)
      .Export("racer",
              [](CompartmentCtx& ctx, const std::vector<Capability>&) {
                const Capability q = ctx.SealedImport("q");
                if (ctx.HeapQuotaRemaining(q) >= 512 + 16) {
                  const Capability p = ctx.HeapAllocate(q, 512, 0);
                  // BUG: no tag check — the quota probe above is stale the
                  // moment another thread allocates against the same quota.
                  ctx.StoreWord(p, 0, 42);
                }
                return StatusCap(Status::kOk);
              })
      .Export("rival",
              [](CompartmentCtx& ctx, const std::vector<Capability>&) {
                const Capability q = ctx.SealedImport("q");
                const Capability p = ctx.HeapAllocate(q, 512, 0);
                if (p.tag()) {
                  ctx.StoreWord(p, 0, 7);  // held, never freed
                }
                return StatusCap(Status::kOk);
              });
  sync::UseAllocator(b, "app");
  sync::UseScheduler(b, "app");
  // Same priority: the sync-preempt branch at the racer's HeapAllocate
  // entry round-robins to the rival, which drains the quota and exits.
  b.Thread("racer", 2, 8192, 8, "app.racer");
  b.Thread("rival", 2, 8192, 8, "app.rival");
  return b.Build();
}

std::vector<LintTarget> MakeSeeded() {
  std::vector<LintTarget> t = {
      {"seeded-lost-wake",
       "check-then-wait lost-wake bug; one preemption deadlocks it",
       SeededLostWake},
      {"seeded-quota-race",
       "quota check/allocate TOCTOU; one preemption traps it",
       SeededQuotaRace},
      {"seeded-wake-order",
       "non-commutative updates in wake order; flipped pop order diverges",
       SeededWakeOrder},
  };
  std::sort(t.begin(), t.end(),
            [](const LintTarget& a, const LintTarget& b) {
              return a.name < b.name;
            });
  return t;
}

}  // namespace

const std::vector<LintTarget>& McSeededTargets() {
  static const std::vector<LintTarget> kTargets = MakeSeeded();
  return kTargets;
}

}  // namespace cheriot::tools
