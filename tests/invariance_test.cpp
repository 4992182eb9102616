// Differential cycle-model-invariance harness (DESIGN.md "Simulator fast
// path").
//
// The simulator's value rests on deterministic cycle accounting: any
// host-side optimisation of the memory system must leave *simulated* cycles,
// access counters and trap behaviour bit-identical, or every calibrated
// benchmark number silently drifts. This harness pins three representative
// workloads — raw memory traffic (loads/stores/caps/MMIO/traps), a
// kernel/switcher exercise (compartment calls, library calls, scoped
// handlers, futex/yield) and an allocator/revoker exercise (malloc/free with
// forced revocation sweeps) — to golden totals captured from the seed
// implementation (naive MMIO scan, std::function hooks, vector<bool>
// bitmaps, granule-at-a-time revoker).
//
// If an optimisation changes any number here it is NOT a fast path, it is a
// model change, and must be rejected or recalibrated explicitly.
#include <gtest/gtest.h>

#include <cstdio>

#include "src/rtos.h"
#include "src/sync/sync.h"
#include "src/trace/trace.h"

namespace cheriot {
namespace {

struct Trace {
  Cycles cycles = 0;
  uint64_t accesses = 0;
  uint64_t cap_loads = 0;
  uint64_t cap_stores = 0;
  uint32_t revoker_epoch = 0;
  std::vector<int> traps;  // TrapCode values, in order of occurrence
  // Filled only by the traced variants (the recorder's clock dies with the
  // workload's Machine, so these are captured before it goes out of scope).
  Cycles attributed = 0;
  uint64_t emitted = 0;

  void Print(const char* name) const {
    std::printf("GOLDEN %s cycles=%llu accesses=%llu cap_loads=%llu "
                "cap_stores=%llu epoch=%u traps={",
                name, static_cast<unsigned long long>(cycles),
                static_cast<unsigned long long>(accesses),
                static_cast<unsigned long long>(cap_loads),
                static_cast<unsigned long long>(cap_stores), revoker_epoch);
    for (size_t i = 0; i < traps.size(); ++i) {
      std::printf("%s%d", i ? "," : "", traps[i]);
    }
    std::printf("}\n");
  }
};

// --- Workload 1: raw memory traffic against the full SoC memory map -------
// Word/byte/half/capability round-trips, bulk copies, zeroing, MMIO register
// traffic, and a fixed battery of trapping accesses covering every hot-path
// check (tag, seal, permission, bounds, revocation, alignment).
Trace MemoryWorkload(trace::TraceRecorder* rec = nullptr) {
  Machine machine;
  if (rec) {
    machine.Attach(rec);
  }
  Memory& mem = machine.memory();
  const Address base = mem.sram_base();
  const Capability root =
      Capability::RootReadWrite(base, base + mem.sram_size());

  Trace t;
  auto record = [&](auto&& op) {
    try {
      op();
    } catch (const TrapException& e) {
      t.traps.push_back(static_cast<int>(e.code()));
    }
  };

  // Dense word/byte/half traffic over a 4 KiB window.
  for (int round = 0; round < 8; ++round) {
    for (Address off = 0; off < 4096; off += 4) {
      mem.StoreWord(root, base + off, off ^ round);
    }
    for (Address off = 0; off < 4096; off += 4) {
      volatile Word v = mem.LoadWord(root, base + off);
      (void)v;
    }
    for (Address off = 0; off < 1024; ++off) {
      mem.StoreByte(root, base + 0x2000 + off, static_cast<uint8_t>(off));
    }
    for (Address off = 0; off < 1024; off += 2) {
      mem.StoreHalf(root, base + 0x3000 + off, static_cast<uint16_t>(off));
      volatile uint16_t h = mem.LoadHalf(root, base + 0x3000 + off);
      (void)h;
    }
  }

  // Capability traffic: spill/reload a pointer array, partially clobber one.
  for (int i = 0; i < 64; ++i) {
    mem.StoreCap(root, base + 0x4000 + 8 * i,
                 root.WithBounds(base + 0x100 * i, 0x40));
  }
  for (int i = 0; i < 64; ++i) {
    volatile bool tag = mem.LoadCap(root, base + 0x4000 + 8 * i).tag();
    (void)tag;
  }
  mem.StoreByte(root, base + 0x4000 + 8 * 7 + 3, 0xAA);  // clears one tag

  // Load filter: free a region, reload the stale pointer.
  mem.revocation().SetRange(base + 0x700, 0x40, true);
  mem.StoreCap(root, base + 0x5000, root.WithBounds(base + 0x700, 0x40));
  const Capability stale =
      mem.LoadCap(root.WithPermissions(PermissionSet::ReadWriteGlobal()),
                  base + 0x5000);
  if (!stale.tag()) {
    t.traps.push_back(-1);  // sentinel: load filter fired
  }

  // MMIO traffic: UART tx, LED mask, timer reads.
  const Capability uart =
      Capability::RootReadWrite(kUartMmioBase, kUartMmioBase + kMmioRegionSize);
  const Capability led =
      Capability::RootReadWrite(kLedMmioBase, kLedMmioBase + kMmioRegionSize);
  const Capability timer = Capability::RootReadWrite(
      kTimerMmioBase, kTimerMmioBase + kMmioRegionSize);
  for (int i = 0; i < 256; ++i) {
    mem.StoreWord(uart, kUartMmioBase, 'A' + (i % 26));
    volatile Word st = mem.LoadWord(uart, kUartMmioBase + 4);
    (void)st;
    mem.StoreWord(led, kLedMmioBase, i & 0xFF);
    volatile Word now = mem.LoadWord(timer, kTimerMmioBase);
    (void)now;
  }

  // Bulk helpers.
  uint8_t buf[512];
  for (int i = 0; i < 512; ++i) buf[i] = static_cast<uint8_t>(i * 7);
  mem.WriteBytes(root, base + 0x6000, buf, sizeof(buf));
  mem.ReadBytes(root, base + 0x6000, buf, sizeof(buf));
  mem.ZeroRange(root, base + 0x6000, 512);

  // Trap battery (each charges its access cost before trapping).
  const Capability narrow = root.WithBounds(base + 0x100, 16);
  record([&] { mem.LoadWord(narrow, base + 0x110); });
  record([&] { mem.StoreWord(narrow, base + 0xFC, 1); });
  record([&] { mem.LoadWord(root.WithoutPermission(Permission::kLoad), base); });
  record([&] { mem.StoreWord(root.WithoutPermission(Permission::kStore), base, 1); });
  record([&] { mem.LoadWord(Capability::FromWord(base), base); });
  record([&] {
    const Capability key = Capability::RootSealing().WithAddress(9);
    mem.LoadWord(root.SealedWith(key), base);
  });
  record([&] { mem.LoadWord(root, base + 2); });
  record([&] { mem.LoadHalf(root, base + 1); });
  record([&] { mem.StoreCap(root, base + 4, root); });
  record([&] {
    mem.LoadWord(root.WithPermissions(PermissionSet::ReadWriteGlobal())
                     .WithBounds(base + 0x700, 0x40),
                 base + 0x700);
  });
  record([&] {
    mem.LoadWord(Capability::RootReadWrite(0x10007000, 0x10007100), 0x10007000);
  });

  t.cycles = machine.clock().now();
  t.accesses = mem.access_count();
  t.cap_loads = mem.cap_load_count();
  t.cap_stores = mem.cap_store_count();
  if (rec) {
    t.attributed = rec->attributed_cycles();
    t.emitted = rec->emitted();
  }
  return t;
}

// --- Workload 2: kernel/switcher traffic ----------------------------------
// Compartment-call ping-pong, a library call, a scoped-handler fault, a
// global-handler fault in the callee, futex wake/wait and yields.
Trace KernelWorkload(trace::TraceRecorder* rec = nullptr) {
  Machine machine;
  if (rec) {
    machine.Attach(rec);
  }
  auto traps = std::make_shared<std::vector<int>>();
  ImageBuilder b("invariance-kernel");
  b.Compartment("callee")
      .Globals(256)
      .Export("add",
              [](CompartmentCtx&, const std::vector<Capability>& args) {
                return WordCap(args[0].word() + args[1].word());
              })
      .Export("touch",
              [](CompartmentCtx& ctx, const std::vector<Capability>&) {
                for (int i = 0; i < 16; ++i) {
                  ctx.StoreWord(ctx.globals(), 4 * i, i);
                }
                return StatusCap(Status::kOk);
              })
      .Export("fault", [](CompartmentCtx& ctx, const std::vector<Capability>&) {
        ctx.LoadWord(Capability(), 0);  // untagged: global-handler unwind
        return StatusCap(Status::kOk);
      });
  b.Library("mathlib").Export(
      "square", [](CompartmentCtx&, const std::vector<Capability>& args) {
        return WordCap(args[0].word() * args[0].word());
      });
  b.Compartment("caller")
      .Globals(256)
      .ImportCompartment("callee.add")
      .ImportCompartment("callee.touch")
      .ImportCompartment("callee.fault")
      .ImportLibrary("mathlib.square")
      .Export("main", [traps](CompartmentCtx& ctx,
                              const std::vector<Capability>&) {
        Word acc = 0;
        for (int i = 0; i < 40; ++i) {
          acc += ctx.Call("callee.add", {WordCap(i), WordCap(acc)}).word();
          if (i % 4 == 0) {
            ctx.Call("callee.touch", {});
          }
          acc ^= ctx.LibCall("mathlib.square", {WordCap(i)}).word();
        }
        // Scoped handler: in-compartment fault is caught locally.
        auto info = ctx.Try([&] { ctx.LoadWord(Capability(), 0); });
        traps->push_back(info ? static_cast<int>(info->cause) : 0);
        // Callee fault: unwinds back with an error status.
        const Capability r = ctx.Call("callee.fault", {});
        traps->push_back(static_cast<int>(r.word()));
        // Futex + yield traffic.
        for (int i = 0; i < 8; ++i) {
          ctx.FutexWake(ctx.globals(), 1);
          ctx.Yield();
        }
        ctx.StoreWord(ctx.globals(), 0, acc);
        return StatusCap(Status::kOk);
      });
  sync::UseScheduler(b, "caller");
  b.Thread("t", 1, 8192, 8, "caller.main");

  System sys(machine, b.Build());
  sys.Boot();
  EXPECT_EQ(sys.Run(20'000'000'000ull), System::RunResult::kAllExited);

  Trace t;
  t.cycles = machine.clock().now();
  t.accesses = machine.memory().access_count();
  t.cap_loads = machine.memory().cap_load_count();
  t.cap_stores = machine.memory().cap_store_count();
  t.traps = *traps;
  if (rec) {
    t.attributed = rec->attributed_cycles();
    t.emitted = rec->emitted();
  }
  return t;
}

// --- Workload 3: allocator + revoker --------------------------------------
// Alloc/free churn across sizes (quarantine + revocation-bit traffic), a
// large allocation that forces a completed sweep for reuse, and a
// use-after-free probe.
Trace AllocatorWorkload(trace::TraceRecorder* rec = nullptr) {
  Machine machine;
  if (rec) {
    machine.Attach(rec);
  }
  auto traps = std::make_shared<std::vector<int>>();
  ImageBuilder b("invariance-alloc");
  b.Compartment("app")
      .Globals(64)
      .AllocCap("q", 512 * 1024)
      .Export("main", [traps](CompartmentCtx& ctx,
                              const std::vector<Capability>&) {
        const Capability q = ctx.SealedImport("q");
        for (int round = 0; round < 6; ++round) {
          std::vector<Capability> ptrs;
          for (Word size = 64; size <= 4096; size *= 2) {
            const Capability p = ctx.HeapAllocate(q, size);
            if (p.tag()) {
              ctx.StoreWord(p, 0, size);
              ctx.StoreWord(p, static_cast<int64_t>(size) - 4, round);
              ptrs.push_back(p);
            }
          }
          for (const Capability& p : ptrs) {
            ctx.HeapFree(q, p);
          }
        }
        // Use-after-free probe: traps immediately (§3.1.3).
        const Capability p = ctx.HeapAllocate(q, 128);
        ctx.HeapFree(q, p);
        auto info = ctx.Try([&] { ctx.LoadWord(p, 0); });
        traps->push_back(info ? static_cast<int>(info->cause) : 0);
        // Force reuse of quarantined memory: needs a completed sweep.
        const Capability big1 = ctx.HeapAllocate(q, 120 * 1024, ~0u);
        ctx.HeapFree(q, big1);
        const Capability big2 = ctx.HeapAllocate(q, 140 * 1024, ~0u);
        traps->push_back(big2.tag() ? 1 : 0);
        ctx.HeapFree(q, big2);
        return StatusCap(Status::kOk);
      });
  sync::UseAllocator(b, "app");
  sync::UseScheduler(b, "app");
  b.Thread("t", 1, 8192, 8, "app.main");

  System sys(machine, b.Build());
  sys.Boot();
  EXPECT_EQ(sys.Run(20'000'000'000ull), System::RunResult::kAllExited);

  Trace t;
  t.cycles = machine.clock().now();
  t.accesses = machine.memory().access_count();
  t.cap_loads = machine.memory().cap_load_count();
  t.cap_stores = machine.memory().cap_store_count();
  t.revoker_epoch = machine.revoker().epoch();
  t.traps = *traps;
  if (rec) {
    t.attributed = rec->attributed_cycles();
    t.emitted = rec->emitted();
  }
  return t;
}

// --- Golden values, captured from the seed implementation -----------------
// (naive linear MMIO scan, std::function access hook, std::vector<bool>
// tag/revocation bitmaps, granule-at-a-time revoker sweep). Regenerate ONLY
// for deliberate, documented cycle-model changes: run this binary and copy
// the "GOLDEN ..." lines it prints.
struct Golden {
  unsigned long long cycles, accesses, cap_loads, cap_stores;
  uint32_t epoch;
  std::vector<int> traps;
};

void ExpectMatches(const Trace& t, const Golden& g) {
  EXPECT_EQ(t.cycles, g.cycles);
  EXPECT_EQ(t.accesses, g.accesses);
  EXPECT_EQ(t.cap_loads, g.cap_loads);
  EXPECT_EQ(t.cap_stores, g.cap_stores);
  EXPECT_EQ(t.revoker_epoch, g.epoch);
  EXPECT_EQ(t.traps, g.traps);
}

TEST(CycleModelInvariance, MemoryWorkload) {
  const Trace t = MemoryWorkload();
  t.Print("memory");
  ExpectMatches(t, Golden{68963, 33937, 65, 66, 0,
                          {-1, 3, 3, 4, 5, 1, 2, 8, 8, 8, 1, 3}});
}

TEST(CycleModelInvariance, KernelWorkload) {
  const Trace t = KernelWorkload();
  t.Print("kernel");
  ExpectMatches(t, Golden{15517, 1187, 0, 0, 0, {1, -6}});
}

TEST(CycleModelInvariance, AllocatorWorkload) {
  const Trace t = AllocatorWorkload();
  t.Print("allocator");
  ExpectMatches(t, Golden{1069709, 4781, 0, 0, 2, {1, 1}});
}

// --- Traced variants ------------------------------------------------------
// cheriot-trace's core guarantee: attaching the flight recorder + profiler
// moves no guest cycle, no access count, no trap — the SAME goldens hold —
// while every cycle lands in exactly one profiler bucket.

TEST(CycleModelInvariance, MemoryWorkloadTraced) {
  trace::TraceRecorder rec;
  const Trace t = MemoryWorkload(&rec);
  ExpectMatches(t, Golden{68963, 33937, 65, 66, 0,
                          {-1, 3, 3, 4, 5, 1, 2, 8, 8, 8, 1, 3}});
  EXPECT_EQ(t.attributed, t.cycles);
}

TEST(CycleModelInvariance, KernelWorkloadTraced) {
  trace::TraceRecorder rec;
  const Trace t = KernelWorkload(&rec);
  ExpectMatches(t, Golden{15517, 1187, 0, 0, 0, {1, -6}});
  EXPECT_EQ(t.attributed, t.cycles);
  EXPECT_GT(t.emitted, 0u);  // compartment calls, traps and wakes recorded
}

TEST(CycleModelInvariance, AllocatorWorkloadTraced) {
  trace::TraceRecorder rec;
  const Trace t = AllocatorWorkload(&rec);
  ExpectMatches(t, Golden{1069709, 4781, 0, 0, 2, {1, 1}});
  EXPECT_EQ(t.attributed, t.cycles);
  EXPECT_GT(t.emitted, 0u);  // heap and revoker events recorded
}

}  // namespace
}  // namespace cheriot
