// §5.3 "Hardware performance" ablation: CoreMark-style workload on the
// CHERIoT memory model versus a baseline RV32E cost model.
//
// The paper attributes the 20.65% CoreMark overhead to (a) the load filter
// (~8%), (b) the narrow 33-bit bus making each 8-byte capability load two
// bus reads (~8%), and (c) temporal checks / compiler maturity (~5%). The
// ablation runs CoreMark's three kernel shapes — linked-list traversal
// (capability-heavy), matrix multiply (word-heavy) and CRC (byte-heavy) —
// measures CHERIoT cycles, and recomputes the baseline by removing exactly
// the per-capability-load penalty the paper describes.
// BENCH_cap_overhead.json records the cycles and the percentage.
#include <cmath>
#include <cstdio>

#include "bench/harness.h"
#include "src/rtos.h"

namespace cheriot {
namespace {

struct Ablation {
  double cheriot_cycles = 0;
  double baseline_cycles = 0;
  uint64_t cap_loads = 0;
  double overhead_percent() const {
    return 100.0 * (cheriot_cycles - baseline_cycles) / baseline_cycles;
  }
};

Ablation RunWorkload() {
  Machine machine;
  auto out = std::make_shared<Ablation>();
  ImageBuilder b("coremark");
  b.Compartment("bench")
      .Globals(8 * 1024)
      .Export("main", [out, &machine](CompartmentCtx& ctx,
                                      const std::vector<Capability>&) {
        const Capability g = ctx.globals();
        Memory& mem = ctx.machine().memory();

        // --- Build a 64-node linked list of {next_cap, value} nodes.
        constexpr int kNodes = 64;
        constexpr Word kNodeBytes = 16;
        for (int i = 0; i < kNodes; ++i) {
          const Capability node = g.AddOffset(i * kNodeBytes);
          const int next = (i * 7 + 1) % kNodes;  // scrambled order
          ctx.StoreCap(node, 0,
                       g.AddOffset(next * kNodeBytes).WithBoundsAtCursor(
                           kNodeBytes));
          ctx.StoreWord(node, 8, static_cast<Word>(i * 3));
        }
        const Address matrix = 64 * kNodeBytes;

        mem.ResetAccessCounters();
        machine.Tick(0);
        const Cycles t0 = ctx.Now();

        // Kernel 1: pointer chasing (capability loads exercise the load
        // filter and the two-bus-read penalty).
        Word acc = 0;
        Capability cursor = g.WithBoundsAtCursor(kNodeBytes);
        for (int step = 0; step < 2000; ++step) {
          acc += ctx.LoadWord(cursor, 8);
          cursor = ctx.LoadCap(cursor, 0);
          ctx.Burn(3 * cost::kInstruction);  // index arithmetic + compare
        }

        // Kernel 2: 8x8 integer matrix multiply (word traffic).
        for (int i = 0; i < 8; ++i) {
          for (int j = 0; j < 8; ++j) {
            Word sum = 0;
            for (int k = 0; k < 8; ++k) {
              const Word a = ctx.LoadWord(g, matrix + 4 * (8 * i + k));
              const Word bb = ctx.LoadWord(g, matrix + 256 + 4 * (8 * k + j));
              sum += a * bb;
              ctx.Burn(2 * cost::kInstruction);  // MAC + loop bookkeeping
            }
            ctx.StoreWord(g, matrix + 512 + 4 * (8 * i + j), sum);
          }
        }

        // Kernel 3: CRC over a 1 KiB buffer (byte traffic + ALU).
        Word crc = 0xFFFF;
        for (int i = 0; i < 1024; ++i) {
          const uint8_t byte = ctx.LoadByte(g, matrix + (i % 512));
          crc ^= byte;
          for (int bit = 0; bit < 8; ++bit) {
            crc = (crc >> 1) ^ ((crc & 1) ? 0xA001 : 0);
          }
          ctx.Burn(18 * cost::kInstruction);  // 8 shift/xor rounds
        }
        bench::DoNotOptimize(acc + crc);

        out->cheriot_cycles = static_cast<double>(ctx.Now() - t0);
        out->cap_loads = mem.cap_load_count();
        // Baseline RV32E: pointers are 4-byte words — one bus read, no load
        // filter, no tag maintenance on pointer stores.
        const double cap_load_penalty =
            static_cast<double>(cost::kLoadCap - cost::kLoadWord +
                                cost::kLoadFilter);
        const double cap_store_penalty =
            static_cast<double>(cost::kStoreCap - cost::kStoreWord);
        out->baseline_cycles =
            out->cheriot_cycles -
            mem.cap_load_count() * cap_load_penalty -
            mem.cap_store_count() * cap_store_penalty;
        return StatusCap(Status::kOk);
      });
  b.Thread("t", 1, 8192, 4, "bench.main");
  System sys(machine, b.Build());
  sys.Boot();
  sys.Run(8'000'000'000ull);
  return *out;
}

}  // namespace
}  // namespace cheriot

int main(int argc, char** argv) {
  using namespace cheriot;
  const bench::Output out("cap_overhead", argc, argv);
  const Ablation a = RunWorkload();
  std::printf("\n=== §5.3 hardware-performance ablation (CoreMark-style) ===\n");
  std::printf("  CHERIoT cycles:  %.0f\n", a.cheriot_cycles);
  std::printf("  baseline cycles: %.0f (capability-load penalty removed)\n",
              a.baseline_cycles);
  std::printf("  capability loads: %llu\n",
              static_cast<unsigned long long>(a.cap_loads));
  std::printf("  overhead: %.2f%%   (paper: 20.65%% on CoreMark; ~8%% load "
              "filter + ~8%% bus width + rest compiler/temporal)\n",
              a.overhead_percent());
  // Both cycle counts are whole numbers held in doubles.
  return out.Write(
      {{"unit", "simulated cycles"},
       {"cheriot_cycles", std::lround(a.cheriot_cycles)},
       {"baseline_cycles", std::lround(a.baseline_cycles)},
       {"cap_loads", a.cap_loads},
       {"cheriot_vs_baseline_pct", a.overhead_percent()}});
}
