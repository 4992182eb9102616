// Host-side cost of cheriot-trace (DESIGN.md §8): wall-clock time to run the
// same firmware image (a) untraced, (b) with the flight recorder + profiler
// on, and (c) with tracing on plus a full Chrome-trace/metrics/profile
// export. Guest cycles are identical in all three modes by construction —
// the cycle-model-invariance contract — and this bench hard-asserts that by
// comparing fingerprints before reporting any number. What tracing costs is
// host time only, and BENCH_trace_overhead.json records how much.
#include <cstdio>
#include <string>

#include "bench/harness.h"
#include "src/sim/board.h"
#include "src/trace/export.h"
#include "src/trace/trace.h"
#include "tools/lint_targets.h"

namespace cheriot {
namespace {

constexpr Cycles kRunCycles = 2'000'000;

enum Mode { kOff, kRing, kExport };

struct Result {
  double seconds = 0;
  uint64_t emitted = 0;
  sim::Board::Fingerprint fingerprint;
};

Result RunOnce(const tools::LintTarget& target, int mode) {
  sim::Board board(target.build(), sim::BoardOptions{});
  trace::TraceRecorder* rec = nullptr;
  if (mode != kOff) {
    rec = board.EnableTrace({});
  }
  std::string exported;
  Result r;
  r.seconds = bench::Time([&] {
    board.Boot();
    board.StepTo(kRunCycles);
    if (mode == kExport) {
      exported = trace::ChromeTrace(*rec).Dump(2);
      exported += trace::MetricsSnapshot(*rec).Dump(2);
      exported += trace::ProfileText(*rec);
      exported += trace::CollapsedStacksText(*rec);
    }
  });
  r.emitted = rec ? rec->emitted() : 0;
  r.fingerprint = board.fingerprint();
  bench::DoNotOptimize(exported);
  return r;
}

}  // namespace
}  // namespace cheriot

int main(int argc, char** argv) {
  using namespace cheriot;
  const bench::Output out("trace_overhead", argc, argv);
  bench::WarmUpCpu();

  const tools::LintTarget* target = tools::FindTarget("fleet-node");
  if (!target) {
    std::fprintf(stderr, "lint target 'fleet-node' missing\n");
    return 1;
  }

  std::printf("=== cheriot-trace host overhead (%s, %llu guest cycles) ===\n",
              target->name.c_str(),
              static_cast<unsigned long long>(kRunCycles));
  int runs = 0;
  const auto modes = bench::InterleavedMedians(
      3, [&](int mode) { return RunOnce(*target, mode); }, &runs);
  const Result& off = modes[kOff];
  const Result& ring = modes[kRing];
  const Result& full = modes[kExport];
  std::printf("  (per-run medians of %d samples x %d runs)\n", bench::kSamples,
              runs);

  // The whole point of the recorder is that it never moves a guest cycle.
  // If these ever diverge the numbers below are meaningless — abort loudly.
  if (!(off.fingerprint == ring.fingerprint) ||
      !(off.fingerprint == full.fingerprint)) {
    std::fprintf(stderr,
                 "FATAL: tracing changed the guest fingerprint; "
                 "cycle-model invariance is broken\n");
    return 2;
  }

  const double ring_overhead = ring.seconds / off.seconds - 1.0;
  const double full_overhead = full.seconds / off.seconds - 1.0;
  std::printf("  off:         %.4f s\n", off.seconds);
  std::printf("  ring on:     %.4f s  (+%.1f%%, %llu events)\n", ring.seconds,
              100.0 * ring_overhead,
              static_cast<unsigned long long>(ring.emitted));
  std::printf("  full export: %.4f s  (+%.1f%%)\n", full.seconds,
              100.0 * full_overhead);

  return out.Write(
      {{"unit", "host seconds for " + std::to_string(kRunCycles) +
                    " guest cycles"},
       {"image", target->name},
       {"events_emitted", ring.emitted},
       {"off_seconds", off.seconds},
       {"ring_seconds", ring.seconds},
       {"export_seconds", full.seconds},
       {"ring_overhead", ring_overhead},
       {"export_overhead", full_overhead},
       {"fingerprint_invariant", true}});
}
