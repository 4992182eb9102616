// Host-side cost of cheriot-flow (DESIGN.md §13): wall-clock time to run the
// same 4-board fleet-node fleet (a) with flow recording off, (b) with the
// flow recorder on, and (c) with recording on plus a full flow-table /
// histogram / metrics export. Flow ids are assigned in all three modes —
// only recording is gated — so every board's guest cycles are identical by
// construction, and this bench hard-asserts that by comparing all four
// fingerprints before reporting any number. What flow tracing costs is host
// time only, and BENCH_flow_overhead.json records how much.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/flow/flow.h"
#include "src/sim/fleet.h"
#include "tools/lint_targets.h"

namespace cheriot {
namespace {

constexpr Cycles kRunCycles = 2'000'000;
constexpr int kBoards = 4;
constexpr int kControlPublishes = 3;

enum Mode { kOff, kFlow, kExport };

struct Result {
  double seconds = 0;
  uint64_t flows = 0;
  uint64_t deliveries = 0;
  std::vector<sim::Board::Fingerprint> fingerprints;
};

Result RunOnce(const tools::LintTarget& target, int mode) {
  sim::FleetOptions fopts;
  fopts.flow = mode != kOff;
  sim::Fleet fleet(fopts);
  for (int i = 0; i < kBoards; ++i) {
    fleet.AddBoard(target.build());
  }
  std::string exported;
  Result r;
  r.seconds = bench::Time([&] {
    fleet.Boot();
    const Cycles chunk = kRunCycles / (kControlPublishes + 1);
    for (int i = 0; i <= kControlPublishes; ++i) {
      fleet.Run(chunk);
      if (i < kControlPublishes) {
        fleet.PublishMqtt("leds",
                          {'c', 'm', 'd', static_cast<uint8_t>('0' + i)});
      }
    }
    if (mode == kExport) {
      flow::FlowRecorder* fr = fleet.flow_recorder();
      exported = fr->FlowTableJson().Dump(2);
      exported += fr->HistogramsJson().Dump(2);
      exported += fr->MetricsJson().Dump(2);
    }
  });
  if (flow::FlowRecorder* fr = fleet.flow_recorder()) {
    r.flows = fr->flow_count();
    r.deliveries = fr->deliveries();
  }
  r.fingerprints = fleet.Fingerprints();
  bench::DoNotOptimize(exported);
  return r;
}

}  // namespace
}  // namespace cheriot

int main(int argc, char** argv) {
  using namespace cheriot;
  const bench::Output out("flow_overhead", argc, argv);
  bench::WarmUpCpu();

  const tools::LintTarget* target = tools::FindTarget("fleet-node");
  if (!target) {
    std::fprintf(stderr, "lint target 'fleet-node' missing\n");
    return 1;
  }

  std::printf(
      "=== cheriot-flow host overhead (%s x%d, %llu guest cycles) ===\n",
      target->name.c_str(), kBoards,
      static_cast<unsigned long long>(kRunCycles));
  int runs = 0;
  const auto modes = bench::InterleavedMedians(
      3, [&](int mode) { return RunOnce(*target, mode); }, &runs);
  const Result& off = modes[kOff];
  const Result& flow = modes[kFlow];
  const Result& full = modes[kExport];
  std::printf("  (per-run medians of %d samples x %d runs)\n", bench::kSamples,
              runs);

  // The whole point of the recorder is that it never moves a guest cycle.
  // If any board diverges the numbers below are meaningless — abort loudly.
  for (int b = 0; b < kBoards; ++b) {
    if (!(off.fingerprints[b] == flow.fingerprints[b]) ||
        !(off.fingerprints[b] == full.fingerprints[b])) {
      std::fprintf(stderr,
                   "FATAL: flow recording changed board %d's fingerprint; "
                   "cycle-model invariance is broken\n",
                   b);
      return 2;
    }
  }

  const double flow_overhead = flow.seconds / off.seconds - 1.0;
  const double full_overhead = full.seconds / off.seconds - 1.0;
  std::printf("  off:         %.4f s\n", off.seconds);
  std::printf("  flow on:     %.4f s  (+%.1f%%, %llu flows, %llu deliveries)\n",
              flow.seconds, 100.0 * flow_overhead,
              static_cast<unsigned long long>(flow.flows),
              static_cast<unsigned long long>(flow.deliveries));
  std::printf("  full export: %.4f s  (+%.1f%%)\n", full.seconds,
              100.0 * full_overhead);

  return out.Write(
      {{"unit", "host seconds for " + std::to_string(kRunCycles) +
                    " guest cycles"},
       {"image", target->name},
       {"boards", kBoards},
       {"flows", flow.flows},
       {"deliveries", flow.deliveries},
       {"off_seconds", off.seconds},
       {"flow_seconds", flow.seconds},
       {"export_seconds", full.seconds},
       {"flow_overhead", flow_overhead},
       {"export_overhead", full_overhead},
       {"fingerprint_invariant", true}});
}
