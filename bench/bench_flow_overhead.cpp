// Host-side cost of cheriot-flow (DESIGN.md §13): wall-clock time to run the
// same 4-board fleet-node fleet (a) with flow recording off, (b) with the
// flow recorder on, and (c) with recording on plus a full flow-table /
// histogram / metrics export. Flow ids are assigned in all three modes —
// only recording is gated — so every board's guest cycles are identical by
// construction, and this bench hard-asserts that by comparing all four
// fingerprints before reporting any number. What flow tracing costs is host
// time only, and BENCH_flow_overhead.json records how much.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/provenance.h"
#include "src/flow/flow.h"
#include "src/sim/fleet.h"
#include "tools/lint_targets.h"

namespace cheriot {
namespace {

constexpr Cycles kRunCycles = 2'000'000;
constexpr int kBoards = 4;
constexpr int kControlPublishes = 3;

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

enum class Mode { kOff, kFlow, kExport };

struct Result {
  double seconds = 0;
  uint64_t flows = 0;
  uint64_t deliveries = 0;
  std::vector<sim::Board::Fingerprint> fingerprints;
};

Result RunOnce(const tools::LintTarget& target, Mode mode) {
  sim::FleetOptions fopts;
  fopts.flow = mode != Mode::kOff;
  sim::Fleet fleet(fopts);
  for (int i = 0; i < kBoards; ++i) {
    fleet.AddBoard(target.build());
  }
  const auto t0 = std::chrono::steady_clock::now();
  fleet.Boot();
  const Cycles chunk = kRunCycles / (kControlPublishes + 1);
  for (int i = 0; i <= kControlPublishes; ++i) {
    fleet.Run(chunk);
    if (i < kControlPublishes) {
      fleet.PublishMqtt("leds", {'c', 'm', 'd', static_cast<uint8_t>('0' + i)});
    }
  }
  std::string exported;
  if (mode == Mode::kExport) {
    flow::FlowRecorder* fr = fleet.flow_recorder();
    exported = fr->FlowTableJson().Dump(2);
    exported += fr->HistogramsJson().Dump(2);
    exported += fr->MetricsJson().Dump(2);
  }
  Result r;
  r.seconds = SecondsSince(t0);
  if (flow::FlowRecorder* fr = fleet.flow_recorder()) {
    r.flows = fr->flow_count();
    r.deliveries = fr->deliveries();
  }
  r.fingerprints = fleet.Fingerprints();
  benchmark::DoNotOptimize(exported);
  return r;
}

// One run takes well under a millisecond, too short a window to resolve a
// few percent, so a sample is a fixed number of back-to-back runs spanning
// at least kMinSampleSeconds, and a mode reports the per-run median over
// kSamples samples, interleaved with the other modes so drift hits all
// three alike.
constexpr double kMinSampleSeconds = 0.05;
constexpr int kSamples = 7;

// Runs per sample: enough off-mode runs to span kMinSampleSeconds, counted
// on a second pass (the first runs of a process are slower, cold).
int RunsPerSample(const tools::LintTarget& target) {
  int runs = 0;
  for (int pass = 0; pass < 2; ++pass) {
    runs = 0;
    for (double total = 0; total < kMinSampleSeconds; ++runs) {
      total += RunOnce(target, Mode::kOff).seconds;
    }
  }
  return runs;
}

// Per-run seconds of one sample; `last` keeps the final run's result.
double SamplePerRun(const tools::LintTarget& target, Mode mode, int runs,
                    Result* last) {
  double total = 0;
  for (int i = 0; i < runs; ++i) {
    *last = RunOnce(target, mode);
    total += last->seconds;
  }
  return total / runs;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

}  // namespace
}  // namespace cheriot

int main(int argc, char** argv) {
  using namespace cheriot;
  const char* json_path = "BENCH_flow_overhead.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    }
  }

  // Reach steady-state CPU frequency before timing anything.
  {
    volatile uint64_t sink = 0;
    const auto t0 = std::chrono::steady_clock::now();
    while (SecondsSince(t0) < 0.5) {
      for (int i = 0; i < 4096; ++i) {
        sink += i;
      }
    }
  }

  const tools::LintTarget* target = tools::FindLintTarget("fleet-node");
  if (!target) {
    std::fprintf(stderr, "lint target 'fleet-node' missing\n");
    return 1;
  }

  std::printf(
      "=== cheriot-flow host overhead (%s x%d, %llu guest cycles) ===\n",
      target->name.c_str(), kBoards,
      static_cast<unsigned long long>(kRunCycles));
  const int runs = RunsPerSample(*target);
  Result off, flow, full;
  std::vector<double> off_s, flow_s, full_s;
  for (int i = 0; i < kSamples; ++i) {
    off_s.push_back(SamplePerRun(*target, Mode::kOff, runs, &off));
    flow_s.push_back(SamplePerRun(*target, Mode::kFlow, runs, &flow));
    full_s.push_back(SamplePerRun(*target, Mode::kExport, runs, &full));
  }
  off.seconds = Median(off_s);
  flow.seconds = Median(flow_s);
  full.seconds = Median(full_s);
  std::printf("  (per-run medians of %d samples x %d runs)\n", kSamples, runs);

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

  FILE* f = std::fopen(json_path, "w");
  if (!f) {
    std::fprintf(stderr, "cannot write '%s': %s\n", json_path,
                 std::strerror(errno));
    return 1;
  }
  std::fprintf(f, "{\n%s", bench::ProvenanceJson().c_str());
  std::fprintf(f, "  \"bench\": \"flow_overhead\",\n");
  std::fprintf(f, "  \"unit\": \"host seconds for %llu guest cycles\",\n",
               static_cast<unsigned long long>(kRunCycles));
  std::fprintf(f, "  \"image\": \"%s\",\n", target->name.c_str());
  std::fprintf(f, "  \"boards\": %d,\n", kBoards);
  std::fprintf(f, "  \"flows\": %llu,\n",
               static_cast<unsigned long long>(flow.flows));
  std::fprintf(f, "  \"deliveries\": %llu,\n",
               static_cast<unsigned long long>(flow.deliveries));
  std::fprintf(f, "  \"off_seconds\": %.6f,\n", off.seconds);
  std::fprintf(f, "  \"flow_seconds\": %.6f,\n", flow.seconds);
  std::fprintf(f, "  \"export_seconds\": %.6f,\n", full.seconds);
  std::fprintf(f, "  \"flow_overhead\": %.4f,\n", flow_overhead);
  std::fprintf(f, "  \"export_overhead\": %.4f,\n", full_overhead);
  std::fprintf(f, "  \"fingerprint_invariant\": true\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", json_path);
  return 0;
}
