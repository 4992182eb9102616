// Host-side cost of cheriot-trace (DESIGN.md §8): wall-clock time to run the
// same firmware image (a) untraced, (b) with the flight recorder + profiler
// on, and (c) with tracing on plus a full Chrome-trace/metrics/profile
// export. Guest cycles are identical in all three modes by construction —
// the cycle-model-invariance contract — and this bench hard-asserts that by
// comparing fingerprints before reporting any number. What tracing costs is
// host time only, and BENCH_trace_overhead.json records how much.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/provenance.h"
#include "src/sim/board.h"
#include "src/trace/export.h"
#include "src/trace/trace.h"
#include "tools/lint_targets.h"

namespace cheriot {
namespace {

constexpr Cycles kRunCycles = 2'000'000;

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

enum class Mode { kOff, kRing, kExport };

struct Result {
  double seconds = 0;
  uint64_t emitted = 0;
  sim::Board::Fingerprint fingerprint;
};

Result RunOnce(const tools::LintTarget& target, Mode mode) {
  sim::Board board(target.build(), sim::BoardOptions{});
  trace::TraceRecorder* rec = nullptr;
  if (mode != Mode::kOff) {
    rec = board.EnableTrace({});
  }
  const auto t0 = std::chrono::steady_clock::now();
  board.Boot();
  board.StepTo(kRunCycles);
  std::string exported;
  if (mode == Mode::kExport) {
    exported = trace::ChromeTrace(*rec).Dump(2);
    exported += trace::MetricsSnapshot(*rec).Dump(2);
    exported += trace::ProfileText(*rec);
    exported += trace::CollapsedStacksText(*rec);
  }
  Result r;
  r.seconds = SecondsSince(t0);
  r.emitted = rec ? rec->emitted() : 0;
  r.fingerprint = board.fingerprint();
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
  const char* json_path = "BENCH_trace_overhead.json";
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

  std::printf("=== cheriot-trace host overhead (%s, %llu guest cycles) ===\n",
              target->name.c_str(),
              static_cast<unsigned long long>(kRunCycles));
  const int runs = RunsPerSample(*target);
  Result off, ring, full;
  std::vector<double> off_s, ring_s, full_s;
  for (int i = 0; i < kSamples; ++i) {
    off_s.push_back(SamplePerRun(*target, Mode::kOff, runs, &off));
    ring_s.push_back(SamplePerRun(*target, Mode::kRing, runs, &ring));
    full_s.push_back(SamplePerRun(*target, Mode::kExport, runs, &full));
  }
  off.seconds = Median(off_s);
  ring.seconds = Median(ring_s);
  full.seconds = Median(full_s);
  std::printf("  (per-run medians of %d samples x %d runs)\n", kSamples, runs);

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

  FILE* f = std::fopen(json_path, "w");
  if (!f) {
    std::fprintf(stderr, "cannot write '%s': %s\n", json_path,
                 std::strerror(errno));
    return 1;
  }
  std::fprintf(f, "{\n%s", bench::ProvenanceJson().c_str());
  std::fprintf(f, "  \"bench\": \"trace_overhead\",\n");
  std::fprintf(f, "  \"unit\": \"host seconds for %llu guest cycles\",\n",
               static_cast<unsigned long long>(kRunCycles));
  std::fprintf(f, "  \"image\": \"%s\",\n", target->name.c_str());
  std::fprintf(f, "  \"events_emitted\": %llu,\n",
               static_cast<unsigned long long>(ring.emitted));
  std::fprintf(f, "  \"off_seconds\": %.6f,\n", off.seconds);
  std::fprintf(f, "  \"ring_seconds\": %.6f,\n", ring.seconds);
  std::fprintf(f, "  \"export_seconds\": %.6f,\n", full.seconds);
  std::fprintf(f, "  \"ring_overhead\": %.4f,\n", ring_overhead);
  std::fprintf(f, "  \"export_overhead\": %.4f,\n", full_overhead);
  std::fprintf(f, "  \"fingerprint_invariant\": true\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", json_path);
  return 0;
}
