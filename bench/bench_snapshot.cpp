// Snapshot/restore cost (DESIGN.md §10): serialization throughput, blob size
// and restore wall time for a representative mid-run board, plus the boot
// time every restore starts with (restore is boot, replay of the logged
// inputs, and a byte-for-byte verify, so the restore time includes all
// three). BENCH_snapshot.json records the results with the usual provenance
// stamp.
#include <benchmark/benchmark.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/provenance.h"
#include "src/sim/board.h"
#include "tools/lint_targets.h"

namespace cheriot {
namespace {

constexpr Cycles kRunCycles = 2'000'000;

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

template <typename Fn>
double BestOf(int runs, Fn&& fn) {
  double best = 0;
  for (int i = 0; i < runs; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const double s = SecondsSince(t0);
    if (i == 0 || s < best) {
      best = s;
    }
  }
  return best;
}

}  // namespace
}  // namespace cheriot

int main(int argc, char** argv) {
  using namespace cheriot;
  const char* json_path = "BENCH_snapshot.json";
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

  std::printf("=== snapshot/restore cost (%s, %llu guest cycles) ===\n",
              target->name.c_str(),
              static_cast<unsigned long long>(kRunCycles));

  // Mid-run board: snapshot throughput + restore time.
  sim::Board board(target->build(), {});
  board.Boot();
  board.StepTo(kRunCycles);
  std::vector<uint8_t> blob;
  const double snap_s = BestOf(5, [&] { board.Snapshot(blob); });
  const double snap_mbps = blob.size() / snap_s / 1e6;

  const double restore_s = BestOf(3, [&] {
    auto restored = sim::Board::Restore(blob, target->build());
    benchmark::DoNotOptimize(restored);
  });

  const double boot_s = BestOf(5, [&] {
    sim::Board b(target->build(), {});
    b.Boot();
    benchmark::DoNotOptimize(b.Now());
  });

  std::printf("  snapshot: %.4f s  (%zu bytes, %.1f MB/s)\n", snap_s,
              blob.size(), snap_mbps);
  std::printf("  restore:  %.4f s  (boot + replay + byte-for-byte verify)\n",
              restore_s);
  std::printf("  boot:     %.4f s  (loader)\n", boot_s);

  FILE* f = std::fopen(json_path, "w");
  if (!f) {
    std::fprintf(stderr, "cannot write '%s': %s\n", json_path,
                 std::strerror(errno));
    return 1;
  }
  std::fprintf(f, "{\n%s", bench::ProvenanceJson().c_str());
  std::fprintf(f, "  \"bench\": \"snapshot\",\n");
  std::fprintf(f, "  \"image\": \"%s\",\n", target->name.c_str());
  std::fprintf(f, "  \"run_cycles\": %llu,\n",
               static_cast<unsigned long long>(kRunCycles));
  std::fprintf(f, "  \"blob_bytes\": %zu,\n", blob.size());
  std::fprintf(f, "  \"snapshot_seconds\": %.6f,\n", snap_s);
  std::fprintf(f, "  \"snapshot_mb_per_sec\": %.2f,\n", snap_mbps);
  std::fprintf(f, "  \"restore_seconds\": %.6f,\n", restore_s);
  std::fprintf(f, "  \"boot_seconds\": %.6f\n}\n", boot_s);
  std::fclose(f);
  std::printf("wrote %s\n", json_path);
  return 0;
}
