// Snapshot/restore cost (DESIGN.md §10): serialization throughput, blob size
// and restore wall time for a representative mid-run board, plus the boot
// time every restore starts with (restore is boot, replay of the logged
// inputs, and a byte-for-byte verify, so the restore time includes all
// three); then the same for a 16-board fleet with every recorder on, whose
// blob nests each board's state and recorder sections in BRDS.
// BENCH_snapshot.json records the results with the usual provenance stamp.
#include <cstdio>
#include <vector>

#include "bench/harness.h"
#include "src/sim/board.h"
#include "src/sim/fleet.h"
#include "tools/lint_targets.h"

namespace cheriot {
namespace {

constexpr Cycles kRunCycles = 2'000'000;
constexpr int kFleetBoards = 16;
constexpr Cycles kFleetCycles = 40'000'000;

}  // namespace
}  // namespace cheriot

int main(int argc, char** argv) {
  using namespace cheriot;
  const bench::Output out("snapshot", argc, argv);
  bench::WarmUpCpu();

  const tools::LintTarget* target = tools::FindTarget("fleet-node");
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
  const double snap_s = bench::BestOf(
      5, [&] { return bench::Time([&] { board.Snapshot(blob); }); });
  const double snap_mbps = blob.size() / snap_s / 1e6;

  const double restore_s = bench::BestOf(3, [&] {
    return bench::Time([&] {
      auto restored = sim::Board::Restore(blob, target->build());
      bench::DoNotOptimize(restored);
    });
  });

  const double boot_s = bench::BestOf(5, [&] {
    return bench::Time([&] {
      sim::Board b(target->build(), {});
      b.Boot();
      bench::DoNotOptimize(b.Now());
    });
  });

  // A fleet with trace, forensics and coverage on, run past DHCP bring-up.
  sim::FleetOptions fleet_options;
  fleet_options.trace = fleet_options.forensics = fleet_options.cov = true;
  sim::Fleet fleet(fleet_options);
  for (int i = 0; i < kFleetBoards; ++i) {
    fleet.AddBoard(target->build());
  }
  fleet.Boot();
  fleet.Run(kFleetCycles);
  std::vector<uint8_t> fleet_blob;
  const double fleet_snap_s = bench::BestOf(
      5, [&] { return bench::Time([&] { fleet.Snapshot(fleet_blob); }); });
  const double fleet_restore_s = bench::BestOf(3, [&] {
    return bench::Time([&] {
      auto restored = sim::Fleet::Restore(
          fleet_blob, [&](int) { return target->build(); });
      bench::DoNotOptimize(restored);
    });
  });

  std::printf("  snapshot: %.4f s  (%zu bytes, %.1f MB/s)\n", snap_s,
              blob.size(), snap_mbps);
  std::printf("  restore:  %.4f s  (boot + replay + byte-for-byte verify)\n",
              restore_s);
  std::printf("  boot:     %.4f s  (loader)\n", boot_s);
  std::printf("  fleet of %d, every recorder on, %llu guest cycles:\n",
              kFleetBoards, static_cast<unsigned long long>(kFleetCycles));
  std::printf("    snapshot: %.4f s  (%zu bytes)\n", fleet_snap_s,
              fleet_blob.size());
  std::printf("    restore:  %.4f s\n", fleet_restore_s);

  return out.Write({{"image", target->name},
                    {"run_cycles", kRunCycles},
                    {"blob_bytes", blob.size()},
                    {"snapshot_seconds", snap_s},
                    {"snapshot_mb_per_sec", snap_mbps},
                    {"restore_seconds", restore_s},
                    {"boot_seconds", boot_s},
                    {"fleet_boards", kFleetBoards},
                    {"fleet_run_cycles", kFleetCycles},
                    {"fleet_blob_bytes", fleet_blob.size()},
                    {"fleet_snapshot_seconds", fleet_snap_s},
                    {"fleet_restore_seconds", fleet_restore_s}});
}
