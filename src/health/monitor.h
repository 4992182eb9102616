// cheriot-health fleet monitor: a host-side observer over Board/Fleet that
// folds trace + forensics streams and the allocator's native provenance
// counters into per-board health state, runs deterministic anomaly detectors
// and renders a schema-versioned JSON health report (DESIGN.md §9).
//
// Everything here is pure observation over already-simulated state: the
// monitor never steps a board, never ticks a clock and never reads simulated
// memory. Reports are a pure function of guest history, so the merged fleet
// report is byte-identical for any host worker count.
#ifndef SRC_HEALTH_MONITOR_H_
#define SRC_HEALTH_MONITOR_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/base/types.h"
#include "src/health/forensics.h"
#include "src/json/json.h"
#include "src/sim/board.h"
#include "src/sim/fleet.h"

namespace cheriot::health {

// Bump on any report shape change; consumers gate on this.
inline constexpr int kHealthSchemaVersion = 1;

enum class Detector : uint8_t {
  kStuckBoard = 0,      // scheduler idle with no future event (deadlock)
  kTrapStorm = 1,       // sustained trap rate above threshold
  kQuotaExhaustion = 2, // a compartment repeatedly bouncing off its quota
  kRevokerBacklog = 3,  // quarantine holding more bytes than the revoker
                        // is draining
  kRebootLoop = 4,      // a compartment micro-rebooting in a tight loop
  kUseAfterFree = 5,    // a crash through a freed/revoked heap object
};

const char* DetectorName(Detector d);

struct HealthOptions {
  // Trap storm: more than this many traps per million guest cycles, with at
  // least `trap_storm_min_traps` observed (so a single startup fault on a
  // short run cannot trip the rate detector).
  double trap_storm_per_mcycle = 50.0;
  uint64_t trap_storm_min_traps = 8;
  // Quota exhaustion: one compartment denied an allocation at least this
  // many times.
  uint64_t quota_exhaustion_min = 3;
  // Revoker backlog: bytes sitting in quarantine at assessment time.
  Word revoker_backlog_bytes = 32 * 1024;
  // Reboot loop: this many micro-reboots of one compartment inside the
  // window (guest cycles).
  uint32_t reboot_loop_min = 3;
  Cycles reboot_loop_window = 2'000'000;
};

struct Anomaly {
  Detector detector = Detector::kStuckBoard;
  int compartment = -1;  // -1 = board-wide
  std::string detail;    // deterministic, human-readable
};

// Folded per-board health state.
struct BoardHealth {
  int board = 0;
  bool healthy = true;
  std::vector<Anomaly> anomalies;  // fixed detector order, then compartment
  bool deadlocked = false;
  Cycles now = 0;
  uint64_t traps = 0;
  Cycles idle_cycles = 0;
  uint32_t reboots = 0;
  uint64_t crash_records = 0;
  uint64_t forced_unwinds = 0;
  uint64_t use_after_free_crashes = 0;
  uint64_t quota_exhaustions = 0;
  uint64_t allocations = 0;
  Word heap_live_bytes = 0;
  Word heap_quarantined_bytes = 0;
};

// Folds the board's switcher/scheduler/allocator counters and (when enabled)
// its forensics stream into health state and runs every detector. Works with
// or without an attached ForensicsRecorder; the forensics-fed detectors
// (quota-exhaustion, reboot-loop, use-after-free) need one to fire.
BoardHealth AssessBoard(sim::Board& board, const HealthOptions& options = {});

// Schema-versioned JSON health report for one board: health state, anomaly
// list, counters, per-compartment reboot history and the full crash-record
// ring, names resolved. Byte-identical for identical guest histories.
json::Value HealthReport(sim::Board& board, const HealthOptions& options = {});

// Merged fleet report: fleet-level rollups plus per-board reports in board
// index order. Byte-identical for any host worker count.
json::Value FleetHealthReport(sim::Fleet& fleet,
                              const HealthOptions& options = {});

// Human-readable crash dump of every record in the ring (the "crash_<image>"
// artifact written by `cheriot health`).
std::string CrashDumpText(const ForensicsRecorder& recorder);

}  // namespace cheriot::health

#endif  // SRC_HEALTH_MONITOR_H_
