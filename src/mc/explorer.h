// cheriot-mc: systematic concurrency exploration by prefix re-execution
// (DESIGN.md §12).
//
// Each schedule is a freshly constructed and booted board, run under a
// recording arbiter that forces a prefix of schedule choices and takes the
// default everywhere else. Execution is deterministic, so re-executing a
// prefix reproduces the run it came from. Every decision the kernel consults
// the arbiter about (src/kernel/schedule_arbiter.h) is a branch point;
// alternatives are enqueued into a frontier ordered by (non-default choice
// count, insertion order), so the first failing schedule found is a minimal
// reproduction.
//
// Partial-order reduction: while a schedule runs, a passive memory-access
// observer harvests per-thread read/write footprints (8-byte granules; all
// MMIO collapses to one always-written pseudo-granule). A sync-preempt
// alternative at decision i is pruned when the preempted thread's accesses
// after i conflict with no other thread's; a wake-order alternative is
// pruned when no two threads conflict after i at all. Only those two kinds
// are ever pruned — IRQ-delivery, quantum-preempt and multiwaiter choices
// interact with state the observer cannot see (interrupt futex words are
// bumped via raw stores) and are always explored. Each pruned alternative
// is credited 1 + the number of alternatives that branched later in the
// same run — a conservative lower bound on the subtree skipped.
//
// Oracles, all baseline-relative against schedule 0 (the default schedule):
//   deadlock    RunResult::kDeadlock where the default schedule had none
//   trap        a (cause, compartment) crash-record pair absent at baseline
//   health      a cheriot-health detector kind absent at baseline
//   divergence  guest-visible output (uart bytes/hash, reboots) differing
//               from baseline on a schedule whose non-default choices are
//               wake/multiwaiter order only — output that varies with wake
//               order is a real race (timing-kind schedules legitimately
//               interleave output differently and are not compared)
#ifndef SRC_MC_EXPLORER_H_
#define SRC_MC_EXPLORER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/firmware/image.h"
#include "src/json/json.h"
#include "src/kernel/schedule_arbiter.h"

namespace cheriot::mc {

inline constexpr int kMcSchemaVersion = 1;

struct McOptions {
  // Hard cap on schedules executed (including schedule 0).
  int max_schedules = 256;
  // Context bound: maximum non-default choices of the preemption kinds
  // (sync-preempt, preempt, irq-delivery) per schedule. Order and fault
  // kinds are not counted — they reorder, they do not add preemptions.
  int preempt_bound = 2;
  // Branch on fault-injection kinds (alloc-fail, nic-loss) too.
  bool inject_faults = false;
  // Guest cycles each schedule runs past the end of Boot().
  Cycles cycles = 2'000'000;
  // Cap on reported failures (exploration continues past it).
  int max_failures = 16;
};

// One recorded schedule decision.
struct Decision {
  DecisionKind kind = DecisionKind::kSyncPreempt;
  uint32_t subject = 0;
  int n_choices = 2;
  int chosen = 0;
};

// One forced choice in a reproduction recipe: at the `index`-th decision
// the kernel consults the arbiter about, answer `chosen` instead of 0.
struct ReproChoice {
  int index = 0;
  DecisionKind kind = DecisionKind::kSyncPreempt;
  uint32_t subject = 0;
  int chosen = 0;
};

struct Failure {
  std::string kind;    // "deadlock" | "trap" | "health" | "divergence"
  std::string detail;  // deterministic description
  int schedule = 0;    // schedule index that failed
  // The failing schedule's non-default choices (its reproduction recipe:
  // force exactly these, default everywhere else). Minimal by construction:
  // the frontier is ordered by non-default choice count, so the first
  // failing schedule found carries the fewest forced choices.
  std::vector<ReproChoice> repro;
  // Total decisions in the failing run (context for the repro indices).
  int decisions = 0;
};

struct McReport {
  std::string image;
  McOptions options;
  Cycles root_cycle = 0;  // guest clock after Boot(), where schedules start
  int schedules_explored = 0;
  int branch_points = 0;           // decisions with >1 eligible alternative
  uint64_t alternatives_enqueued = 0;
  uint64_t alternatives_pruned = 0;      // pruned alternative count
  uint64_t pruned_subtree_credit = 0;    // with suffix credit (see header)
  bool frontier_exhausted = false;  // explored everything within bounds
  std::string baseline_result;      // RunResult of schedule 0
  std::vector<Failure> failures;

  bool clean() const { return failures.empty(); }
  // Naive tree size estimate = explored + pruned credit; the pruned
  // fraction is pruned credit over that, in percent (integer, for
  // byte-stable reports).
  uint64_t naive_tree() const {
    return static_cast<uint64_t>(schedules_explored) + pruned_subtree_credit;
  }
  int pruned_pct() const {
    const uint64_t naive = naive_tree();
    return naive == 0
               ? 0
               : static_cast<int>(pruned_subtree_credit * 100 / naive);
  }
  // Byte-stable JSON (integers only, std::map key order).
  json::Value ToJson() const;
};

// Explores `image`'s schedule space. The factory is invoked once per
// schedule (each schedule boots a fresh board, which owns its image).
McReport Explore(const std::string& image_name,
                 const std::function<FirmwareImage()>& make_image,
                 const McOptions& options = {});

}  // namespace cheriot::mc

#endif  // SRC_MC_EXPLORER_H_
