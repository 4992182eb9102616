// Seeded-bug firmware images for cheriot-mc: each contains one deliberate
// concurrency bug that only manifests under a non-default schedule, so the
// default run (and every other tool in the repo) sees them behave normally
// while `cheriot mc` must find the bug within a small preemption bound.
// They double as regression anchors: if a kernel change makes the explorer
// stop finding one of these, the explorer (or the kernel) regressed.
//
// The CI `image-sweeps` job runs these as expected-fail targets next to the
// shipped images (tools/lint_targets.h), which must all pass clean.
#ifndef TOOLS_MC_TARGETS_H_
#define TOOLS_MC_TARGETS_H_

#include <string>
#include <vector>

#include "tools/lint_targets.h"

namespace cheriot::tools {

// The seeded-bug images, sorted by name:
//   seeded-lost-wake   check-then-wait race: a flag and the futex word are
//                      distinct, so a wake delivered between the flag check
//                      and the wait is lost -> deadlock (1 forced choice)
//   seeded-quota-race  TOCTOU between HeapQuotaRemaining and HeapAllocate:
//                      a rival thread drains the quota in the window, the
//                      unchecked allocation result is stored through ->
//                      tag-violation trap (1 forced choice)
//   seeded-wake-order  two same-priority workers apply non-commutative
//                      updates in wake order; flipping the FIFO pop order
//                      changes the UART output -> divergence (1 forced
//                      choice)
// FindTarget (lint_targets.h) resolves them by name.
const std::vector<LintTarget>& McSeededTargets();

}  // namespace cheriot::tools

#endif  // TOOLS_MC_TARGETS_H_
