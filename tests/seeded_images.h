// Seeded-fault firmware images shared by the health and observer tests. Each
// builds an adversarial image engineered (thresholds in health::HealthOptions)
// to trip exactly one health detector, or to reach one switcher error path
// that no shipped image exercises.
#ifndef TESTS_SEEDED_IMAGES_H_
#define TESTS_SEEDED_IMAGES_H_

#include <vector>

#include "src/firmware/image.h"
#include "tools/lint_targets.h"

namespace cheriot::seeded {

// Use-after-free: allocate, free, then load through the dangling capability
// with no error handler installed. One kTagViolation, freed provenance.
FirmwareImage Uaf();
// Trap storm: a tight loop of cross-compartment calls into a service that
// faults every time (and never reboots, never touches the heap).
FirmwareImage TrapStorm();
// Reboot loop: the faulting service's handler micro-reboots it each time.
FirmwareImage RebootLoop();
// Quota exhaustion: a 256-byte quota bounced off four times. No traps.
FirmwareImage Quota();
// Stuck board: the only thread blocks forever on a futex nobody signals.
FirmwareImage Deadlock();
// Revoker backlog: free five 16 KiB objects back-to-back so > 32 KiB sits in
// quarantine, then exit without another allocator call to drain it.
FirmwareImage RevokerBacklog();
// Forced unwind (§3.2.6 step 2): one thread sleeps inside `svc`; a second
// thread traps in `svc`, whose handler micro-reboots it, so the sleeper is
// woken and force-unwound out of `svc`.
FirmwareImage ForcedUnwind();

// All seven, named "seeded-<kind>", in declaration order.
const std::vector<tools::LintTarget>& SeededImages();

}  // namespace cheriot::seeded

#endif  // TESTS_SEEDED_IMAGES_H_
