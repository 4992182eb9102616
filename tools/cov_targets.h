// Seeded over-privileged image for `cheriot cov` and the CL010 tests: a
// firmware whose static grant table is deliberately wider than its dynamic
// behaviour, so the least-privilege report and lint rule CL010 have a known
// true positive (a dead call import and an untouched MMIO window) to flag.
// Kept out of lint_targets.cc so --all over the shipped registry stays
// clean-by-construction.
#ifndef TOOLS_COV_TARGETS_H_
#define TOOLS_COV_TARGETS_H_

#include "tools/lint_targets.h"

namespace cheriot::tools {

// The seeded images, sorted by name (currently just cov-overprivileged).
// FindTarget (lint_targets.h) resolves them by name.
const std::vector<LintTarget>& CovSeededTargets();

}  // namespace cheriot::tools

#endif  // TOOLS_COV_TARGETS_H_
