// The image registry every `cheriot` command, test and bench resolves names
// against: every example and test image shipped in the repo, rebuilt
// structure-only (entry points are no-ops; the linter never runs guest
// code), plus the seeded images of cov_targets.h and mc_targets.h. Keeping
// the registry next to the tool means "sweep every image we ship" is one
// --all invocation, which is exactly what the CI image sweeps run.
#ifndef TOOLS_LINT_TARGETS_H_
#define TOOLS_LINT_TARGETS_H_

#include <functional>
#include <string>
#include <vector>

#include "src/firmware/image.h"

namespace cheriot::tools {

struct LintTarget {
  std::string name;         // CLI name, e.g. "iot-mqtt-app"
  std::string description;  // one line for --list-targets
  std::function<FirmwareImage()> build;
};

// All shipped images, sorted by name: what --all selects.
const std::vector<LintTarget>& LintTargets();

// The seeded images (CovSeededTargets, then McSeededTargets), sorted by
// name. Each is a known true positive, so they are addressed by name only
// and --all over the shipped images stays clean.
const std::vector<LintTarget>& SeededTargets();

// A shipped or seeded image by name; nullptr when unknown.
const LintTarget* FindTarget(const std::string& name);

}  // namespace cheriot::tools

#endif  // TOOLS_LINT_TARGETS_H_
