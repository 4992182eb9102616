// cheriot-lint: whole-image static analysis passes over the authority graph
// and the audit report. Every rule runs pre-boot, from linker metadata
// alone (§4) — the linter never executes guest code.
//
// Rule catalog (stable IDs; see DESIGN.md §7):
//   CL001 transitive-mmio-reachability  (info)    compartment reaches an MMIO
//         region only through other compartments' exports
//   CL002 sealing-key-confinement       (error)   a sealing key for one
//         virtual type is held by more than one compartment
//   CL003 confused-deputy-path          (error)   a compartment reaches a
//         *restricted* MMIO region transitively without importing it
//   CL004 quota-feasibility             (warning/error) allocation quotas
//         overcommit the heap (warning); a single quota exceeds it (error)
//   CL005 dead-export                   (warning) an export with no call
//         importers and no thread entering it
//   CL006 redundant-import              (warning) the same import declared
//         twice by one compartment (e.g. the same MMIO region)
//   CL007 stack-depth                   (warning) the static call graph can
//         exceed a thread's trusted-stack frames or stack bytes; also flags
//         call-graph cycles (statically unbounded depth)
//   CL008 duplicate-export              (error)   one compartment or library
//         exports the same function name twice (ambiguous linkage)
//   CL009 interrupt-posture             (warning/info) a compartment outside
//         the trusted allowlist can invoke an interrupts-disabled export
//         (directly = warning; only through other compartments = info).
//         Interrupt-disabled sentries are availability authority (§2.1): the
//         caller stalls the whole board's scheduler for the export's
//         duration, so who can reach one is an auditable property
//   CL010 unused-authority             (warning/info) a static grant (call,
//         library or MMIO import; allocation capability; sealing key) was
//         never exercised in a coverage run (src/cov evidence, §14). The one
//         evidence-driven rule: it only runs when LintOptions.coverage is
//         supplied, so plain lint output is unchanged. Unexercised call/
//         library/MMIO grants warn only when the holder was *active* (used
//         some other authority of its own); alloc-cap and sealing-key
//         findings are always info
#ifndef SRC_ANALYSIS_LINT_H_
#define SRC_ANALYSIS_LINT_H_

#include <string>
#include <vector>

#include "src/analysis/authority_graph.h"
#include "src/json/json.h"

namespace cheriot::analysis {

struct Finding {
  std::string rule;      // "CL003"
  std::string name;      // "confused-deputy-path"
  std::string severity;  // "error" | "warning" | "info"
  std::string subject;   // the offending compartment/export/resource
  std::string message;   // human-readable, deterministic
  std::vector<std::string> path;  // authority path (node ids), may be empty
  std::string fix;       // exact ImageBuilder call to delete (CL005/CL006)
};

struct LintOptions {
  // MMIO devices only direct importers may reach. Any transitive-only path
  // to one of these is a CL003 error (the seeded confused-deputy check).
  std::vector<std::string> restricted_mmio;
  // Compartments/libraries whose unreferenced exports are expected: the TCB
  // service surface is linked into every image whether used or not.
  std::vector<std::string> dead_export_exempt = {"alloc", "sched", "token"};
  // CL009: compartments trusted to invoke interrupts-disabled exports (bare
  // names). Anything else that can reach one is flagged.
  std::vector<std::string> interrupt_posture_allowlist;
  // CL009: owners whose interrupts-disabled exports are the expected TCB
  // service surface — every compartment calls these by design.
  std::vector<std::string> posture_exempt_owners = {"alloc", "sched", "token"};
  // CL010: optional dynamic evidence — a parsed cov_<image>.json document
  // (`cheriot cov`, src/cov/report.h). Null (the default) disables the
  // rule entirely; evidence for a different image yields a single info
  // finding instead of a diff.
  const json::Value* coverage = nullptr;
};

// Runs all lint passes over a BuildReport() document. Findings are sorted
// by (severity rank, rule, subject, message) — errors first — and are
// byte-stable across runs.
std::vector<Finding> RunLints(const json::Value& report,
                              const LintOptions& options = {});

bool HasErrors(const std::vector<Finding>& findings);

// Stable JSON document: {schema_version, image, counts, findings:[...]}.
json::Value FindingsToJson(const json::Value& report,
                           const std::vector<Finding>& findings);
// Human-readable listing, one finding per paragraph.
std::string FindingsToText(const json::Value& report,
                           const std::vector<Finding>& findings);

// For CL005/CL006 findings: the exact ImageBuilder call to delete. Returns
// an empty string for rules with no mechanical fix.
std::string FixSuggestion(const Finding& finding);

}  // namespace cheriot::analysis

#endif  // SRC_ANALYSIS_LINT_H_
