// cheriot_mc: systematic concurrency exploration over a firmware image
// (src/mc/explorer.h). Explores the schedule space by prefix re-execution:
// each schedule boots a fresh board and runs it under a recording arbiter —
// quantum preemptions, IRQ delivery slots, futex wake order,
// multiwaiter completion order and (with --inject-faults) allocation
// failures and NIC frame loss are all branch points. Partial-order
// reduction prunes preemptions whose footprints cannot conflict. Failing
// schedules are reported with a minimal reproduction recipe (the frontier
// is explored in non-default-choice order, so the first hit is minimal).
//
// Targets come from the shipped-image registry (tools/lint_targets.h) plus
// the seeded-bug images (tools/mc_targets.h): the CI mc-images job runs the
// shipped set expecting clean and the seeded set expecting failures.
//
// Per-target artifact: mc_<name>.json — byte-stable (integers only, sorted
// keys), so reports diff cleanly across runs and machines.
//
// Exit codes: 0 all targets clean, 1 at least one failure found, 2 usage
// or load failure.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/mc/explorer.h"
#include "tools/mc_targets.h"

using namespace cheriot;
using cheriot::tools::FindMcTarget;
using cheriot::tools::LintTargets;
using cheriot::tools::McSeededTargets;

namespace {

struct CliOptions {
  std::vector<std::string> targets;
  bool all = false;            // all shipped images (not the seeded ones)
  bool list = false;
  mc::McOptions mc;
  std::string out_dir = ".";
};

void Usage(std::FILE* out) {
  std::fprintf(out,
               "usage: cheriot_mc [--all | --target=NAME[,NAME...]]"
               " [options]\n"
               "\n"
               "  --list-targets      list firmware images (shipped + seeded)\n"
               "  --all               explore every shipped image\n"
               "  --target=NAME       explore one image (repeatable; seeded\n"
               "                      bug images are addressed by name)\n"
               "  --max-schedules=N   schedule budget per image (default "
               "256)\n"
               "  --preempt-bound=K   max non-default preemption choices per\n"
               "                      schedule (default 2)\n"
               "  --inject-faults     also branch on allocation failure and\n"
               "                      NIC frame loss\n"
               "  --cycles=N          guest cycles per schedule (default "
               "2000000)\n"
               "  --out-dir=DIR       where to write mc_<name>.json "
               "(default .)\n");
}

std::vector<std::string> SplitCsv(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) {
      out.push_back(item);
    }
  }
  return out;
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cheriot_mc: cannot write %s\n", path.c_str());
    return false;
  }
  out << text;
  return true;
}

// Runs one target; returns false when the explorer found failures.
bool RunTarget(const tools::LintTarget& target, const CliOptions& opts) {
  const mc::McReport report = mc::Explore(target.name, target.build, opts.mc);
  const std::string path = opts.out_dir + "/mc_" + target.name + ".json";
  if (!WriteFile(path, report.ToJson().Dump(2) + "\n")) {
    return false;
  }
  std::printf("%-26s %4d schedules %3d branch points %3d%% pruned  %s\n",
              target.name.c_str(), report.schedules_explored,
              report.branch_points, report.pruned_pct(),
              report.clean() ? "clean" : "FAILURES");
  for (const auto& f : report.failures) {
    std::printf("  [%s] schedule %d (%zu forced choice%s): %s\n",
                f.kind.c_str(), f.schedule, f.repro.size(),
                f.repro.size() == 1 ? "" : "s", f.detail.c_str());
    for (const auto& r : f.repro) {
      std::printf("    force decision %d (%s, subject %u) -> choice %d\n",
                  r.index, DecisionKindName(r.kind), r.subject, r.chosen);
    }
  }
  return report.clean();
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&arg](const char* flag) -> const char* {
      const size_t n = std::strlen(flag);
      return arg.compare(0, n, flag) == 0 ? arg.c_str() + n : nullptr;
    };
    if (arg == "--list-targets") {
      opts.list = true;
    } else if (arg == "--all") {
      opts.all = true;
    } else if (arg == "--inject-faults") {
      opts.mc.inject_faults = true;
    } else if (const char* v = value("--target=")) {
      for (auto& t : SplitCsv(v)) {
        opts.targets.push_back(t);
      }
    } else if (const char* v = value("--max-schedules=")) {
      opts.mc.max_schedules = std::atoi(v);
    } else if (const char* v = value("--preempt-bound=")) {
      opts.mc.preempt_bound = std::atoi(v);
    } else if (const char* v = value("--cycles=")) {
      opts.mc.cycles = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--out-dir=")) {
      opts.out_dir = v;
    } else if (arg == "--help" || arg == "-h") {
      Usage(stdout);
      return 0;
    } else {
      std::fprintf(stderr, "cheriot_mc: unknown option %s\n", arg.c_str());
      Usage(stderr);
      return 2;
    }
  }

  if (opts.list) {
    for (const auto& t : LintTargets()) {
      std::printf("%-26s %s\n", t.name.c_str(), t.description.c_str());
    }
    for (const auto& t : McSeededTargets()) {
      std::printf("%-26s [seeded bug] %s\n", t.name.c_str(),
                  t.description.c_str());
    }
    return 0;
  }
  if (opts.all) {
    for (const auto& t : LintTargets()) {
      opts.targets.push_back(t.name);
    }
  }
  if (opts.targets.empty()) {
    Usage(stderr);
    return 2;
  }

  bool clean = true;
  for (const auto& name : opts.targets) {
    const tools::LintTarget* t = FindMcTarget(name);
    if (t == nullptr) {
      std::fprintf(stderr,
                   "cheriot_mc: unknown target '%s' (--list-targets)\n",
                   name.c_str());
      return 2;
    }
    try {
      clean = RunTarget(*t, opts) && clean;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "cheriot_mc: %s failed: %s\n", name.c_str(),
                   e.what());
      return 2;
    }
  }
  return clean ? 0 : 1;
}
