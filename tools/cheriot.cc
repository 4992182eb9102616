// cheriot: one tool for every question this repo asks of a firmware image.
//
//   cheriot <lint|trace|health|flow|cov|snap|mc> [--all | --target=NAME...]
//
// Every command resolves images through the one registry
// (tools/lint_targets.h: the shipped images plus the seeded ones) and shares
// flag parsing, file I/O and the exit contract (tools/registry_cli.h). The
// observer commands (trace, health, flow, cov) also share how an image is
// run and --check; each command below keeps only what it attaches, what it
// exports, its summary line and its own flags.
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "src/analysis/lint.h"
#include "src/cov/coverage.h"
#include "src/cov/report.h"
#include "src/flow/flow.h"
#include "src/health/forensics.h"
#include "src/health/monitor.h"
#include "src/mc/explorer.h"
#include "src/snap/diff.h"
#include "src/snap/snapshot.h"
#include "src/trace/export.h"
#include "src/trace/trace.h"
#include "tools/registry_cli.h"

using namespace cheriot;
using namespace cheriot::tools;

namespace {

// --- lint: pre-boot static analysis (DESIGN.md §7) --------------------------

// Identity of a finding for baseline matching. The path is deliberately not
// part of the key: a refactor that reroutes an authority path but keeps the
// same finding should not churn baselines.
std::string FindingKey(const std::string& rule, const std::string& subject,
                       const std::string& message) {
  return rule + "\x1f" + subject + "\x1f" + message;
}

json::Value ReadJson(const std::string& path) {
  const std::string text = ReadFile(path);
  try {
    return json::Parse(text);
  } catch (const std::exception& e) {
    throw std::runtime_error("bad JSON in " + path + ": " + e.what());
  }
}

std::set<std::string> LoadBaseline(const std::string& path) {
  std::set<std::string> keys;
  const json::Value doc = ReadJson(path);
  const json::Value& findings = doc["findings"];
  for (size_t i = 0; i < findings.size(); ++i) {
    const json::Value& f = findings[i];
    keys.insert(FindingKey(f["rule"].AsString(), f["subject"].AsString(),
                           f["message"].AsString()));
  }
  return keys;
}

void PrintFindings(const std::string& name,
                   const std::vector<analysis::Finding>& findings,
                   const std::set<std::string>* baseline, bool fix) {
  std::printf("== %s: %zu finding%s ==\n", name.c_str(), findings.size(),
              findings.size() == 1 ? "" : "s");
  for (const auto& f : findings) {
    const bool is_new =
        baseline != nullptr &&
        baseline->count(FindingKey(f.rule, f.subject, f.message)) == 0;
    std::printf("%s", is_new ? "NEW " : "");
    std::printf("[%s] %s %s: %s\n", f.severity.c_str(), f.rule.c_str(),
                f.name.c_str(), f.message.c_str());
    if (!f.path.empty()) {
      std::printf("        path: %s\n",
                  analysis::AuthorityGraph::RenderPath(f.path).c_str());
    }
    if (fix && !f.fix.empty()) {
      std::printf("        fix: %s\n", analysis::FixSuggestion(f).c_str());
    }
  }
}

// Error-level findings always fail; warnings/info missing from the baseline
// print as NEW but do not.
int Lint(Cli& cli) {
  analysis::LintOptions lint;
  for (const std::string& v : cli.Values("--restrict-mmio")) {
    for (std::string& device : SplitCsv(v)) {
      lint.restricted_mmio.push_back(std::move(device));
    }
  }
  std::string format = "text";
  std::string baseline_file;  // single-image baseline
  std::string baseline_dir;   // per-image baselines: DIR/<name>.json
  std::string coverage_file;  // CL010 evidence: a `cheriot cov` export
  cli.Text("--format", &format);
  cli.Text("--baseline", &baseline_file);
  cli.Text("--baseline-dir", &baseline_dir);
  cli.Text("--coverage", &coverage_file);
  const bool fix = cli.Has("--fix-suggestions");
  const bool update = cli.Has("--update-baselines");
  const std::vector<std::string> report_files = cli.Values("--report");
  const std::vector<const LintTarget*> targets =
      cli.Targets(/*required=*/report_files.empty());
  if (format != "text" && format != "json") {
    throw UsageError("unknown format " + format);
  }
  if (update && baseline_dir.empty()) {
    throw UsageError("--update-baselines requires --baseline-dir");
  }
  if (!baseline_file.empty() && targets.size() + report_files.size() > 1) {
    throw UsageError(
        "--baseline applies to a single image; use --baseline-dir");
  }

  // Owned here so LintOptions can point at it for every RunLints call.
  json::Value coverage;
  if (!coverage_file.empty()) {
    coverage = ReadJson(coverage_file);
    lint.coverage = &coverage;
  }
  std::vector<std::pair<std::string, json::Value>> reports;
  for (const LintTarget* t : targets) {
    reports.emplace_back(t->name, AuditReport(*t));
  }
  for (const std::string& file : report_files) {
    json::Value report = ReadJson(file);
    std::string name = report["firmware"].is_null()
                           ? file
                           : report["firmware"].AsString();
    reports.emplace_back(std::move(name), std::move(report));
  }

  bool any_errors = false;
  int total_new = 0;
  json::Array all_json;
  for (const auto& [name, report] : reports) {
    const std::vector<analysis::Finding> findings =
        analysis::RunLints(report, lint);
    const json::Value doc = analysis::FindingsToJson(report, findings);
    any_errors = any_errors || analysis::HasErrors(findings);
    if (update) {
      const std::string path = baseline_dir + "/" + name + ".json";
      WriteFile(path, doc.Dump(2) + "\n");
      std::fprintf(stderr, "wrote %s (%zu findings)\n", path.c_str(),
                   findings.size());
      continue;
    }
    std::string baseline_path = baseline_file;
    if (baseline_path.empty() && !baseline_dir.empty()) {
      baseline_path = baseline_dir + "/" + name + ".json";
    }
    std::set<std::string> baseline;
    if (!baseline_path.empty()) {
      baseline = LoadBaseline(baseline_path);
      for (const auto& f : findings) {
        if (baseline.count(FindingKey(f.rule, f.subject, f.message)) == 0) {
          ++total_new;
        }
      }
    }
    if (format == "json") {
      all_json.push_back(doc);
    } else {
      PrintFindings(name, findings,
                    baseline_path.empty() ? nullptr : &baseline, fix);
    }
  }
  if (format == "json" && !update) {
    // One document per image keeps single-image output stable; several
    // images are wrapped in an array.
    const json::Value out = all_json.size() == 1
                                ? all_json[0]
                                : json::Value(std::move(all_json));
    std::printf("%s\n", out.Dump(2).c_str());
  }
  if (total_new > 0) {
    std::fprintf(stderr, "cheriot lint: %d finding%s not in baseline\n",
                 total_new, total_new == 1 ? "" : "s");
  }
  return any_errors ? 1 : 0;
}

// --- trace: flight recorder and cycle profiler (DESIGN.md §8) --------------

std::vector<trace::ThreadStackStats> StatsFor(System& sys) {
  std::vector<trace::ThreadStackStats> out;
  for (const GuestThread& t : sys.threads()) {
    out.push_back({t.name, t.stack_size, t.peak_stack_bytes,
                   t.compartment_calls});
  }
  return out;
}

Exports TraceExports(const LintTarget& target, const Finished& run) {
  Exports e;
  std::string trace_json;
  std::string metrics_json;
  std::string profile;
  uint64_t events = 0;
  uint64_t dropped = 0;
  Cycles counter = 0;
  Cycles attributed = 0;
  // --check invariant: every guest cycle lands in exactly one profiler
  // bucket, so each board's attributed cycles equal its own cycle counter.
  auto attribute = [&](sim::Board& board, int index,
                       trace::TraceRecorder& tr) {
    const Cycles now = board.Now();
    const Cycles attr = tr.attributed_cycles();
    counter += now;
    attributed += attr;
    if (attr != now) {
      e.check_failures.push_back(
          Format("board %d attributed %llu != cycle counter %llu", index,
                 static_cast<unsigned long long>(attr),
                 static_cast<unsigned long long>(now)));
    }
  };
  if (run.board != nullptr) {
    trace::TraceRecorder& tr = *run.board->trace_recorder();
    attribute(*run.board, 0, tr);
    events = tr.emitted();
    dropped = tr.dropped();
    trace_json = trace::ChromeTrace(tr).Dump(2) + "\n";
    metrics_json =
        trace::MetricsSnapshot(tr, StatsFor(run.board->system())).Dump(2) +
        "\n";
    profile = trace::ProfileText(tr) + "\n" + trace::CollapsedStacksText(tr);
  } else {
    sim::Fleet& fleet = *run.fleet;
    trace_json =
        trace::MergedChromeTrace(fleet.TraceRecorders()).Dump(2) + "\n";
    json::Array metrics;
    for (trace::TraceRecorder* tr : fleet.TraceRecorders()) {
      std::vector<trace::ThreadStackStats> stats;
      if (tr->board_index() >= 0) {
        sim::Board& b = fleet.board(static_cast<size_t>(tr->board_index()));
        stats = StatsFor(b.system());
        attribute(b, tr->board_index(), *tr);
      }
      events += tr->emitted();
      dropped += tr->dropped();
      metrics.push_back(trace::MetricsSnapshot(*tr, stats));
      profile += trace::ProfileText(*tr) + "\n";
      profile += trace::CollapsedStacksText(*tr) + "\n";
    }
    metrics_json = json::Value(std::move(metrics)).Dump(2) + "\n";
  }
  e.files = {{"trace_" + target.name + ".json", std::move(trace_json)},
             {"metrics_" + target.name + ".json", std::move(metrics_json)},
             {"profile_" + target.name + ".txt", std::move(profile)}};
  e.summary = Format("%-26s %12llu cycles %8llu events (%llu dropped)\n",
                     target.name.c_str(),
                     static_cast<unsigned long long>(run.Now()),
                     static_cast<unsigned long long>(events),
                     static_cast<unsigned long long>(dropped));
  e.check_note = Format(", %llu/%llu cycles attributed",
                        static_cast<unsigned long long>(attributed),
                        static_cast<unsigned long long>(counter));
  return e;
}

int Trace(Cli& cli) {
  ObservedRun run = ObservedFlags(cli, /*default_fleet=*/0);
  run.recorders.trace = true;
  cli.Number("--ring", &run.recorders.trace_options.ring_capacity);
  return Observe(cli, run, TraceExports);
}

// --- health: crash forensics and fleet health (DESIGN.md §9) ----------------

Exports HealthExports(const LintTarget& target, const Finished& run,
                      bool scenes) {
  std::string health_json;
  std::string crash_txt;
  uint64_t crash_records = 0;
  uint64_t anomalies = 0;
  bool healthy = true;
  std::vector<std::pair<std::string, std::string>> scene_files;
  auto collect = [&](sim::Board& board, const std::string& prefix) {
    const health::BoardHealth h = health::AssessBoard(board);
    crash_records += h.crash_records;
    anomalies += h.anomalies.size();
    healthy = healthy && h.healthy;
    const health::ForensicsRecorder& recorder = *board.forensics_recorder();
    crash_txt += health::CrashDumpText(recorder);
    for (const auto& rec : recorder.Records()) {
      if (!rec.scene.empty()) {
        scene_files.emplace_back("scene_" + target.name + "_" + prefix +
                                     std::to_string(rec.seq) + ".snap",
                                 std::string(rec.scene.begin(),
                                             rec.scene.end()));
      }
    }
  };
  if (run.board != nullptr) {
    health_json = health::HealthReport(*run.board).Dump(2) + "\n";
    collect(*run.board, "");
  } else {
    health_json = health::FleetHealthReport(*run.fleet).Dump(2) + "\n";
    for (size_t i = 0; i < run.fleet->size(); ++i) {
      collect(run.fleet->board(i), Format("b%zu_", i));
      crash_txt += "\n";
    }
  }
  Exports e;
  e.files = {{"health_" + target.name + ".json", std::move(health_json)},
             {"crash_" + target.name + ".txt", std::move(crash_txt)}};
  if (scenes) {
    e.summary = Format("%-26s %zu crash scene(s) dumped\n",
                       target.name.c_str(), scene_files.size());
  }
  e.files.insert(e.files.end(), scene_files.begin(), scene_files.end());
  e.summary += Format(
      "%-26s %12llu cycles %5llu crash records %3llu anomalies  %s\n",
      target.name.c_str(), static_cast<unsigned long long>(run.Now()),
      static_cast<unsigned long long>(crash_records),
      static_cast<unsigned long long>(anomalies),
      healthy ? "healthy" : "UNHEALTHY");
  return e;
}

int Health(Cli& cli) {
  ObservedRun run = ObservedFlags(cli, /*default_fleet=*/0);
  run.recorders.forensics = true;
  health::ForensicsOptions& options = run.recorders.forensics_options;
  cli.Number("--ring", &options.ring_capacity);
  const bool scenes = cli.Has("--scenes");
  options.capture_crash_scene = scenes;
  return Observe(cli, run, [scenes](const LintTarget& t, const Finished& r) {
    return HealthExports(t, r, scenes);
  });
}

// --- flow and cov: fleet-level recorders (DESIGN.md §13, §14) ---------------

// Both always run a fleet (default 2 boards) with control MQTT publishes
// spread across the run.
ObservedRun FleetFlags(Cli& cli) {
  ObservedRun run = ObservedFlags(cli, /*default_fleet=*/2);
  run.publishes = 3;
  cli.Number("--publishes", &run.publishes);
  if (run.fleet < 1) {
    throw UsageError("--fleet must be at least 1");
  }
  return run;
}

Exports FlowExports(const LintTarget& target, const Finished& run) {
  flow::FlowRecorder& fr = *run.fleet->flow_recorder();
  Exports e;
  e.summary = Format(
      "%-26s %12llu cycles %6llu flows %6llu delivered %4llu dropped\n",
      target.name.c_str(), static_cast<unsigned long long>(run.Now()),
      static_cast<unsigned long long>(fr.flow_count()),
      static_cast<unsigned long long>(fr.deliveries()),
      static_cast<unsigned long long>(fr.drops()));
  e.files = {
      {"flow_" + target.name + ".json", fr.FlowTableJson().Dump(2) + "\n"},
      {"flowhist_" + target.name + ".json",
       fr.HistogramsJson().Dump(2) + "\n"},
      {"fleetmetrics_" + target.name + ".json",
       fr.MetricsJson().Dump(2) + "\n"}};
  return e;
}

int Flow(Cli& cli) {
  ObservedRun run = FleetFlags(cli);
  run.recorders.flow = true;
  cli.Number("--metrics-interval",
             &run.recorders.flow_options.metrics_interval);
  return Observe(cli, run, FlowExports);
}

// --report diffs the dynamic edge set against the §4 audit report into the
// least-privilege report; the coverage file also feeds lint rule CL010.
Exports CovExports(const LintTarget& target, const Finished& run,
                   bool report) {
  const std::vector<const cov::CovRecorder*> boards =
      run.fleet->CovRecorders();
  const std::string& image = run.fleet->board(0).system().boot().image.name;
  const std::string cov_json = cov::CoverageJson(image, boards).Dump(2) + "\n";
  uint64_t calls = 0;
  for (const cov::CovRecorder* r : boards) {
    calls += r->calls_recorded();
  }
  Exports e;
  e.files = {{"cov_" + target.name + ".json", cov_json}};
  std::string warnings;
  if (report) {
    const json::Value doc = cov::LeastPrivilegeJson(AuditReport(target),
                                                    json::Parse(cov_json));
    warnings =
        Format("  %lld warning(s)",
               static_cast<long long>(doc["summary"]["warnings"].AsInt()));
    e.files.emplace_back("covreport_" + target.name + ".json",
                         doc.Dump(2) + "\n");
    e.files.emplace_back("covreport_" + target.name + ".txt",
                         cov::LeastPrivilegeText(doc));
  }
  e.summary = Format("%-26s %12llu cycles %8llu calls%s\n",
                     target.name.c_str(),
                     static_cast<unsigned long long>(run.Now()),
                     static_cast<unsigned long long>(calls), warnings.c_str());
  return e;
}

int Cov(Cli& cli) {
  ObservedRun run = FleetFlags(cli);
  run.recorders.cov = true;
  run.recorders.cov_options.mmio_granules = !cli.Has("--no-granules");
  const bool report = cli.Has("--report");
  return Observe(cli, run, [report](const LintTarget& t, const Finished& r) {
    return CovExports(t, r, report);
  });
}

// --- snap: machine snapshots (DESIGN.md §10) --------------------------------

std::string FlagNames(uint32_t flags) {
  std::string out;
  auto add = [&out](const char* name) {
    if (!out.empty()) {
      out += ",";
    }
    out += name;
  };
  if (flags & snap::kHasReplayLog) add("replay-log");
  if (flags & snap::kHasTrace) add("trace");
  if (flags & snap::kHasForensics) add("forensics");
  if (flags & snap::kEmbedded) add("embedded");
  if (flags & snap::kHasCoverage) add("coverage");
  return out.empty() ? "none" : out;
}

const char* KindName(uint8_t kind) {
  switch (kind) {
    case snap::kBoard: return "board";
    case snap::kFleet: return "fleet";
    case snap::kScene: return "crash-scene";
  }
  return "unknown";
}

std::vector<uint8_t> ReadBlob(const std::string& path) {
  const std::string bytes = ReadFile(path);
  return std::vector<uint8_t>(bytes.begin(), bytes.end());
}

void PrintFingerprint(const char* label, const sim::Board::Fingerprint& f) {
  std::printf("%s %s\n", label, FingerprintText(f).c_str());
}

int SnapSave(const LintTarget& t, const std::string& out_path, Cycles cycles,
             int fleet_size, bool trace, bool forensics) {
  std::vector<uint8_t> blob;
  if (fleet_size > 0) {
    sim::FleetOptions options;
    options.trace = trace;
    options.forensics = forensics;
    sim::Fleet fleet(options);
    for (int i = 0; i < fleet_size; ++i) {
      fleet.AddBoard(t.build());
    }
    fleet.Boot();
    fleet.Run(cycles);
    fleet.Snapshot(blob);
    std::printf("%s: fleet of %d at cycle %llu -> %s (%zu bytes)\n",
                t.name.c_str(), fleet_size,
                static_cast<unsigned long long>(fleet.Now()),
                out_path.c_str(), blob.size());
  } else {
    sim::Board board(t.build(), {});
    if (trace) {
      board.EnableTrace();
    }
    if (forensics) {
      board.EnableForensics();
    }
    board.Boot();
    if (cycles > 0) {
      board.StepTo(cycles);
    }
    board.Snapshot(blob);
    PrintFingerprint("saved state:", board.fingerprint());
    std::printf("%s: board at cycle %llu -> %s (%zu bytes)\n",
                t.name.c_str(), static_cast<unsigned long long>(board.Now()),
                out_path.c_str(), blob.size());
  }
  WriteFile(out_path, std::string(blob.begin(), blob.end()));
  return 0;
}

// Restore self-verifies byte-for-byte; a mismatch throws snap::SnapshotError
// (exit 1).
int SnapRestore(const LintTarget& t, const std::string& in_path,
                Cycles cycles, int host_threads) {
  const std::vector<uint8_t> blob = ReadBlob(in_path);
  if (snap::Container::Parse(blob).kind == snap::kFleet) {
    auto fleet = sim::Fleet::Restore(
        blob, [&](int) { return t.build(); }, host_threads);
    std::printf("restored fleet of %zu at cycle %llu (verified)\n",
                fleet->size(), static_cast<unsigned long long>(fleet->Now()));
    if (cycles > 0) {
      fleet->Run(cycles);
    }
    for (const auto& f : fleet->Fingerprints()) {
      PrintFingerprint("  board:", f);
    }
  } else {
    auto board = sim::Board::Restore(blob, t.build());
    std::printf("restored board at cycle %llu (verified)\n",
                static_cast<unsigned long long>(board->Now()));
    if (cycles > 0) {
      board->StepTo(board->Now() + cycles);
    }
    PrintFingerprint("restored state:", board->fingerprint());
  }
  return 0;
}

int SnapInfo(const std::string& in_path) {
  const std::vector<uint8_t> blob = ReadBlob(in_path);
  const snap::Container c = snap::Container::Parse(blob);
  std::printf("%s: %s snapshot, flags [%s], %zu sections, %zu bytes\n",
              in_path.c_str(), KindName(c.kind), FlagNames(c.flags).c_str(),
              c.sections.size(), blob.size());
  for (const auto& s : c.sections) {
    std::printf("  %-4s %12zu bytes\n", snap::SectionName(s.id).c_str(),
                s.body.size());
  }
  return 0;
}

int SnapDiff(const std::string& a_path, const std::string& b_path) {
  const snap::BlobDiff d =
      snap::DiffBlobs(ReadBlob(a_path), ReadBlob(b_path));
  if (d.header_differs) {
    std::printf("header differs: %s\n", d.header_detail.c_str());
  }
  for (const snap::SectionDiff& sd : d.divergent) {
    if (sd.only_in_a || sd.only_in_b) {
      std::printf("  %-4s only in %s\n", sd.name.c_str(),
                  sd.only_in_a ? "A" : "B");
    } else {
      std::printf(
          "  %-4s differs at body byte %zu (abs %zu vs %zu; %zu vs %zu "
          "bytes)\n",
          sd.name.c_str(), sd.first_diff_offset, sd.abs_offset_a,
          sd.abs_offset_b, sd.size_a, sd.size_b);
    }
  }
  if (d.equal) {
    std::printf("snapshots identical\n");
  } else {
    std::printf("first divergence: %s\n", d.summary.c_str());
  }
  return d.equal ? 0 : 1;
}

int Snap(Cli& cli) {
  const std::string verb = cli.Word();
  std::string in_path;
  std::string out_path;
  std::string a_path;
  std::string b_path;
  cli.Text("--in", &in_path);
  cli.Text("--out", &out_path);
  cli.Text("--a", &a_path);
  cli.Text("--b", &b_path);
  // save: cycles to run before snapshotting; restore: extra cycles after.
  Cycles cycles = verb == "restore" ? 0 : 20'000'000;
  int fleet = 0;
  int host_threads = 1;
  cli.Number("--cycles", &cycles);
  cli.Number("--fleet", &fleet);
  cli.Number("--host-threads", &host_threads);
  const bool trace = cli.Has("--trace");
  const bool forensics = cli.Has("--forensics");
  const std::vector<const LintTarget*> targets =
      cli.Targets(/*required=*/false);
  if (verb == "save" && targets.size() == 1 && !out_path.empty()) {
    return SnapSave(*targets[0], out_path, cycles, fleet, trace, forensics);
  }
  if (verb == "restore" && targets.size() == 1 && !in_path.empty()) {
    return SnapRestore(*targets[0], in_path, cycles, host_threads);
  }
  if (verb == "info" && targets.empty() && !in_path.empty()) {
    return SnapInfo(in_path);
  }
  if (verb == "diff" && targets.empty() && !a_path.empty() &&
      !b_path.empty()) {
    return SnapDiff(a_path, b_path);
  }
  throw UsageError(verb.empty() ? "missing command word"
                                : verb + ": missing or extra arguments");
}

// --- mc: systematic concurrency exploration (DESIGN.md §12) -----------------

int Mc(Cli& cli) {
  mc::McOptions options;
  cli.Number("--max-schedules", &options.max_schedules);
  cli.Number("--preempt-bound", &options.preempt_bound);
  cli.Number("--cycles", &options.cycles);
  options.inject_faults = cli.Has("--inject-faults");
  std::string out_dir = ".";
  cli.Text("--out-dir", &out_dir);
  return cli.ForEachTarget([&](const LintTarget& t) {
    const mc::McReport report = mc::Explore(t.name, t.build, options);
    WriteFile(out_dir + "/mc_" + t.name + ".json",
              report.ToJson().Dump(2) + "\n");
    std::printf("%-26s %4d schedules %3d branch points %3d%% pruned  %s\n",
                t.name.c_str(), report.schedules_explored,
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
  });
}

// --- dispatch ----------------------------------------------------------------

constexpr const char kTargetFlags[] =
    "  --list-targets         list the shipped images, then the [seeded] ones\n"
    "  --all                  every shipped image (seeded ones are opt-in)\n"
    "  --target=NAME[,NAME]   images by name (repeatable)\n";

constexpr const char kObservedFlags[] =
    "  --cycles=N             guest cycles to run (default 20000000)\n"
    "  --host-threads=N       fleet worker threads (default 1; the artifacts\n"
    "                         are byte-identical for any value)\n"
    "  --out-dir=DIR          where to write artifacts (default .)\n"
    "  --check                verify the recorder moved no guest cycle on any\n"
    "                         board and, for fleets, that the artifacts are\n"
    "                         byte-identical at 1/2/4 worker threads\n"
    "  --inject-check-failure corrupt the last board's fingerprint before\n"
    "                         --check compares (exercises the failure path)\n";

struct Command {
  const char* name;
  const char* summary;  // one line for `cheriot --help`
  const char* usage;    // the command's own flags
  bool observed;        // also takes kObservedFlags
  int (*run)(Cli&);
};

constexpr Command kCommands[] = {
    {"lint", "pre-boot static analysis of each image's audit report",
     "  --report=FILE          lint an audit-report JSON from disk\n"
     "  --format=text|json     output format (default text)\n"
     "  --restrict-mmio=A,B    devices only direct importers may reach;\n"
     "                         transitive paths are CL003\n"
     "  --baseline=FILE        known-findings baseline (one image)\n"
     "  --baseline-dir=DIR     per-image baselines, DIR/<name>.json\n"
     "  --update-baselines     rewrite DIR/<name>.json instead of checking\n"
     "  --fix-suggestions      print the ImageBuilder call to delete for\n"
     "                         fixable findings\n"
     "  --coverage=FILE        a `cheriot cov` export: dynamic evidence for\n"
     "                         rule CL010 (without it the rule is silent)\n",
     false, Lint},
    {"trace", "flight recorder: Perfetto trace, cycle profile, metrics",
     "  --fleet=N              run N boards under the fabric and merge\n"
     "                         (default 0: one board)\n"
     "  --ring=N               ring capacity in events (default 65536)\n"
     "\n--check also verifies each board's attributed cycles == its cycle\n"
     "counter.\n"
     "artifacts: trace_<name>.json (Perfetto), profile_<name>.txt,\n"
     "           metrics_<name>.json\n",
     true, Trace},
    {"health", "crash forensics: health report and crash dump",
     "  --fleet=N              run N boards and emit the merged fleet\n"
     "                         report (default 0: one board)\n"
     "  --ring=N               crash-record ring capacity (default 256)\n"
     "  --scenes               capture a machine-state scene at each crash\n"
     "                         (inspect with `cheriot snap info/diff`)\n"
     "\nartifacts: health_<name>.json, crash_<name>.txt,\n"
     "           scene_<name>_*.snap (--scenes)\n",
     true, Health},
    {"flow", "fleet causal flows, latency histograms, metrics series",
     "  --fleet=N              boards in the fleet (default 2)\n"
     "  --publishes=N          control MQTT publishes (default 3)\n"
     "  --metrics-interval=N   metrics sampling cadence in cycles\n"
     "                         (default 1000000)\n"
     "\nartifacts: flow_<name>.json, flowhist_<name>.json,\n"
     "           fleetmetrics_<name>.json\n",
     true, Flow},
    {"cov", "authority coverage and the least-privilege report",
     "  --fleet=N              boards in the fleet (default 2)\n"
     "  --publishes=N          control MQTT publishes (default 3)\n"
     "  --no-granules          disable per-granule MMIO bitmaps\n"
     "  --report               also diff the static grants against the\n"
     "                         dynamic exercise\n"
     "\nartifacts: cov_<name>.json, covreport_<name>.{json,txt} (--report)\n",
     true, Cov},
    {"snap", "save, restore, inspect or diff machine snapshots",
     "\nverbs (the first argument):\n"
     "  save --target=NAME --out=FILE [--cycles=N] [--fleet=N] [--trace]\n"
     "       [--forensics]     run (default 20000000 cycles), snapshot\n"
     "  restore --target=NAME --in=FILE [--cycles=N] [--host-threads=N]\n"
     "                         rebuild and verify, then run N more cycles\n"
     "  info --in=FILE         header, flags and section sizes\n"
     "  diff --a=FILE --b=FILE byte-compare two blobs section by section\n",
     false, Snap},
    {"mc", "systematic schedule exploration for concurrency bugs",
     "  --max-schedules=N      schedule budget per image (default 256)\n"
     "  --preempt-bound=K      max non-default preemption choices per\n"
     "                         schedule (default 2)\n"
     "  --inject-faults        also branch on allocation failure and NIC\n"
     "                         frame loss\n"
     "  --cycles=N             guest cycles per schedule (default 2000000)\n"
     "  --out-dir=DIR          where to write mc_<name>.json (default .)\n",
     false, Mc},
};

void Usage(std::FILE* out) {
  std::fprintf(out, "usage: cheriot <command> [--all | --target=NAME] "
                    "[options]\n\ncommands:\n");
  for (const Command& c : kCommands) {
    std::fprintf(out, "  %-8s %s\n", c.name, c.summary);
  }
  std::fprintf(out,
               "\n`cheriot <command> --help` lists a command's options.\n"
               "exit: 0 ok; 1 a check, lint error, mc failure or snapshot\n"
               "verify/diff failed; 2 a usage, load or I/O failure\n");
}

void CommandUsage(const Command& c) {
  std::printf("usage: cheriot %s [options]\n\n%s%s%s", c.name, kTargetFlags,
              c.observed ? kObservedFlags : "", c.usage);
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  const Command* command = nullptr;
  for (const Command& c : kCommands) {
    if (!args.empty() && args[0] == c.name) {
      command = &c;
    }
  }
  if (command == nullptr) {
    const bool help = !args.empty() && (args[0] == "--help" || args[0] == "-h");
    if (!help && !args.empty()) {
      std::fprintf(stderr, "cheriot: unknown command '%s'\n", args[0].c_str());
    }
    Usage(help ? stdout : stderr);
    return help ? 0 : 2;
  }
  Cli cli(command->name, {args.begin() + 1, args.end()});
  if (cli.Has("--help") || cli.Has("-h")) {
    CommandUsage(*command);
    return 0;
  }
  if (cli.Has("--list-targets")) {
    ListTargets();
    return 0;
  }
  try {
    return command->run(cli);
  } catch (const UsageError& e) {
    std::fprintf(stderr, "cheriot %s: %s (see cheriot %s --help)\n",
                 command->name, e.what(), command->name);
  } catch (const snap::SnapshotError& e) {
    std::fprintf(stderr, "cheriot %s: %s\n", command->name, e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cheriot %s: %s\n", command->name, e.what());
  }
  return 2;
}
