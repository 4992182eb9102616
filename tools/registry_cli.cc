#include "tools/registry_cli.h"

#include <charconv>
#include <cstdarg>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iterator>
#include <sstream>

#include "src/audit/report.h"
#include "src/kernel/system.h"

namespace cheriot::tools {

bool Cli::Has(const std::string& flag) {
  bool found = false;
  for (size_t i = 0; i < args_.size(); ++i) {
    if (args_[i] == flag) {
      used_[i] = true;
      found = true;
    }
  }
  return found;
}

std::vector<std::string> Cli::Values(const std::string& flag) {
  const std::string prefix = flag + "=";
  std::vector<std::string> out;
  for (size_t i = 0; i < args_.size(); ++i) {
    if (args_[i].compare(0, prefix.size(), prefix) == 0) {
      used_[i] = true;
      out.push_back(args_[i].substr(prefix.size()));
    }
  }
  return out;
}

std::vector<std::string> Cli::Names(const std::string& flag) {
  std::vector<std::string> out;
  for (const std::string& v : Values(flag)) {
    for (std::string& name : SplitCsv(v)) {
      out.push_back(std::move(name));
    }
  }
  return out;
}

bool Cli::Text(const std::string& flag, std::string* out) {
  std::vector<std::string> v = Values(flag);
  if (v.empty()) {
    return false;
  }
  *out = std::move(v.back());
  return true;
}

uint64_t Cli::Decimal(const std::string& flag, const std::string& v,
                      uint64_t max) {
  uint64_t n = 0;
  const char* end = v.data() + v.size();
  if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos ||
      std::from_chars(v.data(), end, n).ec != std::errc() || n > max) {
    throw UsageError(flag + "=" + v + ": expected a decimal number up to " +
                     std::to_string(max));
  }
  return n;
}

std::string Cli::Word() {
  if (args_.empty() || used_[0] || args_[0].empty() || args_[0][0] == '-') {
    return "";
  }
  used_[0] = true;
  return args_[0];
}

void Cli::RejectUnused() const {
  for (size_t i = 0; i < args_.size(); ++i) {
    if (!used_[i]) {
      throw UsageError("unknown option " + args_[i]);
    }
  }
}

std::vector<const LintTarget*> Cli::Targets(bool required) {
  const bool all = Has("--all");
  const std::vector<std::string> names = Names("--target");
  RejectUnused();
  std::vector<const LintTarget*> out;
  if (all) {
    for (const LintTarget& t : LintTargets()) {
      out.push_back(&t);
    }
  }
  for (const std::string& name : names) {
    const LintTarget* t = FindTarget(name);
    if (t == nullptr) {
      throw UsageError("unknown target '" + name + "' (--list-targets)");
    }
    out.push_back(t);
  }
  if (required && out.empty()) {
    throw UsageError("no image selected (--all or --target=NAME)");
  }
  return out;
}

int Cli::ForEachTarget(
    const std::function<bool(const LintTarget&)>& run_target) {
  bool ok = true;
  for (const LintTarget* t : Targets()) {
    try {
      ok = run_target(*t) && ok;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "cheriot %s: %s: %s\n", command_.c_str(),
                   t->name.c_str(), e.what());
      return 2;
    }
  }
  return ok ? 0 : 1;
}

void ListTargets() {
  for (const LintTarget& t : LintTargets()) {
    std::printf("%-26s %s\n", t.name.c_str(), t.description.c_str());
  }
  for (const LintTarget& t : SeededTargets()) {
    std::printf("%-26s [seeded] %s\n", t.name.c_str(), t.description.c_str());
  }
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

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  if (!out) {
    throw std::runtime_error("cannot write " + path);
  }
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string bytes{std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>()};
  if (!in.is_open()) {
    throw std::runtime_error("cannot read " + path);
  }
  return bytes;
}

std::string FingerprintText(const sim::Board::Fingerprint& f) {
  return Format(
      "now=%llu accesses=%llu cap=%llu/%llu traps=%llu idle=%llu"
      " uart=%llu/%016llx reboots=%u",
      static_cast<unsigned long long>(f.now),
      static_cast<unsigned long long>(f.accesses),
      static_cast<unsigned long long>(f.cap_loads),
      static_cast<unsigned long long>(f.cap_stores),
      static_cast<unsigned long long>(f.traps),
      static_cast<unsigned long long>(f.idle_cycles),
      static_cast<unsigned long long>(f.uart_bytes),
      static_cast<unsigned long long>(f.uart_hash), f.reboots);
}

std::string Format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out(n > 0 ? static_cast<size_t>(n) : 0, '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  va_end(args);
  return out;
}

json::Value AuditReport(const LintTarget& target) {
  Machine machine;
  System sys(machine, target.build());
  sys.Boot();
  return audit::BuildReport(sys.boot());
}

// --- Observed runs ---------------------------------------------------------

ObservedRun ObservedFlags(Cli& cli, int default_fleet) {
  ObservedRun run;
  run.fleet = default_fleet;
  cli.Number("--cycles", &run.cycles);
  cli.Number("--fleet", &run.fleet);
  cli.Number("--host-threads", &run.recorders.host_threads);
  cli.Text("--out-dir", &run.out_dir);
  run.check = cli.Has("--check");
  run.inject_check_failure = cli.Has("--inject-check-failure");
  return run;
}

namespace {

struct Outcome {
  std::vector<sim::Board::Fingerprint> fingerprints;
  Exports exports;  // empty with the recorders off
};

// One deterministic run of `target`: the same schedule whether the
// recorders are on or off and at any worker count, so every --check step
// compares like with like.
Outcome RunOnce(const LintTarget& target, const ObservedRun& run,
              bool recorders, int host_threads, const ExportFn& exports) {
  sim::FleetOptions options = run.recorders;
  options.host_threads = host_threads;
  if (!recorders) {
    options.trace = options.forensics = options.flow = options.cov = false;
  }
  Outcome o;
  if (run.fleet == 0) {
    sim::Board board(target.build(), {});
    if (options.trace) {
      board.EnableTrace(options.trace_options);
    }
    if (options.forensics) {
      board.EnableForensics(options.forensics_options);
    }
    board.Boot();
    board.StepTo(run.cycles);
    o.fingerprints.push_back(board.fingerprint());
    if (recorders) {
      o.exports = exports(target, {&board, nullptr});
    }
    return o;
  }
  sim::Fleet fleet(options);
  for (int i = 0; i < run.fleet; ++i) {
    fleet.AddBoard(target.build());
  }
  fleet.Boot();
  // Control publishes at fixed chunk boundaries exercise the broker fan-out
  // and each image's subscription path.
  const Cycles chunks = static_cast<Cycles>(run.publishes) + 1;
  const Cycles chunk = run.cycles / chunks;
  for (Cycles i = 0; i < chunks; ++i) {
    fleet.Run(i + 1 == chunks ? run.cycles - chunk * (chunks - 1) : chunk);
    if (i + 1 < chunks) {
      const std::string payload = "cmd" + std::to_string(i);
      fleet.PublishMqtt("leds", net::Bytes(payload.begin(), payload.end()));
    }
  }
  o.fingerprints = fleet.Fingerprints();
  if (recorders) {
    o.exports = exports(target, {nullptr, &fleet});
  }
  return o;
}

bool ObserveTarget(const std::string& command, const LintTarget& target,
                   const ObservedRun& run, const ExportFn& exports) {
  const int threads = run.recorders.host_threads;
  Outcome on = RunOnce(target, run, true, threads, exports);
  for (const auto& [name, bytes] : on.exports.files) {
    WriteFile(run.out_dir + "/" + name, bytes);
  }
  std::fputs(on.exports.summary.c_str(), stdout);
  if (!run.check) {
    return true;
  }
  const char* tool = command.c_str();
  const char* image = target.name.c_str();
  if (run.inject_check_failure) {
    ++on.fingerprints.back().uart_hash;
  }
  bool ok = true;
  // (a) The recorder moved no guest cycle on any board.
  const Outcome off = RunOnce(target, run, false, threads, exports);
  for (size_t b = 0; b < on.fingerprints.size(); ++b) {
    if (!(on.fingerprints[b] == off.fingerprints[b])) {
      std::fprintf(stderr,
                   "cheriot %s: %s: the recorder changed board %zu's "
                   "fingerprint\n  recorder on:  %s\n  recorder off: %s\n",
                   tool, image, b, FingerprintText(on.fingerprints[b]).c_str(),
                   FingerprintText(off.fingerprints[b]).c_str());
      ok = false;
    }
  }
  // (b) A fleet's exports do not depend on the worker count.
  if (run.fleet > 0) {
    for (int workers : {1, 2, 4}) {
      if (RunOnce(target, run, true, workers, exports).exports.files !=
          on.exports.files) {
        std::fprintf(stderr,
                     "cheriot %s: %s: artifacts differ at %d worker "
                     "thread(s)\n",
                     tool, image, workers);
        ok = false;
      }
    }
  }
  // (c) The command's own invariant.
  for (const std::string& failure : on.exports.check_failures) {
    std::fprintf(stderr, "cheriot %s: %s: %s\n", tool, image,
                 failure.c_str());
    ok = false;
  }
  if (ok) {
    std::printf("%-26s check ok: fingerprints invariant on %zu board(s)%s%s\n",
                image, on.fingerprints.size(),
                run.fleet > 0 ? ", artifacts stable at 1/2/4 workers" : "",
                on.exports.check_note.c_str());
  }
  return ok;
}

}  // namespace

int Observe(Cli& cli, const ObservedRun& run, const ExportFn& exports) {
  return cli.ForEachTarget([&](const LintTarget& target) {
    return ObserveTarget(cli.command(), target, run, exports);
  });
}

}  // namespace cheriot::tools
