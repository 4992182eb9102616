// The shared layer of the `cheriot` tool (tools/cheriot.cc). Every command
// parses its flags through one Cli, selects images from one registry
// (tools/lint_targets.h), writes and reads files through one pair of
// helpers and prints fingerprints through one formatter. The four observer
// commands (trace, health, flow, cov) also share how an image is run
// (Observe) and one --check (DESIGN.md §8.1); each keeps only what it
// attaches, what it exports and its summary line.
//
// Exit codes, for every command: 0 ok; 1 a check failed, lint found an
// error-level finding, mc found a failure, or a snapshot verify or diff
// mismatched; 2 a usage, load or I/O failure.
#ifndef TOOLS_REGISTRY_CLI_H_
#define TOOLS_REGISTRY_CLI_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/json/json.h"
#include "src/sim/board.h"
#include "src/sim/fleet.h"
#include "tools/lint_targets.h"

namespace cheriot::tools {

// A malformed command line: main() prints it and exits 2.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// One command's arguments (everything after the command word). Each command
// pulls the flags it knows; Targets() then rejects whatever is left.
class Cli {
 public:
  Cli(std::string command, std::vector<std::string> args)
      : command_(std::move(command)),
        args_(std::move(args)),
        used_(args_.size(), false) {}

  const std::string& command() const { return command_; }

  // True when the bare flag (e.g. "--check") was given.
  bool Has(const std::string& flag);
  // Every "--flag=V" value, in command-line order.
  std::vector<std::string> Values(const std::string& flag);
  // Every name in every "--flag=A,B,..." value, in command-line order.
  std::vector<std::string> Names(const std::string& flag);
  // The last "--flag=V" value into *out; false (*out untouched) if absent.
  bool Text(const std::string& flag, std::string* out);
  // Text() for a number: V must be all decimal digits and fit T, otherwise
  // the command line is malformed (UsageError).
  template <typename T>
  bool Number(const std::string& flag, T* out) {
    std::string v;
    if (!Text(flag, &v)) {
      return false;
    }
    const auto max = static_cast<uint64_t>(std::numeric_limits<T>::max());
    *out = static_cast<T>(Decimal(flag, v, max));
    return true;
  }
  // The leading word when it is not a flag (snap's save/restore/...), or "".
  std::string Word();

  // Rejects the arguments no call above consumed (UsageError).
  void RejectUnused() const;

  // Rejects unconsumed arguments, then resolves --all (the shipped images)
  // and every --target=NAME[,NAME...] (shipped or seeded). An unknown name,
  // or an empty selection when `required`, is a UsageError.
  std::vector<const LintTarget*> Targets(bool required = true);

  // Runs `run_target` on every selected image. An exception is a load or
  // I/O failure (exit 2, immediately); a false return marks a failed check
  // or finding, and exits 1 once every image has run.
  int ForEachTarget(const std::function<bool(const LintTarget&)>& run_target);

 private:
  static uint64_t Decimal(const std::string& flag, const std::string& v,
                          uint64_t max);

  std::string command_;
  std::vector<std::string> args_;
  std::vector<bool> used_;
};

// Prints the shipped images, then the seeded ones marked [seeded].
void ListTargets();

// "a,b,c" -> {"a", "b", "c"}; empty items are dropped.
std::vector<std::string> SplitCsv(const std::string& s);

// Whole-file I/O; any open, read or write failure throws std::runtime_error
// naming the path.
void WriteFile(const std::string& path, const std::string& bytes);
std::string ReadFile(const std::string& path);

// "now=... accesses=... cap=L/S traps=... idle=... uart=N/HASH reboots=R".
std::string FingerprintText(const sim::Board::Fingerprint& f);

// printf into a std::string.
std::string Format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

// The static side of an image: boot it on a throwaway machine (the loader
// runs, no guest instruction does) and serialize the linker report (§4).
json::Value AuditReport(const LintTarget& target);

// --- Observed runs (trace, health, flow, cov) ------------------------------

// The flags every observer command shares, plus its recorder switched on in
// `recorders` (whose option defaults are the recorders' own).
struct ObservedRun {
  sim::FleetOptions recorders;  // also carries --host-threads
  int fleet = 0;                // 0 = one sim::Board without a fabric
  int publishes = 0;            // control MQTT publishes spread over the run
  Cycles cycles = 20'000'000;
  bool check = false;
  bool inject_check_failure = false;  // test hook for the --check failure path
  std::string out_dir = ".";
};

// Pulls --cycles, --fleet, --host-threads, --out-dir, --check and
// --inject-check-failure.
ObservedRun ObservedFlags(Cli& cli, int default_fleet);

// A finished recorder-on run: exactly one of the two is set.
struct Finished {
  sim::Board* board = nullptr;  // fleet == 0
  sim::Fleet* fleet = nullptr;  // fleet > 0
  Cycles Now() const { return board != nullptr ? board->Now() : fleet->Now(); }
};

// What an observer command makes of a finished run.
struct Exports {
  // (file name under --out-dir, bytes); --check compares these across
  // worker counts.
  std::vector<std::pair<std::string, std::string>> files;
  std::string summary;  // printed once the files are written
  // The command's own --check invariant on this run: one line per failure,
  // and a note for the "check ok" line.
  std::vector<std::string> check_failures;
  std::string check_note;
};

using ExportFn = std::function<Exports(const LintTarget&, const Finished&)>;

// The per-image loop of an observer command: run with the recorder on,
// write the exports, print the summary and, with --check, verify that
//   (a) the run with the recorder off lands on the same fingerprint on
//       every board (--inject-check-failure corrupts the last board's),
//   (b) a fleet's exports are byte-identical at 1, 2 and 4 workers, and
//   (c) the command's own invariant (Exports::check_failures) holds.
int Observe(Cli& cli, const ObservedRun& run, const ExportFn& exports);

}  // namespace cheriot::tools

#endif  // TOOLS_REGISTRY_CLI_H_
