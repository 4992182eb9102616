// cheriot_snap: save, restore, inspect and compare deterministic machine
// snapshots (DESIGN.md §10) of the shipped firmware images.
//
// Targets come from the same registry as cheriot_lint/cheriot_trace/
// cheriot_health. A snapshot records everything the simulation is a function
// of — SRAM + tag bitmaps, kernel/scheduler/allocator state, device queues
// and the replay log of external inputs — so `restore` rebuilds the exact
// machine (Restore self-verifies byte-for-byte) and can keep running it.
//
//   save     run a target for --cycles and write the snapshot blob
//   restore  rebuild a board (or fleet) from a blob, optionally run further
//   info     print a blob's header, flags and section sizes
//   diff     byte-compare two blobs section by section
//
// Exit codes: 0 ok (diff: identical), 1 snapshots differ or verify failed,
// 2 usage or load failure.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "src/sim/board.h"
#include "src/sim/fleet.h"
#include "src/snap/diff.h"
#include "src/snap/snapshot.h"
#include "tools/lint_targets.h"

using namespace cheriot;
using cheriot::tools::FindLintTarget;
using cheriot::tools::LintTargets;

namespace {

struct CliOptions {
  std::string command;
  std::string target;
  std::string in_path;
  std::string out_path;
  std::string a_path;
  std::string b_path;
  Cycles cycles = 20'000'000;
  bool cycles_set = false;
  int fleet = 0;         // 0 = single board
  int host_threads = 1;  // fleet restore worker threads
  bool trace = false;
  bool forensics = false;
};

void Usage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: cheriot_snap <command> [options]\n"
      "\n"
      "commands:\n"
      "  save     --target=NAME --out=FILE [--cycles=N] [--fleet=N]\n"
      "           [--trace] [--forensics]\n"
      "  restore  --target=NAME --in=FILE [--cycles=N] [--fleet=N]\n"
      "           [--host-threads=N]\n"
      "  info     --in=FILE\n"
      "  diff     --a=FILE --b=FILE\n"
      "  list-targets\n"
      "\n"
      "  --target=NAME      a built-in firmware image (see list-targets)\n"
      "  --cycles=N         save: cycles to run before snapshotting\n"
      "                     restore: extra cycles to run after restoring\n"
      "                     (default 20000000 / 0)\n"
      "  --fleet=N          snapshot a fleet of N boards of the image\n"
      "  --host-threads=N   fleet restore worker threads (default 1; the\n"
      "                     restored state is identical for any value)\n"
      "  --trace/--forensics  attach recorders before boot (save only)\n");
}

bool ReadBlob(const std::string& path, std::vector<uint8_t>& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cheriot_snap: cannot read %s\n", path.c_str());
    return false;
  }
  out.assign(std::istreambuf_iterator<char>(in),
             std::istreambuf_iterator<char>());
  return true;
}

bool WriteBlob(const std::string& path, const std::vector<uint8_t>& blob) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cheriot_snap: cannot write %s\n", path.c_str());
    return false;
  }
  out.write(reinterpret_cast<const char*>(blob.data()),
            static_cast<std::streamsize>(blob.size()));
  return out.good();
}

void PrintFingerprint(const char* label, const sim::Board::Fingerprint& f) {
  std::printf(
      "%s now=%llu accesses=%llu cap=%llu/%llu traps=%llu idle=%llu"
      " uart=%llu/%016llx reboots=%u\n",
      label, static_cast<unsigned long long>(f.now),
      static_cast<unsigned long long>(f.accesses),
      static_cast<unsigned long long>(f.cap_loads),
      static_cast<unsigned long long>(f.cap_stores),
      static_cast<unsigned long long>(f.traps),
      static_cast<unsigned long long>(f.idle_cycles),
      static_cast<unsigned long long>(f.uart_bytes),
      static_cast<unsigned long long>(f.uart_hash), f.reboots);
}

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

int CmdSave(const CliOptions& opts) {
  const tools::LintTarget* t = FindLintTarget(opts.target);
  if (t == nullptr || opts.out_path.empty()) {
    std::fprintf(stderr, "cheriot_snap: save needs --target and --out\n");
    return 2;
  }
  std::vector<uint8_t> blob;
  if (opts.fleet > 0) {
    sim::FleetOptions fopts;
    fopts.trace = opts.trace;
    fopts.forensics = opts.forensics;
    sim::Fleet fleet(fopts);
    for (int i = 0; i < opts.fleet; ++i) {
      fleet.AddBoard(t->build());
    }
    fleet.Boot();
    fleet.Run(opts.cycles);
    fleet.Snapshot(blob);
    std::printf("%s: fleet of %d at cycle %llu -> %s (%zu bytes)\n",
                opts.target.c_str(), opts.fleet,
                static_cast<unsigned long long>(fleet.Now()),
                opts.out_path.c_str(), blob.size());
  } else {
    sim::Board board(t->build(), {});
    if (opts.trace) {
      board.EnableTrace();
    }
    if (opts.forensics) {
      board.EnableForensics();
    }
    board.Boot();
    if (opts.cycles > 0) {
      board.StepTo(opts.cycles);
    }
    board.Snapshot(blob);
    PrintFingerprint("saved state:", board.fingerprint());
    std::printf("%s: board at cycle %llu -> %s (%zu bytes)\n",
                opts.target.c_str(),
                static_cast<unsigned long long>(board.Now()),
                opts.out_path.c_str(), blob.size());
  }
  return WriteBlob(opts.out_path, blob) ? 0 : 2;
}

int CmdRestore(const CliOptions& opts) {
  const tools::LintTarget* t = FindLintTarget(opts.target);
  if (t == nullptr || opts.in_path.empty()) {
    std::fprintf(stderr, "cheriot_snap: restore needs --target and --in\n");
    return 2;
  }
  std::vector<uint8_t> blob;
  if (!ReadBlob(opts.in_path, blob)) {
    return 2;
  }
  const snap::Container c = snap::Container::Parse(blob);
  if (c.kind == snap::kFleet) {
    auto fleet = sim::Fleet::Restore(
        blob, [&](int) { return t->build(); }, opts.host_threads);
    std::printf("restored fleet of %zu at cycle %llu (verified)\n",
                fleet->size(),
                static_cast<unsigned long long>(fleet->Now()));
    if (opts.cycles > 0) {
      fleet->Run(opts.cycles);
    }
    for (const auto& f : fleet->Fingerprints()) {
      PrintFingerprint("  board:", f);
    }
  } else {
    auto board = sim::Board::Restore(blob, t->build());
    std::printf("restored board at cycle %llu (verified)\n",
                static_cast<unsigned long long>(board->Now()));
    if (opts.cycles > 0) {
      board->StepTo(board->Now() + opts.cycles);
    }
    PrintFingerprint("restored state:", board->fingerprint());
  }
  return 0;
}

int CmdInfo(const CliOptions& opts) {
  if (opts.in_path.empty()) {
    std::fprintf(stderr, "cheriot_snap: info needs --in\n");
    return 2;
  }
  std::vector<uint8_t> blob;
  if (!ReadBlob(opts.in_path, blob)) {
    return 2;
  }
  const snap::Container c = snap::Container::Parse(blob);
  std::printf("%s: %s snapshot, flags [%s], %zu sections, %zu bytes\n",
              opts.in_path.c_str(), KindName(c.kind),
              FlagNames(c.flags).c_str(), c.sections.size(), blob.size());
  for (const auto& s : c.sections) {
    std::printf("  %-4s %12zu bytes\n", snap::SectionName(s.id).c_str(),
                s.body.size());
  }
  return 0;
}

int CmdDiff(const CliOptions& opts) {
  if (opts.a_path.empty() || opts.b_path.empty()) {
    std::fprintf(stderr, "cheriot_snap: diff needs --a and --b\n");
    return 2;
  }
  std::vector<uint8_t> ab;
  std::vector<uint8_t> bb;
  if (!ReadBlob(opts.a_path, ab) || !ReadBlob(opts.b_path, bb)) {
    return 2;
  }
  const snap::BlobDiff d = snap::DiffBlobs(ab, bb);
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

}  // namespace

int main(int argc, char** argv) {
  CliOptions opts;
  if (argc >= 2 && argv[1][0] != '-') {
    opts.command = argv[1];
  }
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&arg](const char* flag) -> const char* {
      const size_t n = std::strlen(flag);
      return arg.compare(0, n, flag) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value("--target=")) {
      opts.target = v;
    } else if (const char* v = value("--in=")) {
      opts.in_path = v;
    } else if (const char* v = value("--out=")) {
      opts.out_path = v;
    } else if (const char* v = value("--a=")) {
      opts.a_path = v;
    } else if (const char* v = value("--b=")) {
      opts.b_path = v;
    } else if (const char* v = value("--cycles=")) {
      opts.cycles = std::strtoull(v, nullptr, 10);
      opts.cycles_set = true;
    } else if (const char* v = value("--fleet=")) {
      opts.fleet = std::atoi(v);
    } else if (const char* v = value("--host-threads=")) {
      opts.host_threads = std::atoi(v);
    } else if (arg == "--trace") {
      opts.trace = true;
    } else if (arg == "--forensics") {
      opts.forensics = true;
    } else if (arg == "--help" || arg == "-h") {
      Usage(stdout);
      return 0;
    } else {
      std::fprintf(stderr, "cheriot_snap: unknown option %s\n", arg.c_str());
      Usage(stderr);
      return 2;
    }
  }

  if (opts.command == "restore" && !opts.cycles_set) {
    opts.cycles = 0;  // restore default: just rebuild and verify
  }
  try {
    if (opts.command == "list-targets") {
      for (const auto& t : LintTargets()) {
        std::printf("%-26s %s\n", t.name.c_str(), t.description.c_str());
      }
      return 0;
    }
    if (opts.command == "save") {
      return CmdSave(opts);
    }
    if (opts.command == "restore") {
      return CmdRestore(opts);
    }
    if (opts.command == "info") {
      return CmdInfo(opts);
    }
    if (opts.command == "diff") {
      return CmdDiff(opts);
    }
  } catch (const snap::SnapshotError& e) {
    std::fprintf(stderr, "cheriot_snap: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cheriot_snap: %s\n", e.what());
    return 2;
  }
  Usage(stderr);
  return 2;
}
