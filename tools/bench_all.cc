// bench_all: run every bench that bench/CMakeLists.txt declares, in that
// order, each with --json=OUT_DIR/BENCH_<name>.json, and validate the
// provenance stamp (git SHA, build type, UTC timestamp) of every file. The
// CI bench-all job runs this and uploads the JSON, so each number carries its
// origin with it.
//
// --compare=DIR diffs each emitted JSON against the checked-in baseline
// (bench/baselines/BENCH_<name>.json). Host-timing keys — names containing
// per_sec / seconds / overhead / speedup — get a relative tolerance band
// (--tolerance, default 0.75: CI runners vary a lot, so only gross
// regressions fail); every other key is guest-deterministic and must match
// exactly, which gates the paper's numbers (Table 2, Fig. 6a, Table 3,
// Fig. 6b, the §5.3 ablation and Fig. 7); keys appearing on only one side
// fail (schema drift must update the baseline). Host-environment keys
// (provenance, host_hardware_concurrency, host_undersized) are skipped.
//
// Exit codes: 0 all benches ran and every emitted JSON validated (and, with
// --compare, stayed inside the band), 1 a bench failed, a provenance field
// is malformed or a comparison regressed, 2 usage.
#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "src/json/json.h"
#include "tools/registry_cli.h"

namespace {

void Usage(std::FILE* out) {
  std::fprintf(out,
               "usage: bench_all [options]\n"
               "\n"
               "  --bin-dir=DIR   directory holding the bench binaries\n"
               "                  (default: directory of this binary's\n"
               "                  invocation, i.e. '.')\n"
               "  --out-dir=DIR   where BENCH_*.json land (default .)\n"
               "  --only=NAME[,NAME...]  run a subset (names from --list;\n"
               "                  an unknown one is a usage error)\n"
               "  --skip=NAME[,NAME...]  skip targets\n"
               "  --compare=DIR   diff each emitted JSON against the\n"
               "                  baseline BENCH_*.json in DIR; host-timing\n"
               "                  keys get a tolerance band, the rest must\n"
               "                  match exactly\n"
               "  --tolerance=F   relative band for host-timing keys with\n"
               "                  --compare (default 0.75)\n"
               "  --list          list bench targets and exit\n");
}

bool IsHex40(const std::string& s) {
  if (s.size() != 40) {
    return false;
  }
  for (char c : s) {
    if (!std::isxdigit(static_cast<unsigned char>(c))) {
      return false;
    }
  }
  return true;
}

// "2026-08-06T12:34:56Z" — the exact shape bench/harness.h emits.
bool IsUtcStamp(const std::string& s) {
  static const char* pattern = "dddd-dd-ddTdd:dd:ddZ";
  if (s.size() != std::strlen(pattern)) {
    return false;
  }
  for (size_t i = 0; pattern[i] != '\0'; ++i) {
    if (pattern[i] == 'd') {
      if (!std::isdigit(static_cast<unsigned char>(s[i]))) {
        return false;
      }
    } else if (s[i] != pattern[i]) {
      return false;
    }
  }
  return true;
}

// Validates the provenance block of one emitted BENCH_*.json.
bool ValidateProvenance(const std::string& path,
                        const cheriot::json::Value& doc) {
  if (!doc.Has("provenance")) {
    std::fprintf(stderr, "bench_all: %s: missing \"provenance\"\n",
                 path.c_str());
    return false;
  }
  const cheriot::json::Value& p = doc["provenance"];
  bool ok = true;
  const std::string build_type =
      p.Has("build_type") ? p["build_type"].AsString() : "";
  if (build_type.empty()) {
    std::fprintf(stderr, "bench_all: %s: provenance.build_type missing/empty\n",
                 path.c_str());
    ok = false;
  }
  const std::string stamp =
      p.Has("generated_utc") ? p["generated_utc"].AsString() : "";
  if (!IsUtcStamp(stamp)) {
    std::fprintf(stderr,
                 "bench_all: %s: provenance.generated_utc '%s' is not "
                 "YYYY-MM-DDTHH:MM:SSZ\n",
                 path.c_str(), stamp.c_str());
    ok = false;
  }
  const std::string sha = p.Has("git_sha") ? p["git_sha"].AsString() : "";
  if (sha == "unknown") {
    // Legal outside a git checkout, but worth a line in the CI log.
    std::fprintf(stderr, "bench_all: %s: provenance.git_sha is \"unknown\"\n",
                 path.c_str());
  } else if (!IsHex40(sha)) {
    std::fprintf(stderr,
                 "bench_all: %s: provenance.git_sha '%s' is neither a 40-hex "
                 "SHA nor \"unknown\"\n",
                 path.c_str(), sha.c_str());
    ok = false;
  }
  if (ok) {
    std::printf("  provenance ok: %s (%s, %s)\n", path.c_str(),
                build_type.c_str(), stamp.c_str());
  }
  return ok;
}

// ---- --compare support ------------------------------------------------
//
// Key classes for the baseline diff. Host-timing keys carry wall-clock
// measurements and get a relative band; host-environment keys describe the
// machine the bench ran on and are skipped outright; everything else is
// derived from deterministic guest execution and must match exactly.

bool IsHostTimingKey(const std::string& key) {
  return key.find("per_sec") != std::string::npos ||
         key.find("seconds") != std::string::npos ||
         key.find("overhead") != std::string::npos ||
         key.find("speedup") != std::string::npos;
}

// Ratio-valued timing keys (overhead fractions, speedup factors) also get
// an *absolute* band of the same magnitude: an overhead measured over a
// millisecond-scale run swings wildly in relative terms around zero
// (0.17 vs 0.45 is run-to-run noise, not a regression) while staying tiny
// in absolute terms.
bool IsRatioKey(const std::string& key) {
  return key.find("overhead") != std::string::npos ||
         key.find("speedup") != std::string::npos;
}

bool IsHostEnvKey(const std::string& key) {
  return key == "provenance" || key == "host_hardware_concurrency" ||
         key == "host_undersized";
}

bool IsNumber(const cheriot::json::Value& v) {
  return v.type() == cheriot::json::Value::Type::kInt ||
         v.type() == cheriot::json::Value::Type::kDouble;
}

// Reads and parses one JSON file; prints why and returns false if it cannot.
bool LoadJson(const std::string& path, cheriot::json::Value* doc) {
  try {
    *doc = cheriot::json::Parse(cheriot::tools::ReadFile(path));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_all: %s: %s\n", path.c_str(), e.what());
    return false;
  }
  return true;
}

// Recursively diffs a fresh value against its baseline. `ctx` is the dotted
// key path for messages. Returns true when everything is inside the band.
bool CompareValues(const std::string& ctx, const cheriot::json::Value& base,
                   const cheriot::json::Value& fresh, double tolerance) {
  using Type = cheriot::json::Value::Type;
  // Host-timing leaves may legitimately flip between int and double
  // (e.g. a rate that rounds to a whole number), so numeric-vs-numeric is
  // never a type error.
  if (IsNumber(base) && IsNumber(fresh)) {
    const double b = base.AsDouble();
    const double f = fresh.AsDouble();
    if (IsHostTimingKey(ctx)) {
      const double denom = std::max(std::abs(b), 1e-9);
      const double rel = std::abs(f - b) / denom;
      if (rel > tolerance && !(IsRatioKey(ctx) && std::abs(f - b) <= tolerance)) {
        std::fprintf(stderr,
                     "bench_all: compare: %s = %g vs baseline %g "
                     "(rel delta %.2f > tolerance %.2f)\n",
                     ctx.c_str(), f, b, rel, tolerance);
        return false;
      }
      return true;
    }
    if (b != f) {
      std::fprintf(stderr,
                   "bench_all: compare: deterministic key %s = %g vs "
                   "baseline %g\n",
                   ctx.c_str(), f, b);
      return false;
    }
    return true;
  }
  if (base.type() != fresh.type()) {
    std::fprintf(stderr, "bench_all: compare: %s changed JSON type\n",
                 ctx.c_str());
    return false;
  }
  bool ok = true;
  switch (base.type()) {
    case Type::kObject: {
      for (const auto& [key, bval] : base.AsObject()) {
        if (IsHostEnvKey(key)) {
          continue;
        }
        const std::string sub = ctx.empty() ? key : ctx + "." + key;
        if (!fresh.Has(key)) {
          std::fprintf(stderr, "bench_all: compare: %s missing from fresh "
                       "output (baseline is stale? regenerate it)\n",
                       sub.c_str());
          ok = false;
          continue;
        }
        if (!CompareValues(sub, bval, fresh[key], tolerance)) {
          ok = false;
        }
      }
      for (const auto& [key, fval] : fresh.AsObject()) {
        (void)fval;
        if (!IsHostEnvKey(key) && !base.Has(key)) {
          std::fprintf(stderr, "bench_all: compare: %s%s%s not in baseline "
                       "(schema drift — update bench/baselines/)\n",
                       ctx.c_str(), ctx.empty() ? "" : ".", key.c_str());
          ok = false;
        }
      }
      break;
    }
    case Type::kArray: {
      if (base.size() != fresh.size()) {
        std::fprintf(stderr,
                     "bench_all: compare: %s length %zu vs baseline %zu\n",
                     ctx.c_str(), fresh.size(), base.size());
        return false;
      }
      for (size_t i = 0; i < base.size(); ++i) {
        const std::string sub = ctx + "[" + std::to_string(i) + "]";
        if (!CompareValues(sub, base[i], fresh[i], tolerance)) {
          ok = false;
        }
      }
      break;
    }
    case Type::kBool:
      if (base.AsBool() != fresh.AsBool()) {
        std::fprintf(stderr, "bench_all: compare: %s = %s vs baseline %s\n",
                     ctx.c_str(), fresh.AsBool() ? "true" : "false",
                     base.AsBool() ? "true" : "false");
        ok = false;
      }
      break;
    case Type::kString:
      if (base.AsString() != fresh.AsString()) {
        std::fprintf(stderr,
                     "bench_all: compare: %s = \"%s\" vs baseline \"%s\"\n",
                     ctx.c_str(), fresh.AsString().c_str(),
                     base.AsString().c_str());
        ok = false;
      }
      break;
    case Type::kNull:
      break;
    default:
      break;
  }
  return ok;
}

// A non-negative decimal such as "2" or "0.75".
bool ParseTolerance(const std::string& text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return !text.empty() && text.find_first_not_of("0123456789.") ==
                              std::string::npos &&
         *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  namespace tools = cheriot::tools;
  tools::Cli cli("bench_all", {argv + 1, argv + argc});
  const std::vector<std::string> benches = tools::SplitCsv(CHERIOT_BENCHES);
  if (cli.Has("--help") || cli.Has("-h")) {
    Usage(stdout);
    return 0;
  }
  if (cli.Has("--list")) {
    for (const std::string& name : benches) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }
  std::string bin_dir = ".";
  std::string out_dir = ".";
  std::string compare_dir;
  double tolerance = 0.75;
  const std::vector<std::string> only = cli.Names("--only");
  const std::vector<std::string> skip = cli.Names("--skip");
  try {
    cli.Text("--bin-dir", &bin_dir);
    cli.Text("--out-dir", &out_dir);
    cli.Text("--compare", &compare_dir);
    std::string text;
    if (cli.Text("--tolerance", &text) && !ParseTolerance(text, &tolerance)) {
      throw tools::UsageError("bad --tolerance value " + text);
    }
    for (const auto* names : {&only, &skip}) {
      for (const std::string& name : *names) {
        if (std::find(benches.begin(), benches.end(), name) == benches.end()) {
          throw tools::UsageError("unknown bench '" + name + "' (--list)");
        }
      }
    }
    cli.RejectUnused();
  } catch (const tools::UsageError& e) {
    std::fprintf(stderr, "bench_all: %s\n", e.what());
    Usage(stderr);
    return 2;
  }

  int ran = 0;
  int failed = 0;
  for (const std::string& name : benches) {
    const auto listed = [&name](const std::vector<std::string>& names) {
      return std::find(names.begin(), names.end(), name) != names.end();
    };
    if ((!only.empty() && !listed(only)) || listed(skip)) {
      continue;
    }
    const std::string file = "BENCH_" + name.substr(6) + ".json";
    const std::string json_path = out_dir + "/" + file;
    const std::string cmd = bin_dir + "/" + name + " --json=" + json_path;
    std::printf("=== %s ===\n", cmd.c_str());
    std::fflush(stdout);
    const int rc = std::system(cmd.c_str());
    ++ran;
    if (rc != 0) {
      std::fprintf(stderr, "bench_all: %s exited with status %d\n",
                   name.c_str(), rc);
      ++failed;
      continue;
    }
    cheriot::json::Value fresh;
    if (!LoadJson(json_path, &fresh) || !ValidateProvenance(json_path, fresh)) {
      ++failed;
      continue;
    }
    if (compare_dir.empty()) {
      continue;
    }
    const std::string baseline = compare_dir + "/" + file;
    cheriot::json::Value base;
    if (!LoadJson(baseline, &base) ||
        !CompareValues("", base, fresh, tolerance)) {
      ++failed;
      continue;
    }
    std::printf("  compare ok: %s within %.0f%% of %s\n", json_path.c_str(),
                tolerance * 100.0, baseline.c_str());
  }
  if (ran == 0) {
    std::fprintf(stderr, "bench_all: no targets selected\n");
    return 2;
  }
  std::printf("bench_all: %d target(s) run, %d failed\n", ran, failed);
  return failed == 0 ? 0 : 1;
}
