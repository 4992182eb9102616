// The harness every bench in this directory shares: its command line, its
// host timer and CPU warm-up, its two sampling schemes and the one writer of
// BENCH_<name>.json.
//
// A benchmark number without its commit, build type and capture time is
// unreviewable — it cannot be regenerated or compared against a later run —
// so every BENCH_*.json carries the same provenance stamp:
//
//   "provenance": {
//     "build_type": "Release",
//     "generated_utc": "2026-08-06T12:34:56Z",
//     "git_sha": "abc123..."
//   },
#ifndef BENCH_HARNESS_H_
#define BENCH_HARNESS_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/json/json.h"
#include "tools/registry_cli.h"

namespace cheriot::bench {

// Keeps the compiler from discarding `v` or the work that produced it.
// These are google-benchmark's DoNotOptimize constraints, so the timed loops
// compile as they did under that library.
template <typename T>
[[gnu::always_inline]] inline void DoNotOptimize(const T& v) {
  asm volatile("" : : "r,m"(v) : "memory");
}
template <typename T>
[[gnu::always_inline]] inline void DoNotOptimize(T& v) {
  asm volatile("" : "+m,r"(v) : : "memory");
}

// Host seconds one call of `fn` takes.
template <typename Fn>
double Time(Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Spins for half a second so the host core reaches its steady-state
// frequency before anything is timed; otherwise the first workload measured
// pays the ramp-up and early and late workloads compare unfairly.
inline void WarmUpCpu() {
  uint64_t sink = 0;
  for (double spun = 0; spun < 0.5;) {
    spun += Time([&] {
      for (int i = 0; i < 4096; ++i) {
        sink += i;
        DoNotOptimize(sink);
      }
    });
  }
}

// The least of `runs` calls of `sample`, each returning the host seconds it
// timed: the fastest run is the one least disturbed by host scheduling noise
// (and, on virtualized hosts, hypervisor steal time).
template <typename Fn>
double BestOf(int runs, Fn&& sample) {
  double best = sample();
  for (int i = 1; i < runs; ++i) {
    best = std::min(best, sample());
  }
  return best;
}

// One run of the trace and flow overhead benches takes well under a
// millisecond, too short a window to resolve a few percent. So a sample is a
// fixed number of back-to-back runs spanning at least kMinSampleSeconds, and
// each mode reports the per-run median of kSamples samples, interleaved with
// the other modes so drift hits every mode alike.
constexpr double kMinSampleSeconds = 0.05;
constexpr int kSamples = 7;

// `run(mode)` runs mode 0..modes-1 once and returns a result whose `seconds`
// it timed. Returns each mode's last result with `seconds` replaced by the
// mode's per-run median, and the runs per sample in *runs.
template <typename Run>
auto InterleavedMedians(int modes, Run&& run, int* runs) {
  // Enough mode-0 runs to span the window, counted on a second pass (the
  // first runs of a process are slower, cold).
  for (int pass = 0; pass < 2; ++pass) {
    *runs = 0;
    for (double total = 0; total < kMinSampleSeconds; ++*runs) {
      total += run(0).seconds;
    }
  }
  std::vector<decltype(run(0))> last(modes);
  std::vector<std::vector<double>> per_run(modes);
  for (int s = 0; s < kSamples; ++s) {
    for (int m = 0; m < modes; ++m) {
      double total = 0;
      for (int i = 0; i < *runs; ++i) {
        last[m] = run(m);
        total += last[m].seconds;
      }
      per_run[m].push_back(total / *runs);
    }
  }
  for (int m = 0; m < modes; ++m) {
    std::sort(per_run[m].begin(), per_run[m].end());
    last[m].seconds = per_run[m][kSamples / 2];
  }
  return last;
}

inline std::string GitSha() {
#ifdef CHERIOT_BENCH_SRCDIR
  const std::string cmd =
      "git -C \"" CHERIOT_BENCH_SRCDIR "\" rev-parse HEAD 2>/dev/null";
  if (FILE* p = ::popen(cmd.c_str(), "r")) {
    char buf[64] = {};
    const size_t n = std::fread(buf, 1, sizeof(buf) - 1, p);
    ::pclose(p);
    std::string sha(buf, n);
    while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) {
      sha.pop_back();
    }
    if (sha.size() == 40 &&
        sha.find_first_not_of("0123456789abcdef") == std::string::npos) {
      return sha;
    }
  }
#endif
  return "unknown";
}

inline std::string BuildType() {
#ifdef CHERIOT_BUILD_TYPE
  const std::string type = CHERIOT_BUILD_TYPE;
  return type.empty() ? "unspecified" : type;
#else
  return "unspecified";
#endif
}

inline std::string UtcTimestamp() {
  const std::time_t now = std::time(nullptr);
  std::tm utc = {};
  gmtime_r(&now, &utc);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &utc);
  return buf;
}

// A bench's command line and its BENCH_<name>.json.
class Output {
 public:
  // Parses --json=PATH (default BENCH_<name>.json) and whatever `flags`
  // pulls from the Cli. A leftover argument or a malformed number prints the
  // error and exits 2.
  Output(std::string name, int argc, char** argv,
         const std::function<void(tools::Cli&)>& flags = nullptr)
      : name_(std::move(name)), path_("BENCH_" + name_ + ".json") {
    tools::Cli cli("bench_" + name_, {argv + 1, argv + argc});
    try {
      cli.Text("--json", &path_);
      if (flags) {
        flags(cli);
      }
      cli.RejectUnused();
    } catch (const tools::UsageError& e) {
      std::fprintf(stderr, "%s: %s\n", cli.command().c_str(), e.what());
      std::exit(2);
    }
  }

  // Writes `fields` plus "bench" and "provenance". Returns the bench's exit
  // code: 0, or 1 when the file cannot be written.
  int Write(json::Object fields) const {
    fields["bench"] = name_;
    fields["provenance"] = json::Object{{"build_type", BuildType()},
                                        {"generated_utc", UtcTimestamp()},
                                        {"git_sha", GitSha()}};
    try {
      tools::WriteFile(path_, json::Value(std::move(fields)).Dump() + "\n");
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench_%s: %s\n", name_.c_str(), e.what());
      return 1;
    }
    std::fprintf(stderr, "wrote %s\n", path_.c_str());
    return 0;
  }

 private:
  std::string name_;
  std::string path_;
};

}  // namespace cheriot::bench

#endif  // BENCH_HARNESS_H_
