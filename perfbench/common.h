// Shared plumbing for the benchmark binary: the seeded generator, host
// timing, order statistics, the in-memory span recorder of the traced run and
// the result a workload hands back to main.cc.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// splitmix64: small, seedable and identical on every platform, so one seed
// always produces the same workload inputs.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed ^ 0x9E3779B97F4A7C15ull) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  // Uniform in [lo, hi].
  uint64_t Uniform(uint64_t lo, uint64_t hi) { return lo + Next() % (hi - lo + 1); }

 private:
  uint64_t state_;
};

inline double HostNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline uint64_t HostNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

// Peak resident set of this process in MiB (VmHWM). Each workload runs in a
// process of its own, so the peak belongs to that workload alone.
double PeakRssMb();

// Resets VmHWM to the current resident set (writes 5 to
// /proc/self/clear_refs), so that a later PeakRssMb() covers only the timed
// iterations and not the reference pass or the scoreboard before them.
// False if the kernel refused.
bool ResetPeakRss();

// Moves the calling thread onto the k-th CPU (mod the count) of the
// process's allowed set. Single-threaded workloads call it once per
// iteration: the scheduler would keep a lone thread on one vCPU, and on a
// shared host one vCPU can run markedly slower than another for minutes, so
// a run's median would depend on where its thread happened to land. Only for
// threads that create no workers (a new thread inherits the one-CPU mask).
void RotateCpu(int k);

// FNV-1a: the fleet fingerprint digest and the export byte digest.
class Digest {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ = (h_ ^ ((v >> (8 * i)) & 0xFF)) * 1099511628211ull;
    }
  }
  void AddBytes(const std::string& bytes) {
    for (char c : bytes) {
      h_ = (h_ ^ static_cast<uint8_t>(c)) * 1099511628211ull;
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ull;
};

// In-memory span recorder for the traced run. A span has a name, host start
// and end, the span that was open when it began (its parent) and the id of
// the traced run it belongs to. Self time (duration minus the time covered by
// child spans) is accumulated per name when a span closes, so the per-layer
// totals need no second pass over the spans.
class Spans {
 public:
  struct Span {
    uint32_t name;
    int32_t parent;  // index of the enclosing span, -1 for a root
    uint32_t run;
    uint64_t start_ns;
    uint64_t end_ns;
  };
  struct Totals {
    uint64_t calls = 0;
    uint64_t total_ns = 0;
    uint64_t self_ns = 0;
  };

  // Interns a span name; call once per call site, outside the hot path.
  uint32_t Name(const std::string& name);
  void set_run(uint32_t run) { run_ = run; }

  void Open(uint32_t name) {
    const int32_t id = static_cast<int32_t>(spans_.size());
    spans_.push_back({name, open_.empty() ? -1 : open_.back().id, run_, HostNs(), 0});
    open_.push_back({id, 0});
  }
  void Close() {
    const Open_ top = open_.back();
    open_.pop_back();
    Span& s = spans_[static_cast<size_t>(top.id)];
    s.end_ns = HostNs();
    const uint64_t dur = s.end_ns - s.start_ns;
    Totals& t = totals_[s.name];
    ++t.calls;
    t.total_ns += dur;
    t.self_ns += dur - std::min(dur, top.child_ns);
    if (!open_.empty()) {
      open_.back().child_ns += dur;
    }
  }

  const Totals& totals(const std::string& name) const;
  double self_s(const std::string& name) const { return totals(name).self_ns * 1e-9; }
  double total_s(const std::string& name) const { return totals(name).total_ns * 1e-9; }
  uint64_t calls(const std::string& name) const { return totals(name).calls; }

  // Writes the span file: a header, one line per layer with its totals, then
  // the spans themselves (at most `max_spans`, in start order).
  bool Write(const std::string& path, size_t max_spans) const;

 private:
  struct Open_ {
    int32_t id;
    uint64_t child_ns;
  };
  std::vector<std::string> names_;
  std::vector<Totals> totals_;
  std::vector<Span> spans_;
  std::vector<Open_> open_;
  uint32_t run_ = 0;
};

// RAII span; a null recorder makes it a no-op.
class Scoped {
 public:
  Scoped(Spans* spans, uint32_t name) : spans_(spans) {
    if (spans_ != nullptr) {
      spans_->Open(name);
    }
  }
  ~Scoped() {
    if (spans_ != nullptr) {
      spans_->Close();
    }
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Spans* spans_;
};

struct ReportLine {
  std::string name;
  double value;
  std::string unit;
};

// What a workload reports. `attempted`/`failed` count operations (boards
// reaching their goal, publishes, compute ops, scoreboard rows, digest and
// restore checks); `errors` names each failed one.
struct Result {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  // Contract metrics by name; main.cc owns their units (its metric tables).
  std::map<std::string, double> metrics;
  std::vector<ReportLine> report;  // extra figures printed for humans

  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      errors.push_back(what);
    }
  }
  void Set(const std::string& name, double value) { metrics[name] = value; }
  void Note(const std::string& name, double value, const std::string& unit) {
    report.push_back({name, value, unit});
  }
};

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;     // observer exports and the span file go here
  std::string spans_path;  // traced run only
};

Result RunFleetBringup(const RunConfig& config);
Result RunFleetBusy(const RunConfig& config);
Result RunFleetObserved(const RunConfig& config);
Result RunBoardCompute(const RunConfig& config);

// Paper scoreboard: Fig. 6a, Table 3, Fig. 6b and Fig. 7 at exact guest
// values; one checked operation per row.
void CheckPaperScoreboard(Result& result);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
