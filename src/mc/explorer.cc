#include "src/mc/explorer.h"

#include <algorithm>
#include <deque>
#include <map>
#include <queue>
#include <set>
#include <tuple>

#include "src/health/monitor.h"
#include "src/sim/board.h"

namespace cheriot::mc {

namespace {

bool IsPreemptKind(DecisionKind k) {
  return k == DecisionKind::kSyncPreempt || k == DecisionKind::kPreempt ||
         k == DecisionKind::kIrqDelivery;
}

bool IsFaultKind(DecisionKind k) {
  return k == DecisionKind::kAllocFail || k == DecisionKind::kNicLoss;
}

bool IsOrderKind(DecisionKind k) {
  return k == DecisionKind::kWakeOrder ||
         k == DecisionKind::kMultiwaiterOrder;
}

const char* RunResultName(System::RunResult r) {
  switch (r) {
    case System::RunResult::kAllExited: return "all-exited";
    case System::RunResult::kBudgetExhausted: return "budget-exhausted";
    case System::RunResult::kDeadlock: return "deadlock";
    case System::RunResult::kStopped: return "stopped";
  }
  return "?";
}

// Records the decision sequence of one schedule: forces the prefix, answers
// the default everywhere else.
class RecordingArbiter : public ScheduleArbiter {
 public:
  explicit RecordingArbiter(std::vector<int> prefix)
      : prefix_(std::move(prefix)) {}

  int Choose(DecisionKind kind, uint32_t subject, int n_choices) override {
    int chosen = 0;
    if (decisions_.size() < prefix_.size()) {
      chosen = prefix_[decisions_.size()];
      if (chosen < 0 || chosen >= n_choices) {
        chosen = 0;  // replay drift: fall back to the default
      }
    }
    decisions_.push_back({kind, subject, n_choices, chosen});
    return chosen;
  }

  const std::vector<Decision>& decisions() const { return decisions_; }

 private:
  std::vector<int> prefix_;
  std::vector<Decision> decisions_;
};

// Passive per-thread read/write footprints at 8-byte granularity, stamped
// with the decision count at access time ("segment"). All non-SRAM
// (device) accesses collapse onto one pseudo-granule recorded as a store:
// two threads touching any MMIO never commute (UART byte order is guest-
// visible). Stored stamps are `decision count + 1` so zero means untouched.
class Footprints {
 public:
  static constexpr int kMaxThreads = 16;

  Footprints(Address sram_base, Address sram_size)
      : base_(sram_base), top_(sram_base + sram_size),
        granules_(sram_size / 8 + 1),  // +1: the MMIO pseudo-granule
        loads_(granules_ * kMaxThreads, 0),
        stores_(granules_ * kMaxThreads, 0),
        touched_flag_(granules_, 0) {}

  void Bind(System* system, const std::vector<Decision>* decisions) {
    system_ = system;
    decisions_ = decisions;
  }

  static void Observe(void* ctx, Address addr, Address size, bool is_store) {
    auto* self = static_cast<Footprints*>(ctx);
    const int tid = self->system_->current_thread_id();
    if (tid < 0 || tid >= kMaxThreads) {
      return;  // idle/kernel context: not attributable to a guest thread
    }
    const uint32_t seg =
        static_cast<uint32_t>(self->decisions_->size()) + 1;
    size_t g0;
    size_t g1;
    if (addr >= self->base_ && addr < self->top_) {
      g0 = (addr - self->base_) / 8;
      const uint64_t last = static_cast<uint64_t>(addr) + (size ? size : 1) - 1;
      g1 = std::min((static_cast<size_t>(last - self->base_)) / 8,
                    self->granules_ - 2);
    } else {
      g0 = g1 = self->granules_ - 1;  // MMIO pseudo-granule
      is_store = true;
    }
    for (size_t g = g0; g <= g1; ++g) {
      const size_t idx = g * kMaxThreads + static_cast<size_t>(tid);
      (is_store ? self->stores_ : self->loads_)[idx] = seg;
      if (!self->touched_flag_[g]) {
        self->touched_flag_[g] = 1;
        self->touched_.push_back(static_cast<uint32_t>(g));
      }
    }
  }

  // Conflict thresholds: per_thread[t] (and any) is the highest stamp S such
  // that thread t (any pair) has a read/write or write/write overlap where
  // both accesses carry stamp >= ... — concretely, an alternative at
  // decision j is in conflict iff threshold >= j + 2.
  struct Conflicts {
    std::array<uint32_t, kMaxThreads> per_thread{};
    uint32_t any = 0;
  };

  Conflicts Compute() const {
    Conflicts c;
    for (uint32_t g : touched_) {
      const size_t row = static_cast<size_t>(g) * kMaxThreads;
      for (int t = 0; t < kMaxThreads; ++t) {
        const uint32_t lt = loads_[row + t];
        const uint32_t st = stores_[row + t];
        if (lt == 0 && st == 0) {
          continue;
        }
        for (int u = t + 1; u < kMaxThreads; ++u) {
          const uint32_t lu = loads_[row + u];
          const uint32_t su = stores_[row + u];
          if (lu == 0 && su == 0) {
            continue;
          }
          // t writes, u touches:
          uint32_t pair = std::min(st, std::max(lu, su));
          // u writes, t touches:
          pair = std::max(pair, std::min(su, std::max(lt, st)));
          if (pair == 0) {
            continue;
          }
          c.per_thread[t] = std::max(c.per_thread[t], pair);
          c.per_thread[u] = std::max(c.per_thread[u], pair);
          c.any = std::max(c.any, pair);
        }
      }
    }
    return c;
  }

 private:
  System* system_ = nullptr;
  const std::vector<Decision>* decisions_ = nullptr;
  Address base_;
  Address top_;
  size_t granules_;
  std::vector<uint32_t> loads_;
  std::vector<uint32_t> stores_;
  std::vector<uint8_t> touched_flag_;
  std::vector<uint32_t> touched_;
};

// Everything one schedule run produces that the explorer needs afterwards.
struct RunOutcome {
  Cycles boot_cycle = 0;  // guest clock after Boot(), where the run starts
  std::vector<Decision> decisions;
  System::RunResult result = System::RunResult::kBudgetExhausted;
  uint64_t uart_bytes = 0;
  uint64_t uart_hash = 0;
  uint32_t reboots = 0;
  std::set<std::pair<int, int>> trap_keys;     // (cause, compartment)
  std::set<std::pair<int, int>> anomaly_keys;  // (detector, compartment)
  Footprints::Conflicts conflicts;
};

std::string CompartmentLabel(int idx, const std::vector<std::string>& names) {
  if (idx >= 0 && idx < static_cast<int>(names.size())) {
    return names[static_cast<size_t>(idx)];
  }
  return idx < 0 ? "<kernel>" : std::to_string(idx);
}

std::string TrapKeyName(const std::pair<int, int>& key,
                        const std::vector<std::string>& names) {
  return std::string(TrapCodeName(static_cast<TrapCode>(key.first))) +
         " in compartment " + CompartmentLabel(key.second, names);
}

std::string AnomalyKeyName(const std::pair<int, int>& key,
                           const std::vector<std::string>& names) {
  return std::string(
             health::DetectorName(static_cast<health::Detector>(key.first))) +
         " (compartment " + CompartmentLabel(key.second, names) + ")";
}

// Runs one schedule by plain prefix re-execution: a fresh board, booted with
// forensics attached (the trap oracle reads its crash records), runs
// `cycles` past boot under an arbiter that forces `prefix`.
RunOutcome RunSchedule(const std::function<FirmwareImage()>& make_image,
                       const std::vector<int>& prefix, Cycles cycles) {
  sim::Board board(make_image(), {});
  health::ForensicsRecorder* forensics = board.EnableForensics();
  board.Boot();
  RecordingArbiter arbiter(prefix);
  Memory& mem = board.machine().memory();
  Footprints footprints(mem.sram_base(), mem.sram_size());
  footprints.Bind(&board.system(), &arbiter.decisions());
  board.SetArbiter(&arbiter);
  mem.SetAccessObserver(&Footprints::Observe, &footprints);

  RunOutcome out;
  out.boot_cycle = board.Now();
  out.result = board.StepTo(out.boot_cycle + cycles);

  mem.SetAccessObserver(nullptr, nullptr);
  board.SetArbiter(nullptr);

  const sim::Board::Fingerprint fp = board.fingerprint();
  out.uart_bytes = fp.uart_bytes;
  out.uart_hash = fp.uart_hash;
  out.reboots = fp.reboots;
  for (const health::CrashRecord& rec : forensics->Records()) {
    out.trap_keys.emplace(static_cast<int>(rec.cause), rec.compartment);
  }
  const health::BoardHealth bh = health::AssessBoard(board);
  for (const health::Anomaly& a : bh.anomalies) {
    // kStuckBoard duplicates the explorer's own deadlock oracle.
    if (a.detector != health::Detector::kStuckBoard) {
      out.anomaly_keys.emplace(static_cast<int>(a.detector), a.compartment);
    }
  }
  out.conflicts = footprints.Compute();
  out.decisions = arbiter.decisions();
  return out;
}

}  // namespace

json::Value McReport::ToJson() const {
  json::Object o;
  o["schema_version"] = kMcSchemaVersion;
  o["image"] = image;
  {
    json::Object opt;
    opt["max_schedules"] = options.max_schedules;
    opt["preempt_bound"] = options.preempt_bound;
    opt["inject_faults"] = options.inject_faults;
    opt["cycles"] = static_cast<uint64_t>(options.cycles);
    o["options"] = std::move(opt);
  }
  o["root_cycle"] = static_cast<uint64_t>(root_cycle);
  o["baseline_result"] = baseline_result;
  o["schedules_explored"] = schedules_explored;
  o["branch_points"] = branch_points;
  o["alternatives_enqueued"] = alternatives_enqueued;
  o["alternatives_pruned"] = alternatives_pruned;
  o["pruned_subtree_credit"] = pruned_subtree_credit;
  o["naive_tree_estimate"] = naive_tree();
  o["pruned_pct"] = pruned_pct();
  o["frontier_exhausted"] = frontier_exhausted;
  o["clean"] = clean();
  json::Array fails;
  for (const Failure& f : failures) {
    json::Object fo;
    fo["kind"] = f.kind;
    fo["detail"] = f.detail;
    fo["schedule"] = f.schedule;
    fo["decisions"] = f.decisions;
    json::Array repro;
    for (const ReproChoice& r : f.repro) {
      json::Object ro;
      ro["index"] = r.index;
      ro["kind"] = DecisionKindName(r.kind);
      ro["subject"] = r.subject;
      ro["choice"] = r.chosen;
      repro.push_back(std::move(ro));
    }
    fo["repro"] = std::move(repro);
    fails.push_back(std::move(fo));
  }
  o["failures"] = std::move(fails);
  return json::Value(std::move(o));
}

McReport Explore(const std::string& image_name,
                 const std::function<FirmwareImage()>& make_image,
                 const McOptions& options) {
  McReport report;
  report.image = image_name;
  report.options = options;

  std::vector<std::string> comp_names;
  for (const CompartmentDef& c : make_image().compartments) {
    comp_names.push_back(c.name);
  }

  // Frontier of schedule prefixes, ordered by (non-default choice count,
  // insertion order): the first failure found is minimal.
  struct Entry {
    int non_default;
    uint64_t seq;
    std::vector<int> prefix;
    bool operator>(const Entry& other) const {
      return std::tie(non_default, seq) >
             std::tie(other.non_default, other.seq);
    }
  };
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>>
      frontier;
  uint64_t next_seq = 0;
  frontier.push({0, next_seq++, {}});

  // De-duplication guard: execution is deterministic, so equal prefixes
  // produce equal runs.
  std::set<std::vector<int>> seen;
  seen.insert({});

  bool have_baseline = false;
  RunOutcome baseline;

  while (!frontier.empty() &&
         report.schedules_explored < options.max_schedules) {
    const Entry entry = frontier.top();
    frontier.pop();
    const int schedule_index = report.schedules_explored;
    RunOutcome out = RunSchedule(make_image, entry.prefix, options.cycles);
    ++report.schedules_explored;
    if (!have_baseline) {
      baseline = out;
      have_baseline = true;
      report.root_cycle = out.boot_cycle;
      report.baseline_result = RunResultName(out.result);
    }

    // --- Oracles (baseline-relative) ---
    auto repro_of = [&out]() {
      std::vector<ReproChoice> repro;
      for (size_t i = 0; i < out.decisions.size(); ++i) {
        const Decision& d = out.decisions[i];
        if (d.chosen != 0) {
          repro.push_back({static_cast<int>(i), d.kind, d.subject, d.chosen});
        }
      }
      return repro;
    };
    auto add_failure = [&](const std::string& kind,
                           const std::string& detail) {
      if (static_cast<int>(report.failures.size()) >= options.max_failures) {
        return;
      }
      Failure f;
      f.kind = kind;
      f.detail = detail;
      f.schedule = schedule_index;
      f.repro = repro_of();
      f.decisions = static_cast<int>(out.decisions.size());
      report.failures.push_back(std::move(f));
    };
    if (schedule_index > 0) {
      if (out.result == System::RunResult::kDeadlock &&
          baseline.result != System::RunResult::kDeadlock) {
        add_failure("deadlock",
                    "all threads blocked with no pending event (baseline: " +
                        std::string(report.baseline_result) + ")");
      }
      for (const auto& key : out.trap_keys) {
        if (!baseline.trap_keys.count(key)) {
          add_failure("trap",
                      "new crash record: " + TrapKeyName(key, comp_names));
        }
      }
      for (const auto& key : out.anomaly_keys) {
        if (!baseline.anomaly_keys.count(key)) {
          add_failure("health",
                      "new anomaly: " + AnomalyKeyName(key, comp_names));
        }
      }
      // Guest-visible divergence is only a verdict on schedules whose
      // non-default choices are wake/multiwaiter order: timing-kind
      // schedules legitimately interleave console output differently.
      bool order_only = true;
      bool any_non_default = false;
      for (const Decision& d : out.decisions) {
        if (d.chosen != 0) {
          any_non_default = true;
          if (!IsOrderKind(d.kind)) {
            order_only = false;
          }
        }
      }
      if (order_only && any_non_default &&
          (out.uart_bytes != baseline.uart_bytes ||
           out.uart_hash != baseline.uart_hash ||
           out.reboots != baseline.reboots)) {
        add_failure(
            "divergence",
            "guest-visible output depends on futex wake order (uart " +
                std::to_string(out.uart_bytes) + "/" +
                std::to_string(out.uart_hash) + " vs baseline " +
                std::to_string(baseline.uart_bytes) + "/" +
                std::to_string(baseline.uart_hash) + ")");
      }
    }

    // --- Branch: enumerate alternatives past this schedule's prefix ---
    const std::vector<Decision>& d = out.decisions;
    int non_default_preempt = 0;
    for (const Decision& dec : d) {
      if (dec.chosen != 0 && IsPreemptKind(dec.kind)) {
        ++non_default_preempt;
      }
    }
    // First pass: eligible alternatives per decision (for suffix credit).
    std::vector<int> alt_count(d.size(), 0);
    for (size_t j = entry.prefix.size(); j < d.size(); ++j) {
      if (IsFaultKind(d[j].kind) && !options.inject_faults) {
        continue;
      }
      if (IsPreemptKind(d[j].kind) &&
          non_default_preempt >= options.preempt_bound) {
        continue;
      }
      alt_count[j] = d[j].n_choices - 1;
    }
    std::vector<uint64_t> alts_after(d.size() + 1, 0);
    for (size_t j = d.size(); j-- > 0;) {
      alts_after[j] =
          alts_after[j + 1] + static_cast<uint64_t>(alt_count[j]);
    }
    for (size_t j = entry.prefix.size(); j < d.size(); ++j) {
      if (alt_count[j] == 0) {
        continue;
      }
      ++report.branch_points;
      // Partial-order reduction (sound only for these two kinds — see
      // explorer.h): conflicts exist after decision j iff the relevant
      // threshold >= j + 2.
      bool prune = false;
      if (d[j].kind == DecisionKind::kSyncPreempt) {
        const uint32_t tid = d[j].subject;
        prune = tid < Footprints::kMaxThreads &&
                out.conflicts.per_thread[tid] < j + 2;
      } else if (d[j].kind == DecisionKind::kWakeOrder) {
        prune = out.conflicts.any < j + 2;
      }
      if (prune) {
        report.alternatives_pruned +=
            static_cast<uint64_t>(alt_count[j]);
        report.pruned_subtree_credit +=
            static_cast<uint64_t>(alt_count[j]) * (1 + alts_after[j + 1]);
        continue;
      }
      for (int c = 1; c < d[j].n_choices; ++c) {
        std::vector<int> prefix;
        prefix.reserve(j + 1);
        for (size_t k = 0; k < j; ++k) {
          prefix.push_back(d[k].chosen);
        }
        prefix.push_back(c);
        if (!seen.insert(prefix).second) {
          continue;
        }
        ++report.alternatives_enqueued;
        frontier.push({entry.non_default + 1, next_seq++,
                       std::move(prefix)});
      }
    }
  }
  report.frontier_exhausted = frontier.empty();
  return report;
}

}  // namespace cheriot::mc
