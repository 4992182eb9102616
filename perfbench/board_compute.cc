// board_compute: one board, no network. The seed draws a mix of compartment
// calls that dirty 64-512 B of callee stack, heap allocate/free pairs of
// 64 B-8 KiB, and word and capability load/store loops. It exercises mem,
// switcher, alloc, the revoker and the clock hooks, and never touches sim,
// net or the fabric: it is the control for any fleet-layer change.
//
// Every iteration boots a fresh Machine + System and replays the same op
// list, so its guest cycles and access counts must repeat exactly; the
// traced run times each op from inside the guest closure (host clock only,
// no guest state) and must reach the same counts.
#include <memory>
#include <string>
#include <vector>

#include "perfbench/common.h"
#include "src/rtos.h"
#include "src/sync/sync.h"

namespace perfbench {

using namespace cheriot;

namespace {

constexpr size_t kOpsPerIteration = 8000;
constexpr Word kWordBufBytes = 1024;
constexpr Word kCapBufBytes = 512;

struct Op {
  enum class Kind : uint8_t { kCall, kAlloc, kWords, kCaps };
  Kind kind;
  Word arg;  // call: stack bytes; alloc: size; loops: element count
};

std::vector<Op> MakeOps(uint64_t seed) {
  Rng rng(seed);
  std::vector<Op> ops;
  ops.reserve(kOpsPerIteration);
  for (size_t i = 0; i < kOpsPerIteration; ++i) {
    const uint64_t pick = rng.Uniform(0, 99);
    if (pick < 30) {
      ops.push_back({Op::Kind::kCall, static_cast<Word>(rng.Uniform(8, 64) * 8)});
    } else if (pick < 50) {
      // Log-uniform 64 B .. 8 KiB.
      const Word shift = static_cast<Word>(rng.Uniform(6, 12));
      const Word base = 1u << shift;
      ops.push_back({Op::Kind::kAlloc, base + static_cast<Word>(rng.Uniform(0, base)) / 8 * 8});
    } else if (pick < 80) {
      ops.push_back({Op::Kind::kWords, static_cast<Word>(rng.Uniform(16, kWordBufBytes / 4))});
    } else {
      ops.push_back({Op::Kind::kCaps, static_cast<Word>(rng.Uniform(8, kCapBufBytes / 8))});
    }
  }
  return ops;
}

// Host-side timings gathered by the traced iteration.
struct OpTimes {
  std::vector<double> call_ns;
  std::vector<double> pair_ns;
  uint64_t word_ns = 0, word_accesses = 0;
  uint64_t cap_ns = 0, cap_accesses = 0;
};

struct Outcome {
  double setup_s = 0;
  double run_s = 0;
  Cycles cycles = 0;
  uint64_t accesses = 0;
  uint64_t cap_loads = 0;
  uint32_t revoker_epochs = 0;
  uint64_t failed_ops = 0;
  bool finished = false;
};

struct GuestShared {
  const std::vector<Op>* ops = nullptr;
  OpTimes* times = nullptr;  // non-null in the traced iteration
  uint64_t failed_ops = 0;
  bool finished = false;
};

EntryFn ComputeMain(std::shared_ptr<GuestShared> shared) {
  return [shared](CompartmentCtx& ctx, const std::vector<Capability>&) {
    const Capability q = ctx.SealedImport("q");
    const Capability words = ctx.HeapAllocate(q, kWordBufBytes, ~0u);
    const Capability caps = ctx.HeapAllocate(q, kCapBufBytes, ~0u);
    if (!words.tag() || !caps.tag()) {
      ++shared->failed_ops;
      return StatusCap(Status::kCompartmentFail);
    }
    OpTimes* t = shared->times;
    std::vector<Word> mirror(kWordBufBytes / 4, 0);
    for (const Op& op : *shared->ops) {
      const uint64_t t0 = t != nullptr ? HostNs() : 0;
      switch (op.kind) {
        case Op::Kind::kCall: {
          const bool ok = ctx.Call("svc.dirty", {WordCap(op.arg)}).word() ==
                          static_cast<Word>(Status::kOk);
          if (t != nullptr) {
            t->call_ns.push_back(static_cast<double>(HostNs() - t0));
          }
          shared->failed_ops += ok ? 0 : 1;
          break;
        }
        case Op::Kind::kAlloc: {
          const Capability p = ctx.HeapAllocate(q, op.arg, ~0u);
          bool ok = p.tag() && p.length() >= op.arg;
          if (ok) {
            ctx.StoreWord(p, 0, op.arg);
            ok = ctx.LoadWord(p, 0) == op.arg && ctx.HeapFree(q, p) == Status::kOk;
          }
          if (t != nullptr) {
            t->pair_ns.push_back(static_cast<double>(HostNs() - t0));
          }
          shared->failed_ops += ok ? 0 : 1;
          break;
        }
        case Op::Kind::kWords: {
          bool ok = true;
          for (Word i = 0; i < op.arg; ++i) {
            const Word v = ctx.LoadWord(words, 4 * i);
            ok &= v == mirror[i];
            ctx.StoreWord(words, 4 * i, v + 1);
            ++mirror[i];
          }
          if (t != nullptr) {
            t->word_ns += HostNs() - t0;
            t->word_accesses += 2ull * op.arg;
          }
          shared->failed_ops += ok ? 0 : 1;
          break;
        }
        case Op::Kind::kCaps: {
          bool ok = true;
          for (Word i = 0; i < op.arg; ++i) {
            ctx.StoreCap(caps, 8 * i, words);
            ok &= ctx.LoadCap(caps, 8 * i).tag();
          }
          if (t != nullptr) {
            t->cap_ns += HostNs() - t0;
            t->cap_accesses += 2ull * op.arg;
          }
          shared->failed_ops += ok ? 0 : 1;
          break;
        }
      }
    }
    ctx.HeapFree(q, caps);
    ctx.HeapFree(q, words);
    shared->finished = true;
    return StatusCap(Status::kOk);
  };
}

FirmwareImage BuildComputeImage(std::shared_ptr<GuestShared> shared) {
  ImageBuilder b("perfbench-compute");
  b.Compartment("svc")
      .Globals(32)
      .Export("dirty",
              [](CompartmentCtx& ctx, const std::vector<Capability>& args) {
                const Word bytes = args[0].word();
                auto buf = ctx.AllocStack(bytes);
                for (Word off = 0; off + 8 <= bytes; off += 8) {
                  ctx.StoreWord(buf.cap(), off, off);
                }
                return StatusCap(Status::kOk);
              },
              2048);
  b.Compartment("app")
      .Globals(64)
      .AllocCap("q", 160 * 1024)
      .ImportCompartment("svc.dirty")
      .Export("main", ComputeMain(std::move(shared)));
  sync::UseAllocator(b, "app");
  sync::UseScheduler(b, "app");
  b.Thread("t", 2, 8192, 8, "app.main");
  return b.Build();
}

Outcome RunIteration(const std::vector<Op>& ops, OpTimes* times) {
  Outcome out;
  auto shared = std::make_shared<GuestShared>();
  shared->ops = &ops;
  shared->times = times;
  const double t0 = HostNow();
  Machine machine;
  System sys(machine, BuildComputeImage(shared));
  sys.Boot();
  const double t1 = HostNow();
  sys.Run(400'000'000'000ull);
  out.run_s = HostNow() - t1;
  out.setup_s = t1 - t0;
  out.cycles = sys.Now();
  out.accesses = machine.memory().access_count();
  out.cap_loads = machine.memory().cap_load_count();
  out.revoker_epochs = machine.revoker().epoch();
  out.failed_ops = shared->failed_ops;
  out.finished = shared->finished;
  return out;
}

// Counts one iteration's ops and checks it against the first iteration.
void CheckIteration(Result& r, const Outcome& o, const Outcome& first,
                    const std::string& what) {
  r.attempted += kOpsPerIteration;
  r.failed += o.failed_ops;
  if (o.failed_ops != 0) {
    r.errors.push_back(what + ": " + std::to_string(o.failed_ops) + " ops failed");
  }
  r.Check(o.finished, what + ": op list did not finish");
  r.Check(o.cycles == first.cycles && o.accesses == first.accesses &&
              o.cap_loads == first.cap_loads && o.revoker_epochs == first.revoker_epochs,
          what + ": guest cycles/accesses differ from the first iteration (" +
              std::to_string(o.cycles) + " vs " + std::to_string(first.cycles) + ")");
}

}  // namespace

Result RunBoardCompute(const RunConfig& config) {
  Result r;
  CheckPaperScoreboard(r);
  const std::vector<Op> ops = MakeOps(config.seed);
  const Outcome first = RunIteration(ops, nullptr);
  CheckIteration(r, first, first, "iteration 1");
  r.Check(ResetPeakRss(), "cannot reset the peak RSS after the scoreboard");

  const double deadline = HostNow() + config.seconds;
  if (!config.trace) {
    std::vector<double> setup, run, rate;
    int iterations = 0;
    while (iterations < 5 || HostNow() < deadline) {
      RotateCpu(iterations);
      const Outcome o = RunIteration(ops, nullptr);
      ++iterations;
      CheckIteration(r, o, first, "iteration " + std::to_string(iterations + 1));
      setup.push_back(o.setup_s);
      run.push_back(o.run_s);
      rate.push_back(static_cast<double>(o.accesses) / 1e6 / o.run_s);
    }
    r.Set("setup_s", Median(setup));
    r.Set("goal_s", Median(run));
    r.Set("guest_maccess_per_s", Median(rate));
    r.Set("rss_mb_per_board", PeakRssMb());
    r.Note("iterations", iterations, "count");
    r.Note("goal_s_q1", Quantile(run, 0.25), "s");
    r.Note("goal_s_q3", Quantile(run, 0.75), "s");
    r.Note("guest_cycles", static_cast<double>(first.cycles), "cycles");
    r.Note("guest_accesses", static_cast<double>(first.accesses), "count");
    return r;
  }

  std::vector<double> call_p50, call_p99, pair_p50, pair_p99, word_ns, cap_ns, overhead;
  uint64_t call_samples = 0, pair_samples = 0;
  int rounds = 0;
  do {
    const Outcome plain = RunIteration(ops, nullptr);
    OpTimes times;
    const Outcome traced = RunIteration(ops, &times);
    ++rounds;
    CheckIteration(r, plain, first, "round " + std::to_string(rounds) + " untraced");
    CheckIteration(r, traced, first, "round " + std::to_string(rounds) + " traced");
    call_p50.push_back(Quantile(times.call_ns, 0.5));
    call_p99.push_back(Quantile(times.call_ns, 0.99));
    pair_p50.push_back(Quantile(times.pair_ns, 0.5));
    pair_p99.push_back(Quantile(times.pair_ns, 0.99));
    word_ns.push_back(static_cast<double>(times.word_ns) / times.word_accesses);
    cap_ns.push_back(static_cast<double>(times.cap_ns) / times.cap_accesses);
    overhead.push_back(traced.run_s / plain.run_s);
    call_samples = times.call_ns.size();
    pair_samples = times.pair_ns.size();
  } while (HostNow() < deadline);
  r.Set("switcher.call_ns_p50", Median(call_p50));
  r.Set("switcher.call_ns_p99", Median(call_p99));
  r.Set("switcher.call_samples", static_cast<double>(call_samples));
  r.Set("alloc.pair_ns_p50", Median(pair_p50));
  r.Set("alloc.pair_ns_p99", Median(pair_p99));
  r.Set("alloc.pair_samples", static_cast<double>(pair_samples));
  r.Set("mem.word_access_ns", Median(word_ns));
  r.Set("mem.cap_access_ns", Median(cap_ns));
  r.Set("mem.accesses", static_cast<double>(first.accesses));
  r.Set("hw.revoker.epochs", first.revoker_epochs);
  r.Set("bench.trace_overhead", Median(overhead));
  r.Note("rounds", rounds, "count");
  return r;
}

}  // namespace perfbench
