// Paper scoreboard, checked exactly inside board_compute. Each row re-runs
// the methodology of the matching bench/ program (bench_call_latency,
// bench_core_apis, bench_alloc_throughput, bench_case_study) from outside
// src/ and compares the guest result with the value EXPERIMENTS.md records.
// Guest numbers are deterministic simulated cycles, so any difference is a
// failed operation named by its row, never noise.
#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/common.h"
#include "src/compat/posix_shim.h"
#include "src/debug/debug.h"
#include "src/js/minivm.h"
#include "src/net/netstack.h"
#include "src/net/world.h"
#include "src/rtos.h"
#include "src/sync/sync.h"

namespace perfbench {

using namespace cheriot;

namespace {

// ---- Fig. 6a -------------------------------------------------------------

double GuestAverage(const std::function<double(CompartmentCtx&)>& body) {
  Machine machine;
  auto result = std::make_shared<double>(-1);
  ImageBuilder b("score-6a");
  b.Compartment("callee")
      .Globals(32)
      .Export("nop", [](CompartmentCtx&, const std::vector<Capability>&) {
        return StatusCap(Status::kOk);
      })
      .Export("use_stack",
              [](CompartmentCtx& ctx, const std::vector<Capability>& args) {
                const Word bytes = args[0].word();
                auto buf = ctx.AllocStack(bytes);
                for (Word off = 0; off + 8 <= bytes; off += 8) {
                  ctx.StoreWord(buf.cap(), off, 0xD1);
                }
                return StatusCap(Status::kOk);
              },
              2048);
  b.Compartment("bench")
      .Globals(32)
      .ImportCompartment("callee.nop")
      .ImportCompartment("callee.use_stack")
      .Export("main", [body, result](CompartmentCtx& ctx, const std::vector<Capability>&) {
        *result = body(ctx);
        return StatusCap(Status::kOk);
      });
  sync::UseLocks(b, "bench");
  b.Thread("t", 2, 8192, 8, "bench.main");
  System sys(machine, b.Build());
  sys.Boot();
  sys.Run(8'000'000'000ull);
  return *result;
}

double CompartmentCall(Word stack_bytes) {
  return GuestAverage([stack_bytes](CompartmentCtx& ctx) {
    auto dirty_caller_stack = [&] {
      if (stack_bytes == 0) {
        return;
      }
      auto buf = ctx.AllocStack(stack_bytes);
      for (Word off = 0; off + 8 <= stack_bytes; off += 8) {
        ctx.StoreWord(buf.cap(), off, 0xD1);
      }
    };
    const char* target = stack_bytes == 0 ? "callee.nop" : "callee.use_stack";
    dirty_caller_stack();
    ctx.Call(target, {WordCap(stack_bytes)});
    Cycles total = 0;
    for (int i = 0; i < 20; ++i) {
      dirty_caller_stack();
      const Cycles t0 = ctx.Now();
      ctx.Call(target, {WordCap(stack_bytes)});
      total += ctx.Now() - t0;
      if (stack_bytes != 0) {
        total -= (stack_bytes / 8) * cost::kStoreWord;
      }
    }
    return static_cast<double>(total) / 20;
  });
}

double LibraryCall() {
  return GuestAverage([](CompartmentCtx& ctx) {
    sync::Mutex mutex(ctx.globals());
    ctx.LibCall("locks.mutex_trylock", {ctx.globals()});
    ctx.LibCall("locks.mutex_unlock", {ctx.globals()});
    const Cycles t0 = ctx.Now();
    for (int i = 0; i < 20; ++i) {
      ctx.LibCall("locks.mutex_unlock", {ctx.globals()});
    }
    return static_cast<double>(ctx.Now() - t0) / 20 - (cost::kLoadWord + cost::kStoreWord);
  });
}

double InterruptLatency() {
  Machine machine;
  auto samples = std::make_shared<std::vector<double>>();
  ImageBuilder b("score-irq");
  b.Compartment("hi")
      .Globals(32)
      .ImportMmio("revoker", kRevokerMmioBase, kMmioRegionSize, true)
      .ImportCompartment("sched.interrupt_futex_get")
      .Export("main", [samples](CompartmentCtx& ctx, const std::vector<Capability>&) {
        const Capability futex = ctx.InterruptFutex(IrqLine::kRevoker);
        const Capability revoker = ctx.Mmio("revoker");
        for (int i = 0; i < 10; ++i) {
          const Word seen = ctx.LoadWord(futex, 0);
          ctx.StoreWord(revoker, 12, 1);
          ctx.FutexWait(futex, seen, ~0u);
          const Cycles t2 = ctx.Now();
          const Word t1 = ctx.LoadWord(ctx.globals(), 0);
          samples->push_back(static_cast<double>(t2 - t1));
        }
        ctx.StoreWord(ctx.globals(), 4, 1);
        return StatusCap(Status::kOk);
      });
  b.Compartment("hi").Export("spin", [](CompartmentCtx& ctx, const std::vector<Capability>&) {
    while (ctx.LoadWord(ctx.globals(), 4) == 0) {
      ctx.StoreWord(ctx.globals(), 0, static_cast<Word>(ctx.Now()));
    }
    return StatusCap(Status::kOk);
  });
  sync::UseScheduler(b, "hi");
  b.Thread("hi", 8, 4096, 8, "hi.main");
  b.Thread("lo", 1, 4096, 8, "hi.spin");
  System sys(machine, b.Build());
  sys.Boot();
  sys.Run(8'000'000'000ull);
  double sum = 0;
  for (double s : *samples) {
    sum += s;
  }
  return samples->empty() ? -1 : sum / static_cast<double>(samples->size());
}

// ---- Table 3 -------------------------------------------------------------

double ApiBench(const std::function<double(CompartmentCtx&)>& body,
                ErrorHandlerFn handler = nullptr) {
  Machine machine;
  auto cycles = std::make_shared<double>(-1);
  ImageBuilder b("score-t3");
  auto comp = b.Compartment("bench");
  comp.Globals(64)
      .AllocCap("q", 64 * 1024)
      .AllocCap("q2", 64 * 1024)
      .Export("main", [body, cycles](CompartmentCtx& ctx, const std::vector<Capability>&) {
        *cycles = body(ctx);
        return StatusCap(Status::kOk);
      });
  if (handler) {
    comp.ErrorHandler(std::move(handler));
  }
  sync::UseAllocator(b, "bench");
  sync::UseScheduler(b, "bench");
  b.Compartment("bench")
      .ImportCompartment("alloc.token_key_new")
      .ImportCompartment("alloc.token_obj_new")
      .ImportCompartment("alloc.token_obj_destroy");
  b.Thread("t", 2, 8192, 8, "bench.main");
  System sys(machine, b.Build());
  sys.Boot();
  sys.Run(20'000'000'000ull);
  return *cycles;
}

template <typename Fn>
double Average(CompartmentCtx& ctx, int iterations, Fn&& op) {
  op();
  const Cycles t0 = ctx.Now();
  for (int i = 0; i < iterations; ++i) {
    op();
  }
  return static_cast<double>(ctx.Now() - t0) / iterations;
}

double Unseal() {
  return ApiBench([](CompartmentCtx& ctx) {
    const Capability q = ctx.SealedImport("q");
    const Capability key = ctx.TokenKeyNew();
    const Capability obj = ctx.TokenObjNew(q, key, 32);
    return Average(ctx, 50, [&] { ctx.TokenUnseal(key, obj); });
  });
}

double SealedAlloc() {
  return ApiBench([](CompartmentCtx& ctx) {
    const Capability q = ctx.SealedImport("q");
    const Capability key = ctx.TokenKeyNew();
    std::vector<Capability> objs;
    const double cycles = Average(ctx, 20, [&] { objs.push_back(ctx.TokenObjNew(q, key, 32)); });
    for (const auto& o : objs) {
      ctx.TokenObjDestroy(q, key, o);
    }
    return cycles;
  });
}

double KeyNew() {
  return ApiBench([](CompartmentCtx& ctx) { return Average(ctx, 20, [&] { ctx.TokenKeyNew(); }); });
}

double Deprivilege() {
  return ApiBench([](CompartmentCtx& ctx) {
    const Capability g = ctx.globals();
    const Cycles t0 = ctx.Now();
    for (int i = 0; i < 100; ++i) {
      ctx.Burn(cost::kInstruction * 4);
      hardening::ImmutableNoCapture(g);
    }
    return static_cast<double>(ctx.Now() - t0) / 100;
  });
}

double CheckPointer() {
  return ApiBench([](CompartmentCtx& ctx) {
    const Capability g = ctx.globals();
    const Cycles t0 = ctx.Now();
    for (int i = 0; i < 100; ++i) {
      hardening::CheckPointerCosted(ctx.machine(), g, 16,
                                    PermissionSet({Permission::kLoad, Permission::kStore}));
    }
    return static_cast<double>(ctx.Now() - t0) / 100;
  });
}

double EphemeralClaim() {
  return ApiBench([](CompartmentCtx& ctx) {
    const Capability p = ctx.HeapAllocate(ctx.SealedImport("q"), 64);
    return Average(ctx, 50, [&] { ctx.EphemeralClaim(p); });
  });
}

double ClaimUnclaim() {
  return ApiBench([](CompartmentCtx& ctx) {
    const Capability q2 = ctx.SealedImport("q2");
    const Capability p = ctx.HeapAllocate(ctx.SealedImport("q"), 64);
    return Average(ctx, 20, [&] {
      ctx.HeapClaim(q2, p);
      ctx.HeapFree(q2, p);
    });
  });
}

double UnwindNoHandler() {
  Machine machine;
  auto cycles = std::make_shared<double>(-1);
  ImageBuilder b("score-unwind");
  b.Compartment("victim")
      .Export("nop", [](CompartmentCtx&, const std::vector<Capability>&) {
        return StatusCap(Status::kOk);
      })
      .Export("crash", [](CompartmentCtx& ctx, const std::vector<Capability>&) {
        ctx.LoadWord(Capability::FromWord(1), 0);
        return StatusCap(Status::kOk);
      });
  b.Compartment("bench")
      .ImportCompartment("victim.nop")
      .ImportCompartment("victim.crash")
      .Export("main", [cycles](CompartmentCtx& ctx, const std::vector<Capability>&) {
        ctx.Call("victim.nop", {});
        ctx.Call("victim.crash", {});
        const Cycles t0 = ctx.Now();
        for (int i = 0; i < 20; ++i) {
          ctx.Call("victim.crash", {});
        }
        const double with_fault = static_cast<double>(ctx.Now() - t0) / 20;
        const Cycles t1 = ctx.Now();
        for (int i = 0; i < 20; ++i) {
          ctx.Call("victim.nop", {});
        }
        const double plain = static_cast<double>(ctx.Now() - t1) / 20;
        *cycles = with_fault - plain - cost::kLoadWord;
        return StatusCap(Status::kOk);
      });
  b.Thread("t", 2, 8192, 8, "bench.main");
  System sys(machine, b.Build());
  sys.Boot();
  sys.Run(8'000'000'000ull);
  return *cycles;
}

double GlobalHandlerFault() {
  return ApiBench(
      [](CompartmentCtx& ctx) {
        const Cycles t0 = ctx.Now();
        for (int i = 0; i < 20; ++i) {
          ctx.LoadWord(Capability::FromWord(1), 0);
        }
        return static_cast<double>(ctx.Now() - t0) / 20 - 2 * cost::kLoadWord;
      },
      [](CompartmentCtx& ctx, TrapInfo& info) {
        info.regs.a[0] = ctx.globals();
        return ErrorRecovery::kInstallContext;
      });
}

double ScopedNonError() {
  return ApiBench([](CompartmentCtx& ctx) { return Average(ctx, 50, [&] { ctx.Try([] {}); }); });
}

double ScopedFault() {
  return ApiBench([](CompartmentCtx& ctx) {
    return Average(ctx, 50, [&] { ctx.Try([&] { ctx.LoadWord(Capability::FromWord(1), 0); }); }) -
           cost::kLoadWord;
  });
}

// ---- Fig. 6b -------------------------------------------------------------

// Total guest cycles for the malloc/free pairs at one size (the bench's
// cycles/pair is this over the pair count), or -1 on an allocation failure.
double AllocCycles(Word size, uint64_t* pairs_out) {
  Machine machine;
  auto cycles = std::make_shared<double>(-1);
  const uint64_t pairs = std::clamp<uint64_t>(8ull * 228 * 1024 / size, 24, 20000);
  *pairs_out = pairs;
  ImageBuilder b("score-6b");
  b.Compartment("bench")
      .Globals(32)
      .AllocCap("q", 256 * 1024)
      .Export("main", [cycles, size, pairs](CompartmentCtx& ctx, const std::vector<Capability>&) {
        const Capability q = ctx.SealedImport("q");
        const Cycles t0 = ctx.Now();
        for (uint64_t i = 0; i < pairs; ++i) {
          const Capability p = ctx.HeapAllocate(q, size, ~0u);
          if (!p.tag()) {
            return StatusCap(Status::kOk);
          }
          ctx.HeapFree(q, p);
        }
        *cycles = static_cast<double>(ctx.Now() - t0);
        return StatusCap(Status::kOk);
      });
  sync::UseAllocator(b, "bench");
  sync::UseScheduler(b, "bench");
  b.Thread("t", 2, 8192, 8, "bench.main");
  System sys(machine, b.Build());
  sys.Boot();
  sys.Run(400'000'000'000ull);
  return *cycles;
}

// ---- Fig. 7 --------------------------------------------------------------

struct CaseStudy {
  Cycles recovery = 0;  // ping of death -> DHCP redone by the rebooted stack
  int notifications = 0;
  int reconnects = 0;
  size_t led_events = 0;
};

const char* kFlashScript = R"(
  push 255
  callhost 0 1
  drop
  push 0
  callhost 0 1
  drop
  push 1
  halt
)";

// bench_case_study's deployment and host-side script, without the load report.
CaseStudy RunCaseStudy() {
  constexpr Cycles kSecond = cost::kCoreHz;
  struct App {
    std::string phase = "Boot";
    int notifications = 0;
    int reconnects = 0;
    bool failed = false;
  };
  auto app = std::make_shared<App>();
  Machine machine;
  net::NetWorld world(machine);
  ImageBuilder b("iot-deployment");
  net::NetStackOptions net_options;
  net_options.ping_of_death_bug = true;
  b.Compartment("js_app")
      .CodeSize(3 * 1024)
      .Globals(128)
      .AllocCap("app_quota", 33 * 1024)
      .ImportMmio("led", kLedMmioBase, kMmioRegionSize, true)
      .ImportLibrary("minivm.interpreter")
      .Export("main", [app](CompartmentCtx& ctx, const std::vector<Capability>&) {
        const Capability quota = ctx.SealedImport("app_quota");
        const Capability led = ctx.Mmio("led");
        const js::Program flash = js::Assemble(kFlashScript);
        const Capability arena = compat::Malloc(ctx, js::kVmArenaBytes);
        std::vector<js::HostFn> host = {
            [led](CompartmentCtx& c, const std::vector<Word>& args) -> Word {
              c.StoreWord(led, 0, args.empty() ? 0 : args[0]);
              return 0;
            }};
        app->phase = "Setup";
        if (static_cast<int32_t>(ctx.Call("tcpip.wait_ready", {WordCap(~0u)}).word()) != 0) {
          app->failed = true;
          return StatusCap(Status::kCompartmentFail);
        }
        ctx.Call("tcpip.ping", {WordCap(net::kWorldIp), WordCap(kSecond)});
        app->phase = "NTP Sync.";
        for (int i = 0; i < 3; ++i) {
          ctx.Call("sntp.sync", {WordCap(kSecond)});
          ctx.SleepCycles(kSecond / 2);
        }
        auto connect = [&]() -> Capability {
          auto name_buf = ctx.AllocStack(32);
          const char kBroker[] = "mqtt.example.com";
          ctx.WriteBytes(name_buf.cap(), 0, kBroker, sizeof(kBroker) - 1);
          const Word ip =
              ctx.Call("dns.resolve", {name_buf.cap(), WordCap(sizeof(kBroker) - 1)}).word();
          if (ip == 0) {
            return Capability();
          }
          auto id = ctx.AllocStack(8);
          ctx.WriteBytes(id.cap(), 0, "js-dev", 6);
          const Capability session = ctx.Call(
              "mqtt.connect",
              {quota, WordCap(ip), WordCap(net::kMqttTlsPort), id.cap(), WordCap(6)});
          if (!session.tag()) {
            return session;
          }
          auto topic = ctx.AllocStack(8);
          ctx.WriteBytes(topic.cap(), 0, "leds", 4);
          ctx.Call("mqtt.subscribe", {session, topic.cap(), WordCap(4)});
          return session;
        };
        app->phase = "App. Setup";
        Capability session = connect();
        if (!session.tag()) {
          app->failed = true;
          return StatusCap(Status::kCompartmentFail);
        }
        app->phase = "Steady";
        for (;;) {
          auto out = ctx.AllocStack(128);
          const auto n = static_cast<int32_t>(
              ctx.Call("mqtt.poll", {session, out.cap(), WordCap(128), WordCap(kSecond / 2)})
                  .word());
          if (n > 0) {
            js::ResetArena(ctx, arena);
            if (js::Run(ctx, arena, flash, host).kind == js::VmResult::Kind::kHalted) {
              ++app->notifications;
            }
            continue;
          }
          if (static_cast<Status>(n) == Status::kTimedOut) {
            continue;
          }
          ++app->reconnects;
          app->phase = "App. Setup#2";
          do {
            ctx.SleepCycles(kSecond / 4);
            session = connect();
          } while (!session.tag());
          app->phase = "Steady#2";
        }
        return StatusCap(Status::kOk);
      });
  js::RegisterMiniVmLibrary(b);
  net::UseNetwork(b, "js_app", net_options);
  sync::UseAllocator(b, "js_app");
  sync::UseScheduler(b, "js_app");
  compat::UseMalloc(b, "js_app", 8 * 1024);
  debug::AddConsoleCompartment(b);
  b.Thread("app", 3, 16 * 1024, 12, "js_app.main");
  System sys(machine, b.Build());
  sys.Boot();

  constexpr Cycles kSlice = kSecond / 4;
  CaseStudy out;
  Cycles pod_at = 0;
  uint32_t acks_before_pod = 0;
  bool published_first = false, pod_sent = false, published_second = false;
  Cycles second_publish_at = 0;
  for (int slice = 0; slice < 4 * 60 && !app->failed; ++slice) {
    sys.Run(kSlice);
    if (app->phase == "Steady" && !published_first) {
      world.PublishMqtt("leds", {'o', 'n'});
      published_first = true;
    } else if (published_first && !pod_sent && app->notifications >= 1) {
      acks_before_pod = world.dhcp_acks_sent();
      world.SendPingOfDeath();
      pod_sent = true;
      pod_at = sys.Now();
    } else if (pod_sent && out.recovery == 0 && world.dhcp_acks_sent() > acks_before_pod) {
      out.recovery = sys.Now() - pod_at;
    } else if (app->phase == "Steady#2" && !published_second) {
      if (second_publish_at == 0) {
        second_publish_at = sys.Now() + kSecond;
      } else if (sys.Now() >= second_publish_at) {
        world.PublishMqtt("leds", {'o', 'f', 'f'});
        published_second = true;
      }
    } else if (published_second && app->notifications >= 2) {
      break;
    }
  }
  out.notifications = app->notifications;
  out.reconnects = app->reconnects;
  out.led_events = machine.leds().events().size();
  return out;
}

// Fig. 6b: total guest cycles of all pairs at each size. EXPERIMENTS.md
// records the curve's shape only; these pin bench_alloc_throughput's
// cycles/pair column (2212 at 64 B ... 455600 at 112 KiB) times the pair
// count, as measured on this tree.
struct AllocRow {
  Word size;
  double cycles;
};
const AllocRow kFig6b[] = {
    {64, 44243138},
    {128, 32744194},
    {256, 16859404},
    {512, 8895026},
    {1024, 8138684},
    {2048, 7226175},
    {4096, 7095253},
    {8192, 7040798},
    {16384, 7886863},
    {32768, 7409906},
    {49152, 8902093},
    {65536, 8426495},
    {81920, 10900728},
    {98304, 10917569},
    {114688, 10934395},
};

}  // namespace

void CheckPaperScoreboard(Result& r) {
  auto row = [&r](const std::string& name, double measured, double expected) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "scoreboard %s: measured %.3f, expected %.3f",
                  name.c_str(), measured, expected);
    r.Check(measured == expected, buf);
  };
  row("fig6a function call", static_cast<double>(cost::kFunctionCall), 6);
  row("fig6a library call", LibraryCall(), 14);
  row("fig6a compartment call empty", CompartmentCall(0), 209);
  row("fig6a compartment call 2x256B", CompartmentCall(256), 465);
  row("fig6a compartment call 2x1KiB", CompartmentCall(1024), 1233);
  row("fig6a interrupt latency", InterruptLatency(), 1012);

  row("table3 unseal", Unseal(), 45);
  row("table3 allocate sealed object", SealedAlloc(), 2430);
  row("table3 allocate key", KeyNew(), 688);
  row("table3 de-privilege pointer", Deprivilege(), 4);
  row("table3 check pointer", CheckPointer(), 44);
  row("table3 ephemeral claim", EphemeralClaim(), 172);
  row("table3 heap claim + unclaim", ClaimUnclaim(), 3714);
  row("table3 fault + unwind", UnwindNoHandler(), 109);
  row("table3 fault + resume", GlobalHandlerFault(), 413);
  row("table3 scoped handler non-error", ScopedNonError(), 87);
  row("table3 scoped handler fault", ScopedFault(), 222);

  for (const AllocRow& a : kFig6b) {
    uint64_t pairs = 0;
    const double cycles = AllocCycles(a.size, &pairs);
    row("fig6b cycles for " + std::to_string(pairs) + " pairs of " + std::to_string(a.size) + " B",
        cycles, a.cycles);
  }

  const CaseStudy cs = RunCaseStudy();
  row("fig7 micro-reboot recovery (s)", static_cast<double>(cs.recovery) / cost::kCoreHz, 0.25);
  row("fig7 notifications", cs.notifications, 2);
  row("fig7 reconnects", cs.reconnects, 1);
  row("fig7 LED events", static_cast<double>(cs.led_events), 4);
}

}  // namespace perfbench
