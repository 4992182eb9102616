// Fig. 7 reproduction (§5.3.3): a JavaScript-driven IoT application that
// connects to an MQTT broker over TLS, subscribes to notifications, and
// flashes the board's LEDs when one arrives. Mid-run, a "ping of death"
// crashes the TCP/IP compartment, which micro-reboots; the application
// re-establishes its connection and service resumes.
//
// The harness samples CPU load (1 - idle fraction) in fixed slices, prints
// the per-phase table and a load timeline, and reports the micro-reboot
// duration. Timeline is compressed relative to the paper's 52 s FPGA run
// (our simulated network round-trips are milliseconds, not seconds); the
// *shape* — idle network phases, the handshake-bound setup spike, the
// micro-reboot dip and recovery — is the reproduction target.
// BENCH_case_study.json records every number the report prints.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/compat/posix_shim.h"
#include "src/debug/debug.h"
#include "src/js/minivm.h"
#include "src/net/netstack.h"
#include "src/net/world.h"
#include "src/rtos.h"
#include "src/sync/sync.h"

namespace cheriot {
namespace {

struct AppState {
  struct Phase {
    std::string name;
    Cycles start;
  };
  std::vector<Phase> phases;
  int notifications = 0;
  int reconnects = 0;
  bool failed = false;
};

constexpr Cycles kSecond = cost::kCoreHz;

// The notification handler script: flash the LEDs (host fn 0 = led_set).
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

EntryFn AppMain(std::shared_ptr<AppState> state) {
  return [state](CompartmentCtx& ctx, const std::vector<Capability>&) {
    auto phase = [&](const std::string& name) {
      state->phases.push_back({name, ctx.Now()});
    };
    const Capability quota = ctx.SealedImport("app_quota");
    const Capability led = ctx.Mmio("led");
    const js::Program flash = js::Assemble(kFlashScript);
    const Capability arena = compat::Malloc(ctx, js::kVmArenaBytes);
    std::vector<js::HostFn> host = {
        [led](CompartmentCtx& c, const std::vector<Word>& args) -> Word {
          c.StoreWord(led, 0, args.empty() ? 0 : args[0]);
          return 0;
        }};

    // --- Setup: DHCP/ARP bring-up, confirm connectivity. ---
    phase("Setup");
    if (static_cast<int32_t>(
            ctx.Call("tcpip.wait_ready", {WordCap(~0u)}).word()) != 0) {
      state->failed = true;
      return StatusCap(Status::kCompartmentFail);
    }
    ctx.Call("tcpip.ping", {WordCap(net::kWorldIp), WordCap(kSecond)});

    // --- NTP sync: periodic exchanges, almost entirely idle. ---
    phase("NTP Sync.");
    for (int i = 0; i < 3; ++i) {
      ctx.Call("sntp.sync", {WordCap(kSecond)});
      ctx.SleepCycles(kSecond / 2);
    }

    // --- App setup: DNS + TCP + TLS handshake + MQTT subscribe. ---
    auto connect = [&]() -> Capability {
      auto name_buf = ctx.AllocStack(32);
      const char kBroker[] = "mqtt.example.com";
      ctx.WriteBytes(name_buf.cap(), 0, kBroker, sizeof(kBroker) - 1);
      const Word ip =
          ctx.Call("dns.resolve",
                   {name_buf.cap(), WordCap(sizeof(kBroker) - 1)})
              .word();
      if (ip == 0) {
        return Capability();
      }
      auto id = ctx.AllocStack(8);
      ctx.WriteBytes(id.cap(), 0, "js-dev", 6);
      const Capability session = ctx.Call(
          "mqtt.connect", {quota, WordCap(ip), WordCap(net::kMqttTlsPort),
                           id.cap(), WordCap(6)});
      if (!session.tag()) {
        return session;
      }
      auto topic = ctx.AllocStack(8);
      ctx.WriteBytes(topic.cap(), 0, "leds", 4);
      ctx.Call("mqtt.subscribe", {session, topic.cap(), WordCap(4)});
      return session;
    };

    phase("App. Setup");
    Capability session = connect();
    if (!session.tag()) {
      state->failed = true;
      return StatusCap(Status::kCompartmentFail);
    }

    // --- Steady state: wait for notifications; recover from stack faults.
    phase("Steady");
    for (;;) {
      auto out = ctx.AllocStack(128);
      const Capability r = ctx.Call(
          "mqtt.poll",
          {session, out.cap(), WordCap(128), WordCap(kSecond / 2)});
      const auto n = static_cast<int32_t>(r.word());
      if (n > 0) {
        // Run the notification handler in the JavaScript VM.
        js::ResetArena(ctx, arena);
        const js::VmResult vm = js::Run(ctx, arena, flash, host);
        if (vm.kind == js::VmResult::Kind::kHalted) {
          ++state->notifications;
        }
        continue;
      }
      const auto status = static_cast<Status>(n);
      if (status == Status::kTimedOut) {
        continue;  // nothing this interval
      }
      // The stack died under us (micro-reboot): reconnect from scratch.
      ++state->reconnects;
      phase("App. Setup#2");
      do {
        ctx.SleepCycles(kSecond / 4);
        session = connect();
      } while (!session.tag());
      phase("Steady#2");
    }
    return StatusCap(Status::kOk);
  };
}

}  // namespace
}  // namespace cheriot

int main(int argc, char** argv) {
  using namespace cheriot;
  const bench::Output out("case_study", argc, argv);
  Machine machine;
  net::NetWorld world(machine);
  auto state = std::make_shared<AppState>();

  ImageBuilder b("iot-deployment");
  net::NetStackOptions net_options;
  net_options.ping_of_death_bug = true;  // the §5.3.3 crash trigger
  b.Compartment("js_app")
      .CodeSize(3 * 1024)
      .Globals(128)
      .AllocCap("app_quota", 33 * 1024)  // paper: 33 KB heap for the app
      .ImportMmio("led", kLedMmioBase, kMmioRegionSize, true)
      .ImportLibrary("minivm.interpreter")
      .Export("main", AppMain(state));
  js::RegisterMiniVmLibrary(b);
  net::UseNetwork(b, "js_app", net_options);
  sync::UseAllocator(b, "js_app");
  sync::UseScheduler(b, "js_app");
  compat::UseMalloc(b, "js_app", 8 * 1024);
  debug::AddConsoleCompartment(b);
  b.Thread("app", 3, 16 * 1024, 12, "js_app.main");

  System sys(machine, b.Build());
  sys.Boot();

  const size_t compartments = sys.boot().compartments.size();
  const auto& stats = sys.boot().stats;

  // --- Drive the run in slices, sampling CPU load. ---
  constexpr Cycles kSlice = cost::kCoreHz / 4;  // 250 ms
  struct Sample {
    double seconds;
    double load;
  };
  std::vector<Sample> timeline;
  Cycles idle_before = 0;
  Cycles pod_at = 0;
  Cycles stack_restored_at = 0;
  uint32_t dhcp_acks_before_pod = 0;
  bool published_first = false;
  bool pod_sent = false;
  bool published_second = false;
  Cycles steady2_publish_at = 0;

  auto current_phase = [&]() -> std::string {
    return state->phases.empty() ? "Boot" : state->phases.back().name;
  };

  for (int slice = 0; slice < 4 * 60; ++slice) {
    sys.Run(kSlice);
    const Cycles idle_now = sys.sched().idle_cycles();
    const double load =
        1.0 - static_cast<double>(idle_now - idle_before) / kSlice;
    idle_before = idle_now;
    timeline.push_back(
        {static_cast<double>(sys.Now()) / cost::kCoreHz, load});

    const std::string phase = current_phase();
    if (phase == "Steady" && !published_first) {
      world.PublishMqtt("leds", {'o', 'n'});
      published_first = true;
    } else if (published_first && !pod_sent && state->notifications >= 1) {
      dhcp_acks_before_pod = world.dhcp_acks_sent();
      world.SendPingOfDeath();
      pod_sent = true;
      pod_at = sys.Now();
    } else if (pod_sent && stack_restored_at == 0 &&
               world.dhcp_acks_sent() > dhcp_acks_before_pod) {
      stack_restored_at = sys.Now();  // the rebooted stack redid DHCP
    } else if (phase == "Steady#2" && !published_second) {
      if (steady2_publish_at == 0) {
        steady2_publish_at = sys.Now() + cost::kCoreHz;
      } else if (sys.Now() >= steady2_publish_at) {
        world.PublishMqtt("leds", {'o', 'f', 'f'});
        published_second = true;
      }
    } else if (published_second && state->notifications >= 2) {
      sys.Run(kSlice);  // a little tail
      break;
    }
    if (state->failed) {
      break;
    }
  }

  // --- Report. ---
  const double data_kb = (stats.globals_bytes + stats.stack_bytes +
                          stats.trusted_stack_bytes + stats.metadata_bytes) /
                         1024.0;
  std::printf("=== Figure 7: full-system CPU load for an IoT deployment ===\n");
  std::printf("compartments: %zu (paper: 13)   code+data: %.0f KB code, "
              "%.1f KB data+stacks, heap %u KB\n",
              compartments, stats.code_bytes / 1024.0, data_kb,
              stats.heap_bytes / 1024);
  json::Object fields = {{"compartments", compartments},
                         {"code_kb", stats.code_bytes / 1024.0},
                         {"data_stacks_kb", data_kb},
                         {"heap_kb", stats.heap_bytes / 1024}};

  std::printf("\nExecution phases (timeline compressed vs paper, see header):\n");
  std::printf("  %-14s %10s %10s %10s\n", "phase", "start(s)", "length(s)",
              "avg load");
  json::Array phases;
  for (size_t i = 0; i < state->phases.size(); ++i) {
    const double start =
        static_cast<double>(state->phases[i].start) / cost::kCoreHz;
    const double end = (i + 1 < state->phases.size())
                           ? static_cast<double>(state->phases[i + 1].start) /
                                 cost::kCoreHz
                           : timeline.back().seconds;
    double load_sum = 0;
    int load_n = 0;
    for (const auto& s : timeline) {
      if (s.seconds > start && s.seconds <= end + 0.25) {
        load_sum += s.load;
        ++load_n;
      }
    }
    const double load_pct = load_n > 0 ? 100.0 * load_sum / load_n : 0.0;
    std::printf("  %-14s %10.2f %10.2f %9.0f%%\n",
                state->phases[i].name.c_str(), start, end - start, load_pct);
    phases.push_back(json::Object{{"name", state->phases[i].name},
                                  {"start_s", start},
                                  {"length_s", end - start},
                                  {"load_pct", load_pct}});
  }
  fields["phases"] = std::move(phases);

  std::printf("\nCPU load timeline (250 ms samples):\n");
  json::Array samples;
  for (const auto& s : timeline) {
    const int bar = static_cast<int>(s.load * 50);
    std::printf("  %6.2fs %5.1f%% %s\n", s.seconds, 100 * s.load,
                std::string(static_cast<size_t>(bar < 0 ? 0 : bar), '#')
                    .c_str());
    samples.push_back(
        json::Object{{"time_s", s.seconds}, {"load_pct", 100 * s.load}});
  }
  fields["timeline"] = std::move(samples);

  const auto* tcpip = sys.boot().FindCompartment("tcpip");
  const double orchestration_s =
      tcpip->reboot_count
          ? static_cast<double>(tcpip->last_reboot_duration) / cost::kCoreHz
          : 0.0;
  std::printf("\nMicro-reboot: count=%u, orchestration=%.4f s (unwind + "
              "heap_free_all + globals reset)\n",
              tcpip->reboot_count, orchestration_s);
  fields["reboots"] = tcpip->reboot_count;
  fields["reboot_orchestration_s"] = orchestration_s;
  if (stack_restored_at != 0 && pod_at != 0) {
    const double back_after_s =
        static_cast<double>(stack_restored_at - pod_at) / cost::kCoreHz;
    std::printf("Network stack back on the air (DHCP redone) %.3f s after "
                "the attack (paper: 0.27 s)\n",
                back_after_s);
    fields["stack_back_after_s"] = back_after_s;
  }
  if (pod_at != 0) {
    const double pod_at_s = static_cast<double>(pod_at) / cost::kCoreHz;
    std::printf("ping-of-death injected at t=%.2f s\n", pod_at_s);
    fields["ping_of_death_at_s"] = pod_at_s;
  }
  std::printf("notifications handled by the JS VM: %d (LED events: %zu)\n",
              state->notifications, machine.leds().events().size());
  std::printf("app reconnects after fault: %d\n", state->reconnects);
  double total_load = 0;
  for (const auto& s : timeline) {
    total_load += s.load;
  }
  const double average_load_pct =
      timeline.empty() ? 0 : 100 * total_load / timeline.size();
  std::printf("average CPU load over the run: %.1f%% (paper: 46.5%% over "
              "52 s, mostly waiting on the network)\n",
              average_load_pct);
  fields["notifications"] = state->notifications;
  fields["led_events"] = machine.leds().events().size();
  fields["reconnects"] = state->reconnects;
  fields["average_load_pct"] = average_load_pct;
  const int rc = out.Write(std::move(fields));
  return state->failed ? 1 : rc;
}
