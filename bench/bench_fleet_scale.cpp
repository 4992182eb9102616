// Fleet scaling: aggregate simulated board-cycles per wall-clock second as a
// function of host worker threads, measured over the fleet's *busy* phase —
// boot, DHCP, TLS-lite handshake and a burst of back-to-back MQTT publishes
// from every board. Because the determinism contract makes results
// bit-identical for every thread count (tests/fleet_test.cpp), the thread
// axis only moves wall-clock time — which is exactly what this bench records
// in BENCH_fleet_scale.json, together with the busy/idle cycle split and the
// number of epoch barriers each configuration took.
//
// A second, idle-heavy scenario measures what idle fast-forward and adaptive
// epoch coarsening buy on their own: the same fleet brought up to steady
// state and then left polling for 60 simulated seconds, run single-worker
// with fast-forward on vs off. Idle boards skip to their next event in O(1)
// and all-idle fleets coarsen the epoch past the link-latency bound, so this
// ratio is the headline win for telemetry-style fleets.
//
// Honesty on small hosts: the busy-phase speedup is bounded by the host's
// physical core count. When host_hardware_concurrency < the largest worker
// count tested, every worker serializes and each epoch barrier adds host
// context switches; the JSON then carries "host_undersized": true and the
// console omits the speedup headline rather than print a misleading one.
//
// --demo-boards=N boots an N-board fleet (no busy burst), brings it to DHCP
// steady state and idles it for 10 simulated seconds — the 1000-board demo
// from EXPERIMENTS.md. It prints how the bring-up's epoch time splits
// between stepping boards and the serial frame exchange, and exits 1 if any
// board misses its lease. Off by default; it is a demo, not a benchmark.
#include <benchmark/benchmark.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/provenance.h"
#include "src/base/costs.h"
#include "src/sim/fleet.h"
#include "src/sim/fleet_app.h"

namespace cheriot {
namespace {

constexpr int kBoards = 8;
constexpr int kBusyPublishes = 64;
constexpr int kPublishGoal = 1 + kBusyPublishes;  // announce + burst
constexpr Cycles kMaxHorizon = 60 * cost::kCoreHz;
constexpr Cycles kIdleHorizon = 60 * cost::kCoreHz;

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct Result {
  int threads;
  double seconds;
  uint64_t sim_cycles;    // summed over boards
  uint64_t busy_cycles;   // sim_cycles minus the idle share
  uint64_t idle_cycles;   // summed idle_cycles fingerprint field
  uint64_t barriers;      // epoch barriers the run took
  uint64_t frames;
  bool completed;
  double cycles_per_sec() const { return sim_cycles / seconds; }
  double frames_per_sec() const { return frames / seconds; }
};

struct FleetUnderTest {
  std::unique_ptr<sim::Fleet> fleet;
  std::vector<std::shared_ptr<sim::FleetAppState>> states;
};

FleetUnderTest MakeFleet(int boards, int host_threads, int busy_publishes,
                         Cycles poll_timeout = 0) {
  FleetUnderTest out;
  sim::FleetOptions options;
  options.host_threads = host_threads;
  out.fleet = std::make_unique<sim::Fleet>(options);
  for (int i = 0; i < boards; ++i) {
    auto state = std::make_shared<sim::FleetAppState>();
    sim::FleetAppOptions app;
    app.board_index = i;
    app.busy_publishes = busy_publishes;
    app.poll_timeout = poll_timeout;
    out.fleet->AddBoard(sim::BuildFleetAppImage(state, app));
    out.states.push_back(std::move(state));
  }
  out.fleet->Boot();
  return out;
}

// Sums the per-board fingerprints into the Result's cycle split. busy + idle
// == clock by construction (DESIGN.md §6.1), so busy is derived, not sampled.
void FillCycleSplit(sim::Fleet& fleet, Result* r) {
  r->sim_cycles = 0;
  r->idle_cycles = 0;
  for (size_t i = 0; i < fleet.size(); ++i) {
    auto fp = fleet.board(i).fingerprint();
    r->sim_cycles += fp.now;
    r->idle_cycles += fp.idle_cycles;
  }
  r->busy_cycles = r->sim_cycles - r->idle_cycles;
  r->barriers = fleet.barriers();
  r->frames = fleet.frames_exchanged();
}

Result RunBusyConfig(int host_threads) {
  FleetUnderTest f = MakeFleet(kBoards, host_threads, kBusyPublishes);
  const auto t0 = std::chrono::steady_clock::now();
  const bool completed = f.fleet->RunUntil(
      [&] {
        for (const auto& s : f.states) {
          if (s->publishes < kPublishGoal) {
            return false;
          }
        }
        return true;
      },
      kMaxHorizon);
  Result r;
  r.threads = host_threads;
  r.seconds = SecondsSince(t0);
  r.completed = completed;
  FillCycleSplit(*f.fleet, &r);
  benchmark::DoNotOptimize(r.frames);
  return r;
}

// Idle-heavy scenario: bring the fleet to MQTT steady state (untimed), then
// time 60 simulated seconds of the poll loop. fast-forward on/off is forced
// through the env override so the comparison uses the exact production path.
Result RunIdleConfig(bool fast_forward) {
  setenv("CHERIOT_FLEET_FAST_FORWARD", fast_forward ? "1" : "0", 1);
  // Telemetry cadence: boards sleep 5 simulated seconds between polls, so
  // nearly all of the measured span is idle time.
  FleetUnderTest f = MakeFleet(kBoards, /*host_threads=*/1,
                               /*busy_publishes=*/0,
                               /*poll_timeout=*/5 * cost::kCoreHz);
  f.fleet->RunUntil(
      [&] {
        for (const auto& s : f.states) {
          if (!s->connected) {
            return false;
          }
        }
        return true;
      },
      kMaxHorizon);
  const uint64_t barriers_before = f.fleet->barriers();
  uint64_t cycles_before = 0;
  for (size_t i = 0; i < f.fleet->size(); ++i) {
    cycles_before += f.fleet->board(i).Now();
  }
  const auto t0 = std::chrono::steady_clock::now();
  f.fleet->Run(kIdleHorizon);
  Result r;
  r.threads = 1;
  r.seconds = SecondsSince(t0);
  r.completed = true;
  FillCycleSplit(*f.fleet, &r);
  r.sim_cycles -= cycles_before;  // time only the idle span
  r.barriers -= barriers_before;
  unsetenv("CHERIOT_FLEET_FAST_FORWARD");
  benchmark::DoNotOptimize(r.frames);
  return r;
}

// --demo-boards=N: DHCP bring-up + 10 idle seconds at fleet scale. Returns
// whether every board got its lease.
bool RunDemo(int boards) {
  std::printf("=== fleet demo: %d boards, bring-up + 10 idle seconds ===\n",
              boards);
  const auto t0 = std::chrono::steady_clock::now();
  FleetUnderTest f = MakeFleet(boards, /*host_threads=*/4,
                               /*busy_publishes=*/0);
  const bool up = f.fleet->RunUntil(
      [&] {
        for (const auto& s : f.states) {
          if (!s->ready) {
            return false;
          }
        }
        return true;
      },
      kMaxHorizon);
  const double bringup = SecondsSince(t0);
  const double step = f.fleet->host_step_seconds();
  const double exchange = f.fleet->host_exchange_seconds();
  const auto t1 = std::chrono::steady_clock::now();
  f.fleet->Run(10 * cost::kCoreHz);
  const double idle = SecondsSince(t1);
  Result r;
  r.seconds = bringup + idle;
  FillCycleSplit(*f.fleet, &r);
  std::printf(
      "  bring-up%s %.1f s (step %.2f s, exchange %.2f s: %.0f%% exchange), "
      "idle span %.1f s, %llu barriers, %llu frames, "
      "busy/idle = %llu/%llu Mcycles\n",
      up ? "" : " (incomplete)", bringup, step, exchange,
      100.0 * exchange / (step + exchange), idle,
      static_cast<unsigned long long>(r.barriers),
      static_cast<unsigned long long>(r.frames),
      static_cast<unsigned long long>(r.busy_cycles / 1000000),
      static_cast<unsigned long long>(r.idle_cycles / 1000000));
  return up;
}

}  // namespace
}  // namespace cheriot

int main(int argc, char** argv) {
  using namespace cheriot;
  const char* json_path = "BENCH_fleet_scale.json";
  int demo_boards = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--demo-boards=", 14) == 0) {
      demo_boards = std::atoi(argv[i] + 14);
    }
  }
  if (demo_boards > 0) {
    return RunDemo(demo_boards) ? 0 : 1;
  }

  // Reach steady-state CPU frequency before timing anything.
  {
    volatile uint64_t sink = 0;
    const auto t0 = std::chrono::steady_clock::now();
    while (SecondsSince(t0) < 0.5) {
      for (int i = 0; i < 4096; ++i) {
        sink += i;
      }
    }
  }

  std::printf(
      "=== fleet scaling: %d boards, busy phase = bring-up + %d publishes "
      "===\n",
      kBoards, kBusyPublishes);
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("host hardware concurrency: %u\n", hw);

  const int kThreadCounts[] = {1, 2, 4};
  const bool host_undersized =
      hw < static_cast<unsigned>(kThreadCounts[2]);
  std::vector<Result> results;
  for (int threads : kThreadCounts) {
    // Best of three: the minimum is least disturbed by host scheduling noise.
    Result best = RunBusyConfig(threads);
    for (int run = 1; run < 3; ++run) {
      Result r = RunBusyConfig(threads);
      if (r.seconds < best.seconds) {
        best = r;
      }
    }
    std::printf(
        "  threads=%d  %8.1f M sim-cycles/s  %8.0f frames/s  "
        "%llu barriers  busy/idle = %llu/%llu Mcycles  (%.3f s%s)\n",
        best.threads, best.cycles_per_sec() / 1e6, best.frames_per_sec(),
        static_cast<unsigned long long>(best.barriers),
        static_cast<unsigned long long>(best.busy_cycles / 1000000),
        static_cast<unsigned long long>(best.idle_cycles / 1000000),
        best.seconds, best.completed ? "" : ", workload DID NOT complete");
    results.push_back(best);
  }

  const double speedup_4_vs_1 =
      results[2].cycles_per_sec() / results[0].cycles_per_sec();
  if (host_undersized) {
    std::printf(
        "  host undersized (%u hardware threads < 4 workers): speedup "
        "headline suppressed; see host_undersized in the JSON\n",
        hw);
  } else {
    std::printf("  speedup 4 threads vs 1: %.2fx\n", speedup_4_vs_1);
  }

  Result idle_off = RunIdleConfig(/*fast_forward=*/false);
  Result idle_on = RunIdleConfig(/*fast_forward=*/true);
  const double idle_speedup =
      idle_on.cycles_per_sec() / idle_off.cycles_per_sec();
  std::printf(
      "=== idle-heavy: %d boards, 60 idle sim-seconds, 1 worker ===\n"
      "  fast-forward off: %8.1f M sim-cycles/s  %llu barriers\n"
      "  fast-forward on:  %8.1f M sim-cycles/s  %llu barriers\n"
      "  fast-forward speedup: %.1fx\n",
      kBoards, idle_off.cycles_per_sec() / 1e6,
      static_cast<unsigned long long>(idle_off.barriers),
      idle_on.cycles_per_sec() / 1e6,
      static_cast<unsigned long long>(idle_on.barriers), idle_speedup);

  FILE* f = std::fopen(json_path, "w");
  if (!f) {
    std::fprintf(stderr, "cannot write '%s': %s\n", json_path,
                 std::strerror(errno));
    return 1;
  }
  std::fprintf(f, "{\n%s", bench::ProvenanceJson().c_str());
  std::fprintf(f, "  \"bench\": \"fleet_scale\",\n");
  std::fprintf(f,
               "  \"unit\": \"aggregate simulated cycles per host second\",\n");
  std::fprintf(f, "  \"boards\": %d,\n", kBoards);
  std::fprintf(f, "  \"busy_publishes\": %d,\n", kBusyPublishes);
  std::fprintf(f, "  \"host_hardware_concurrency\": %u,\n", hw);
  std::fprintf(f, "  \"host_undersized\": %s,\n",
               host_undersized ? "true" : "false");
  for (const Result& r : results) {
    std::fprintf(f, "  \"threads_%d_cycles_per_sec\": %.0f,\n", r.threads,
                 r.cycles_per_sec());
    std::fprintf(f, "  \"threads_%d_frames_per_sec\": %.0f,\n", r.threads,
                 r.frames_per_sec());
    std::fprintf(f, "  \"threads_%d_busy_cycles\": %llu,\n", r.threads,
                 static_cast<unsigned long long>(r.busy_cycles));
    std::fprintf(f, "  \"threads_%d_idle_cycles\": %llu,\n", r.threads,
                 static_cast<unsigned long long>(r.idle_cycles));
    std::fprintf(f, "  \"threads_%d_barriers\": %llu,\n", r.threads,
                 static_cast<unsigned long long>(r.barriers));
  }
  std::fprintf(f, "  \"idle_ff_off_cycles_per_sec\": %.0f,\n",
               idle_off.cycles_per_sec());
  std::fprintf(f, "  \"idle_ff_off_barriers\": %llu,\n",
               static_cast<unsigned long long>(idle_off.barriers));
  std::fprintf(f, "  \"idle_ff_on_cycles_per_sec\": %.0f,\n",
               idle_on.cycles_per_sec());
  std::fprintf(f, "  \"idle_ff_on_barriers\": %llu,\n",
               static_cast<unsigned long long>(idle_on.barriers));
  std::fprintf(f, "  \"idle_ff_speedup\": %.3f,\n", idle_speedup);
  std::fprintf(f, "  \"speedup_4_vs_1\": %.3f\n}\n", speedup_4_vs_1);
  std::fclose(f);
  std::printf("wrote %s\n", json_path);
  return 0;
}
