// The three fleet workloads: fleet_bringup, fleet_busy and fleet_observed.
//
// Untraced (--trace 0): one reference pass of the traced loop fixes the
// fingerprint digest for the seed, then sim::Fleet iterations (the timed
// part) repeat until the run's seconds are spent. Every iteration must end
// with that digest, whatever its worker count.
//
// Traced (--trace 1): each round runs the plan on sim::Fleet at the plan's
// worker count, on sim::Fleet at one worker, and on TracedFleet; the layer
// metrics come from TracedFleet's spans and from the two untraced walls.
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/common.h"
#include "perfbench/node_app.h"
#include "perfbench/traced_fleet.h"
#include "src/base/costs.h"
#include "src/cov/report.h"
#include "src/health/monitor.h"
#include "src/sim/fleet.h"
#include "src/trace/export.h"

namespace perfbench {

using namespace cheriot;

namespace {

constexpr Cycles kSecond = cost::kCoreHz;
constexpr Cycles kHorizon = 120 * kSecond;

// Seed-generated inputs of one fleet workload.
struct Plan {
  std::string name;
  int boards = 0;
  int workers = 1;
  bool publish_mode = false;
  bool recorders = false;        // trace, forensics, flow and cov on
  Cycles idle_tail = 0;          // bring-up: simulated idle tail
  std::vector<Cycles> cadence;   // bring-up: per-board telemetry cadence
  std::vector<std::vector<uint16_t>> payloads;  // publish: per board
  uint64_t total_publishes = 0;
};

// Per-board publish counts vary around `mean` in pairs (one board gets +d,
// the next -d) so every seed publishes the same total.
Plan MakePublishPlan(const std::string& name, uint64_t seed, int boards,
                     int workers, int mean, int spread) {
  Plan p;
  p.name = name;
  p.boards = boards;
  p.workers = workers;
  p.publish_mode = true;
  Rng rng(seed);
  std::vector<int> counts(static_cast<size_t>(boards), mean);
  for (int i = 0; i + 1 < boards; i += 2) {
    const int d = static_cast<int>(rng.Uniform(0, 2 * spread)) - spread;
    counts[static_cast<size_t>(i)] += d;
    counts[static_cast<size_t>(i) + 1] -= d;
  }
  for (int c : counts) {
    std::vector<uint16_t> lens(static_cast<size_t>(c));
    for (auto& len : lens) {
      len = static_cast<uint16_t>(rng.Uniform(8, 96));
    }
    p.total_publishes += lens.size();
    p.payloads.push_back(std::move(lens));
  }
  return p;
}

Plan MakeBringupPlan(uint64_t seed) {
  Plan p;
  p.name = "fleet_bringup";
  p.boards = 512;
  p.workers = 4;
  p.idle_tail = 60 * kSecond;
  Rng rng(seed);
  for (int i = 0; i < p.boards; ++i) {
    // Telemetry cadence between 2 and 8 simulated seconds, 1 ms grain.
    p.cadence.push_back(rng.Uniform(2000, 8000) * (kSecond / 1000));
  }
  return p;
}

// One board population plus the per-board images, rebuilt per pass so every
// pass starts from boot.
struct Population {
  std::vector<std::shared_ptr<NodeState>> states;

  FirmwareImage Image(const Plan& plan, int i) {
    NodeOptions o;
    o.index = i;
    o.publish_mode = plan.publish_mode;
    if (plan.publish_mode) {
      o.payload_lengths = plan.payloads[static_cast<size_t>(i)];
    } else {
      o.cadence = plan.cadence[static_cast<size_t>(i)];
    }
    auto state = std::make_shared<NodeState>();
    states.push_back(state);
    return BuildNodeImage(std::move(state), o);
  }
};

// What one pass over a plan measured and produced.
struct Pass {
  double construct_s = 0;
  double boot_s = 0;
  double ready_s = 0;    // boot -> every board leased / connected
  double publish_s = 0;  // "go" -> every publish received by the gateway
  double tail_s = 0;     // bring-up idle tail
  double export_s = 0;   // observed: every observer export written
  double restore_s = 0;  // observed: snapshot + replay restore + verify
  double trace_export_s = 0, flow_export_s = 0, cov_export_s = 0,
         health_assess_s = 0, snapshot_s = 0, replay_s = 0;
  uint64_t blob_bytes = 0;
  uint64_t export_digest = 0;
  uint64_t digest = 0;
  uint64_t accesses = 0;
  uint64_t revoker_epochs = 0;
  uint64_t barriers = 0, stepped = 0, skipped = 0;
  uint64_t flooded = 0, switched = 0;
  uint64_t gateway_publishes = 0;
  std::vector<std::string> failures;  // goal misses, bad publishes

  double goal_s() const { return ready_s + publish_s; }
  double window_s() const { return ready_s + publish_s + tail_s + export_s + restore_s; }
};

template <typename F>
uint64_t FleetDigest(F& fleet) {
  Digest d;
  for (size_t i = 0; i < fleet.size(); ++i) {
    const sim::Board::Fingerprint fp = fleet.board(i).fingerprint();
    for (uint64_t v : {fp.now, fp.accesses, fp.cap_loads, fp.cap_stores, fp.traps,
                       fp.idle_cycles, fp.uart_bytes, fp.uart_hash,
                       static_cast<uint64_t>(fp.reboots)}) {
      d.Add(v);
    }
  }
  return d.value();
}

bool WriteFile(const std::string& path, const std::string& body) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  return std::fclose(f) == 0 && ok;
}

double Timed(const std::function<void()>& fn) {
  const double t0 = HostNow();
  fn();
  return HostNow() - t0;
}

// Drives one pass of `plan` on a fleet (sim::Fleet or TracedFleet, which
// share these calls) from AddBoard to the end of the plan's phases.
template <typename F>
void DrivePlan(F& fleet, const Plan& plan, Population& pop, Pass& pass) {
  pass.construct_s = Timed([&] {
    for (int i = 0; i < plan.boards; ++i) {
      fleet.AddBoard(pop.Image(plan, i));
    }
  });
  pass.boot_s = Timed([&] { fleet.Boot(); });
  auto all = [&](auto pred) {
    for (const auto& s : pop.states) {
      if (!pred(*s)) {
        return false;
      }
    }
    return true;
  };
  bool ready = false;
  pass.ready_s = Timed([&] {
    ready = fleet.RunUntil(
        [&] {
          return plan.publish_mode ? all([](const NodeState& s) { return s.connected; })
                                   : all([](const NodeState& s) { return s.leased; });
        },
        kHorizon);
  });
  for (size_t i = 0; i < pop.states.size(); ++i) {
    const NodeState& s = *pop.states[i];
    if (s.failed || !(plan.publish_mode ? s.connected : s.leased)) {
      pass.failures.push_back("board " + std::to_string(i) + " missed its " +
                              (plan.publish_mode ? "MQTT session" : "DHCP lease"));
    }
  }
  if (!ready) {
    return;
  }
  if (plan.publish_mode) {
    const uint64_t before = fleet.gateway().mqtt_publishes_received();
    fleet.PublishMqtt("leds", {'g', 'o'});
    bool done = false;
    pass.publish_s = Timed([&] {
      done = fleet.RunUntil(
          [&] {
            return all([](const NodeState& s) { return s.done; }) &&
                   fleet.gateway().mqtt_publishes_received() - before >=
                       plan.total_publishes;
          },
          kHorizon);
    });
    pass.gateway_publishes = fleet.gateway().mqtt_publishes_received() - before;
    for (size_t i = 0; i < pop.states.size(); ++i) {
      const NodeState& s = *pop.states[i];
      const auto want = static_cast<int>(plan.payloads[i].size());
      if (!s.done || s.published != want || s.publish_failures != 0) {
        pass.failures.push_back("board " + std::to_string(i) + " published " +
                                std::to_string(s.published) + "/" + std::to_string(want) +
                                " with " + std::to_string(s.publish_failures) +
                                " nonzero returns");
      }
    }
    if (!done || pass.gateway_publishes != plan.total_publishes) {
      pass.failures.push_back("gateway received " + std::to_string(pass.gateway_publishes) +
                              " of " + std::to_string(plan.total_publishes) + " publishes");
    }
  } else {
    pass.tail_s = Timed([&] { fleet.Run(plan.idle_tail); });
    for (size_t i = 0; i < pop.states.size(); ++i) {
      if (pop.states[i]->failed || pop.states[i]->wakes == 0) {
        pass.failures.push_back("board " + std::to_string(i) + " idle tail broken");
      }
    }
  }
  pass.digest = FleetDigest(fleet);
  for (size_t i = 0; i < fleet.size(); ++i) {
    pass.accesses += fleet.board(i).machine().memory().access_count();
    pass.revoker_epochs += fleet.board(i).machine().revoker().epoch();
  }
  pass.barriers = fleet.barriers();
  pass.stepped = fleet.boards_stepped();
  pass.skipped = fleet.boards_skipped();
  pass.flooded = fleet.fabric().frames_flooded();
  pass.switched = fleet.fabric().frames_switched();
}

sim::FleetOptions FleetOptionsFor(int workers, bool recorders) {
  sim::FleetOptions o;
  o.host_threads = workers;
  o.trace = o.forensics = o.flow = o.cov = recorders;
  return o;
}

// Observer exports, then snapshot + replay restore + verify (fleet_observed).
void ExportAndRestore(sim::Fleet& fleet, const Plan& plan, const std::string& out_dir,
                      Pass& pass) {
  std::string trace_json, flow_json, cov_json, health_json;
  const std::string stem = out_dir + "/" + plan.name + "_";
  bool written = true;
  pass.trace_export_s = Timed([&] {
    trace_json = trace::MergedChromeTrace(fleet.TraceRecorders()).Dump(-1);
    written &= WriteFile(stem + "trace.json", trace_json);
  });
  pass.flow_export_s = Timed([&] {
    const flow::FlowRecorder& fr = *fleet.flow_recorder();
    flow_json = fr.FlowTableJson().Dump(-1) + "\n" + fr.HistogramsJson().Dump(-1) +
                "\n" + fr.MetricsJson().Dump(-1);
    written &= WriteFile(stem + "flow.json", flow_json);
  });
  pass.cov_export_s = Timed([&] {
    cov_json = cov::CoverageJson("perfbench-node", fleet.CovRecorders()).Dump(-1);
    written &= WriteFile(stem + "cov.json", cov_json);
  });
  pass.health_assess_s = Timed([&] {
    health_json = health::FleetHealthReport(fleet).Dump(-1);
    written &= WriteFile(stem + "health.json", health_json);
  });
  pass.export_s = pass.trace_export_s + pass.flow_export_s + pass.cov_export_s +
                  pass.health_assess_s;
  Digest exports;
  for (const std::string* s : {&trace_json, &flow_json, &cov_json, &health_json}) {
    exports.AddBytes(*s);
  }
  pass.export_digest = exports.value();
  if (!written) {
    pass.failures.push_back("observer export not written under " + out_dir);
  }

  std::vector<uint8_t> blob;
  pass.snapshot_s = Timed([&] { fleet.Snapshot(blob); });
  pass.blob_bytes = blob.size();
  Population replay_pop;
  std::unique_ptr<sim::Fleet> restored;
  pass.replay_s = Timed([&] {
    try {
      restored = sim::Fleet::Restore(
          blob, [&](int i) { return replay_pop.Image(plan, i); }, 1);
    } catch (const std::exception& e) {
      pass.failures.push_back(std::string("fleet restore failed: ") + e.what());
    }
  });
  pass.restore_s = pass.snapshot_s + pass.replay_s;
  if (restored != nullptr && FleetDigest(*restored) != FleetDigest(fleet)) {
    pass.failures.push_back("restored fleet fingerprints differ");
  }
}

Pass RunFleetPass(const Plan& plan, int workers, bool recorders,
                  const std::string& out_dir) {
  Pass pass;
  Population pop;
  sim::Fleet fleet(FleetOptionsFor(workers, recorders));
  DrivePlan(fleet, plan, pop, pass);
  if (recorders && pass.failures.empty()) {
    ExportAndRestore(fleet, plan, out_dir, pass);
  }
  return pass;
}

Pass RunTracedPass(const Plan& plan, Spans* spans) {
  Pass pass;
  Population pop;
  TracedFleet fleet(spans);
  DrivePlan(fleet, plan, pop, pass);
  return pass;
}

// Counts one pass's operations (every board's goal, every publish, the
// gateway's total) and adds each of its failures, with its reason.
void CountOps(Result& r, const Plan& plan, const Pass& pass) {
  const uint64_t ops = static_cast<uint64_t>(plan.boards) + plan.total_publishes +
                       (plan.publish_mode ? 1 : 0);
  r.attempted += ops;
  for (const std::string& f : pass.failures) {
    r.Check(false, plan.name + ": " + f);
  }
}

Result RunUntraced(const RunConfig& config, const Plan& plan) {
  Result r;
  // Reference: the traced single-worker loop, recording nothing, fixes this
  // seed's digest.
  const Pass reference = RunTracedPass(plan, nullptr);
  CountOps(r, plan, reference);
  r.Check(ResetPeakRss(), "cannot reset the peak RSS before the timed iterations");

  std::vector<double> setup, goal, rate, ready, publish_rate, tail_rate, export_s,
      restore_s;
  uint64_t first_exports = 0;
  const double deadline = HostNow() + config.seconds;
  int iterations = 0;
  while (iterations < 4 || HostNow() < deadline) {
    if (plan.workers == 1) {
      RotateCpu(iterations);
    }
    const Pass pass = RunFleetPass(plan, plan.workers, plan.recorders, config.out_dir);
    ++iterations;
    CountOps(r, plan, pass);
    r.Check(pass.digest == reference.digest,
            "iteration " + std::to_string(iterations) +
                ": fingerprint digest differs from the traced 1-worker digest");
    if (plan.recorders) {
      if (iterations == 1) {
        first_exports = pass.export_digest;
      }
      r.Check(pass.export_digest == first_exports,
              "iteration " + std::to_string(iterations) +
                  ": observer exports differ from the first iteration's bytes");
    }
    if (iterations == 1) {
      continue;  // warm-up: the process's first fleet also pays fresh page faults
    }
    setup.push_back(pass.construct_s + pass.boot_s);
    goal.push_back(pass.goal_s());
    rate.push_back(static_cast<double>(pass.accesses) / 1e6 / pass.window_s());
    ready.push_back(pass.ready_s);
    if (plan.publish_mode) {
      publish_rate.push_back(static_cast<double>(pass.gateway_publishes) / pass.publish_s);
    } else {
      tail_rate.push_back(static_cast<double>(plan.idle_tail) / kSecond / pass.tail_s);
    }
    if (plan.recorders) {
      export_s.push_back(pass.export_s);
      restore_s.push_back(pass.restore_s);
    }
    if (!pass.failures.empty()) {
      break;  // a broken fleet will not mend itself on the next iteration
    }
  }
  r.Set("setup_s", Median(setup));
  r.Set("goal_s", Median(goal));
  r.Set("guest_maccess_per_s", Median(rate));
  r.Set("rss_mb_per_board", PeakRssMb() / plan.boards);
  r.Note("iterations", iterations, "count");
  r.Note("goal_s_q1", Quantile(goal, 0.25), "s");
  r.Note("goal_s_q3", Quantile(goal, 0.75), "s");
  r.Note("bringup_s", Median(ready), "s");
  if (plan.publish_mode) {
    r.Note("publishes_per_s", Median(publish_rate), "1/s");
  } else {
    r.Note("idle_sim_s_per_host_s", Median(tail_rate), "s/s");
  }
  if (plan.recorders) {
    r.Note("export_s", Median(export_s), "s");
    r.Note("restore_s", Median(restore_s), "s");
  }
  return r;
}

// One traced round's layer figures, before taking medians across rounds.
using Figures = std::map<std::string, double>;

// Host seconds per span that the recorder spends outside the span's own
// interval (the push before its start is read, the bookkeeping after its end
// is read), from a run of empty spans.
double SpanOutsideCostS() {
  constexpr int kSpans = 200'000;
  Spans calibration;
  const uint32_t name = calibration.Name("empty");
  const uint64_t t0 = HostNs();
  for (int i = 0; i < kSpans; ++i) {
    Scoped s(&calibration, name);
  }
  const uint64_t wall = HostNs() - t0;
  return static_cast<double>(wall - calibration.totals("empty").total_ns) * 1e-9 / kSpans;
}

Figures TracedRound(Result& r, const Plan& plan, Spans& spans, const std::string& out_dir,
                    double span_cost_s) {
  // `wide` is the plan as benchmarked; `single` is one worker with the
  // recorders off, the baseline of the overhead and orchestration figures.
  const Pass wide = RunFleetPass(plan, plan.workers, plan.recorders, out_dir);
  const Pass single = plan.workers == 1 && !plan.recorders
                          ? wide
                          : RunFleetPass(plan, 1, false, out_dir);
  const Pass& parallel = plan.recorders ? single : wide;
  const Pass traced = RunTracedPass(plan, &spans);
  CountOps(r, plan, wide);
  CountOps(r, plan, traced);
  r.Check(wide.digest == traced.digest, "fingerprint digest: " +
                                            std::to_string(plan.workers) +
                                            "-worker Fleet differs from the traced run");
  r.Check(single.digest == traced.digest,
          "fingerprint digest: 1-worker Fleet differs from the traced run");
  r.Check(single.barriers == traced.barriers && single.stepped == traced.stepped &&
              single.skipped == traced.skipped,
          "schedule: Fleet barriers/steps/parks " + std::to_string(single.barriers) + "/" +
              std::to_string(single.stepped) + "/" + std::to_string(single.skipped) +
              " vs traced " + std::to_string(traced.barriers) + "/" +
              std::to_string(traced.stepped) + "/" + std::to_string(traced.skipped));

  Figures f;
  const char* layers[] = {"sim.board.step", "sim.board.next_event", "sim.board.drain",
                          "sim.board.inject", "sim.fabric.transmit", "net.gateway.on_frame"};
  double layer_sum = 0;
  uint64_t layer_spans = 0;
  for (const char* l : layers) {
    layer_sum += spans.self_s(l);
    layer_spans += spans.calls(l);
  }
  const double traced_run = traced.ready_s + traced.publish_s + traced.tail_s;
  const double single_run = single.ready_s + single.publish_s + single.tail_s;
  const double parallel_run = parallel.ready_s + parallel.publish_s + parallel.tail_s;
  f["sim.board.construct_s"] = spans.total_s("sim.board.construct");
  f["sim.board.boot_s"] = spans.total_s("sim.board.boot");
  f["sim.board.step_s"] = spans.self_s("sim.board.step");
  f["sim.board.step_calls"] = spans.calls("sim.board.step");
  f["sim.board.next_event_s"] = spans.self_s("sim.board.next_event");
  f["sim.board.drain_s"] = spans.self_s("sim.board.drain");
  f["sim.board.inject_s"] = spans.self_s("sim.board.inject");
  f["sim.board.inject_calls"] = spans.calls("sim.board.inject");
  f["sim.fabric.transmit_s"] = spans.self_s("sim.fabric.transmit");
  f["sim.fabric.frames_flooded"] = traced.flooded;
  f["sim.fabric.frames_switched"] = traced.switched;
  f["net.gateway.on_frame_s"] = spans.self_s("net.gateway.on_frame");
  f["net.gateway.frames"] = spans.calls("net.gateway.on_frame");
  f["sim.fleet.barriers"] = traced.barriers;
  f["sim.fleet.boards_stepped"] = traced.stepped;
  f["sim.fleet.boards_skipped"] = traced.skipped;
  // The traced loop's own time outside every layer call: epoch choice, the
  // parking scan, the dirty-list sort and the inbox handling. Both terms come
  // from the traced pass (the untraced 1-worker wall minus the traced layer
  // sum goes negative under span overhead), and the recorder's own cost
  // outside its spans is taken out at the calibrated per-span rate.
  f["sim.fleet.orchestration_s"] =
      traced_run - layer_sum - static_cast<double>(layer_spans) * span_cost_s;
  f["sim.fleet.parallel_efficiency"] =
      spans.self_s("sim.board.step") / (plan.workers * parallel_run);
  f["mem.accesses"] = traced.accesses;
  f["hw.revoker.epochs"] = traced.revoker_epochs;
  f["bench.trace_overhead"] = traced_run / single_run;
  f["layer_share.step"] = spans.self_s("sim.board.step") / traced_run;
  f["layer_share.inject_fabric"] =
      (spans.self_s("sim.board.inject") + spans.self_s("sim.fabric.transmit")) / traced_run;
  f["layer_share.gateway"] = spans.self_s("net.gateway.on_frame") / traced_run;
  if (plan.recorders) {
    // Recorders on (wide) vs off (single), same plan and worker count.
    f["obs.record_overhead"] = wide.goal_s() / single.goal_s();
    f["trace.export_s"] = wide.trace_export_s;
    f["flow.export_s"] = wide.flow_export_s;
    f["cov.export_s"] = wide.cov_export_s;
    f["health.assess_s"] = wide.health_assess_s;
    f["snap.snapshot_s"] = wide.snapshot_s;
    f["snap.blob_bytes"] = wide.blob_bytes;
    f["snap.restore_s"] = wide.replay_s;
  }
  return f;
}

Result RunTraced(const RunConfig& config, const Plan& plan) {
  Result r;
  std::map<std::string, std::vector<double>> rounds;
  std::unique_ptr<Spans> last;
  const double span_cost_s = SpanOutsideCostS();
  r.Note("span_outside_cost_ns", span_cost_s * 1e9, "ns");
  const double deadline = HostNow() + config.seconds;
  uint32_t round = 0;
  do {
    auto spans = std::make_unique<Spans>();
    spans->set_run(round++);
    for (const auto& [name, value] :
         TracedRound(r, plan, *spans, config.out_dir, span_cost_s)) {
      rounds[name].push_back(value);
    }
    last = std::move(spans);
  } while (HostNow() < deadline && r.failed == 0);
  for (const auto& [name, values] : rounds) {
    if (name.rfind("layer_share.", 0) == 0) {
      r.Note(name, Median(values), "ratio");
    } else {
      r.Set(name, Median(values));
    }
  }
  r.Note("rounds", round, "count");
  if (!config.spans_path.empty() && !last->Write(config.spans_path, 200'000)) {
    r.Check(false, "cannot write span file " + config.spans_path);
  }
  return r;
}

Result RunPlan(const RunConfig& config, const Plan& plan) {
  return config.trace ? RunTraced(config, plan) : RunUntraced(config, plan);
}

}  // namespace

Result RunFleetBringup(const RunConfig& config) {
  return RunPlan(config, MakeBringupPlan(config.seed));
}

Result RunFleetBusy(const RunConfig& config) {
  return RunPlan(config, MakePublishPlan("fleet_busy", config.seed, 64, 4, 512, 64));
}

Result RunFleetObserved(const RunConfig& config) {
  Plan plan = MakePublishPlan("fleet_observed", config.seed, 16, 1, 128, 16);
  plan.recorders = true;
  return RunPlan(config, plan);
}

}  // namespace perfbench
