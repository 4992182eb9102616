// perfbench: the repository benchmark's binary. run.py builds it and
// runs one workload per process:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>]
//
// It prints a human-readable report, then, as its last line, one JSON object
// with `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
// with --trace 0 and the per-layer metrics with --trace 1 (README.md has the
// definitions). A metric a workload's layers do not exercise reads 0 in the
// traced run.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "perfbench/common.h"

namespace {

using perfbench::Result;
using perfbench::RunConfig;

struct MetricDef {
  const char* name;
  const char* unit;
};

const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"goal_s", "s"},
    {"guest_maccess_per_s", "M/s"},
    {"rss_mb_per_board", "MB"},
};

const MetricDef kPerLayer[] = {
    {"sim.board.construct_s", "s"},
    {"sim.board.boot_s", "s"},
    {"sim.board.step_s", "s"},
    {"sim.board.step_calls", "count"},
    {"sim.board.next_event_s", "s"},
    {"sim.board.drain_s", "s"},
    {"sim.board.inject_s", "s"},
    {"sim.board.inject_calls", "count"},
    {"sim.fabric.transmit_s", "s"},
    {"sim.fabric.frames_flooded", "count"},
    {"sim.fabric.frames_switched", "count"},
    {"net.gateway.on_frame_s", "s"},
    {"net.gateway.frames", "count"},
    {"sim.fleet.barriers", "count"},
    {"sim.fleet.boards_stepped", "count"},
    {"sim.fleet.boards_skipped", "count"},
    {"sim.fleet.orchestration_s", "s"},
    {"sim.fleet.parallel_efficiency", "ratio"},
    {"switcher.call_ns_p50", "ns"},
    {"switcher.call_ns_p99", "ns"},
    {"switcher.call_samples", "count"},
    {"alloc.pair_ns_p50", "ns"},
    {"alloc.pair_ns_p99", "ns"},
    {"alloc.pair_samples", "count"},
    {"mem.word_access_ns", "ns"},
    {"mem.cap_access_ns", "ns"},
    {"mem.accesses", "count"},
    {"hw.revoker.epochs", "count"},
    {"trace.export_s", "s"},
    {"flow.export_s", "s"},
    {"cov.export_s", "s"},
    {"health.assess_s", "s"},
    {"obs.record_overhead", "ratio"},
    {"snap.snapshot_s", "s"},
    {"snap.blob_bytes", "bytes"},
    {"snap.restore_s", "s"},
    {"bench.trace_overhead", "ratio"},
};

using Runner = Result (*)(const RunConfig&);

const std::map<std::string, Runner>& Workloads() {
  static const std::map<std::string, Runner> kWorkloads = {
      {"fleet_bringup", perfbench::RunFleetBringup},
      {"fleet_busy", perfbench::RunFleetBusy},
      {"board_compute", perfbench::RunBoardCompute},
      {"fleet_observed", perfbench::RunFleetObserved},
  };
  return kWorkloads;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  config.out_dir = ".";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      config.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--out-dir") {
      config.out_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  const auto it = Workloads().find(config.workload);
  if (it == Workloads().end()) {
    return Usage("unknown workload");
  }
  if (config.trace) {
    config.spans_path = config.out_dir + "/spans_" + config.workload + "_" +
                        std::to_string(config.seed) + ".tsv";
  }
  // The fleet's fast-forward switch must be the default in every pass: the
  // traced loop mirrors the default schedule only.
  unsetenv("CHERIOT_FLEET_FAST_FORWARD");
  // Pin glibc's mmap threshold at its initial 128 KiB. Left dynamic, it rises
  // after the first large free, and whether later boards' SRAM and shadow
  // buffers then come from fresh (faulting) mappings or from retained heap
  // depends on heap layout: setup times split into two clusters ~3x apart
  // from one process to the next. Pinned, every board maps fresh memory, as
  // in a process that builds its fleet once.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);

  Result result = it->second(config);

  const MetricDef* defs = config.trace ? kPerLayer : kEndToEnd;
  const size_t n = config.trace ? std::size(kPerLayer) : std::size(kEndToEnd);
  for (size_t i = 0; i < n; ++i) {
    const auto m = result.metrics.find(defs[i].name);
    if (m == result.metrics.end()) {
      if (!config.trace) {
        result.Check(false, std::string("metric not measured: ") + defs[i].name);
      }
      result.metrics[defs[i].name] = 0;
    }
  }

  std::printf("== perfbench %s seed=%llu trace=%d\n", config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.trace ? 1 : 0);
  for (const perfbench::ReportLine& note : result.report) {
    std::printf("  %-32s %.6g %s\n", note.name.c_str(), note.value, note.unit.c_str());
  }
  for (size_t i = 0; i < n; ++i) {
    std::printf("  %-32s %.6g %s\n", defs[i].name, result.metrics[defs[i].name], defs[i].unit);
  }
  std::printf("  %-32s %.6g (failed %llu of %llu attempted)\n", "failed_op_share",
              static_cast<double>(result.failed) / static_cast<double>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));
  for (const std::string& e : result.errors) {
    std::printf("  FAILED: %s\n", e.c_str());
  }

  std::string json = "{\"correct\": ";
  json += result.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < n; ++i) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", defs[i].name, result.metrics[defs[i].name],
                  defs[i].unit);
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
