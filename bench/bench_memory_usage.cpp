// Table 2 reproduction: code and data size of CHERIoT RTOS components, for
// the base system and the base+network-stack configuration, plus the
// per-compartment overhead (§5.3.1).
//
// Data-side numbers (globals, stacks, trusted stacks, import/export
// metadata) are *measured* from the loader's layout; code sizes are the
// modelled per-component sizes (see EXPERIMENTS.md for the accounting).
// BENCH_memory_usage.json records the measured numbers.
#include <cstdio>

#include "bench/harness.h"
#include "src/debug/debug.h"
#include "src/net/netstack.h"
#include "src/rtos.h"

namespace cheriot {
namespace {

EntryFn Nop() {
  return [](CompartmentCtx&, const std::vector<Capability>&) {
    return Capability();
  };
}

struct ImageStats {
  LayoutStats layout;
  std::vector<std::pair<std::string, std::pair<uint32_t, uint32_t>>>
      components;  // name -> (code, wrapper)
  std::vector<std::pair<std::string, uint32_t>> data_sizes;
  size_t compartments = 0;
};

ImageStats Measure(FirmwareImage image) {
  Machine machine;
  System sys(machine, std::move(image));
  sys.Boot();
  const BootInfo& boot = sys.boot();
  ImageStats stats;
  stats.layout = boot.stats;
  stats.compartments = boot.compartments.size();
  for (const auto& rt : boot.compartments) {
    stats.components.push_back(
        {rt.name, {rt.def->code_size, rt.def->wrapper_code_size}});
    stats.data_sizes.push_back({rt.name, rt.globals_size});
  }
  return stats;
}

FirmwareImage BaseImage() {
  ImageBuilder b("base-system");
  b.Compartment("app").CodeSize(2048).Globals(64).Export("main", Nop());
  b.Thread("app", 1, 1024, 4, "app.main");  // minimal two-thread system:
  b.Thread("idle", 0, 512, 2, "app.main");  // scheduler counts as thread 1
  return b.Build();
}

FirmwareImage NetworkImage() {
  ImageBuilder b("base-plus-network");
  b.Compartment("app").CodeSize(2048).Globals(64).Export("main", Nop());
  net::UseNetwork(b, "app");
  debug::UseConsole(b, "app");
  b.Thread("app", 1, 4096, 8, "app.main");
  return b.Build();
}

// Measures the marginal metadata cost of one extra (empty) compartment.
Address PerCompartmentOverhead() {
  auto image_with = [](int extra) {
    ImageBuilder b("overhead");
    b.Compartment("main").Export("main", Nop());
    for (int i = 0; i < extra; ++i) {
      const std::string name = "extra" + std::to_string(i);
      b.Compartment(name).CodeSize(0).Globals(0).Export("fn", Nop());
      b.Compartment("main").ImportCompartment(name + ".fn");
    }
    b.Thread("t", 1, 512, 4, "main.main");
    return b.Build();
  };
  Machine m1, m2;
  System s1(m1, image_with(4));
  System s2(m2, image_with(5));
  s1.Boot();
  s2.Boot();
  return s2.boot().stats.metadata_bytes - s1.boot().stats.metadata_bytes;
}

// Prints one image's table and returns its numbers for the JSON.
json::Object PrintStats(const char* title, const ImageStats& s,
                        double paper_kb) {
  std::printf("\n%s\n", title);
  std::printf("  %-18s %10s %10s %10s\n", "component", "code(B)", "wrapper%",
              "data(B)");
  uint32_t code_total = 0;
  json::Array components;
  for (size_t i = 0; i < s.components.size(); ++i) {
    const auto& [name, sizes] = s.components[i];
    const auto& [code, wrapper] = sizes;
    code_total += code;
    const double wrapper_pct = code > 0 ? 100.0 * wrapper / code : 0.0;
    std::printf("  %-18s %10u %9.0f%% %10u\n", name.c_str(), code,
                wrapper_pct, s.data_sizes[i].second);
    components.push_back(json::Object{{"name", name},
                                      {"code_bytes", code},
                                      {"wrapper_pct", wrapper_pct},
                                      {"data_bytes", s.data_sizes[i].second}});
  }
  std::printf("  %-18s %10u\n", "TOTAL code", code_total);
  std::printf("  measured data: globals=%u B, stacks=%u B, trusted stacks=%u B,"
              " metadata=%u B, sealed objs=%u B\n",
              s.layout.globals_bytes, s.layout.stack_bytes,
              s.layout.trusted_stack_bytes, s.layout.metadata_bytes,
              s.layout.sealed_object_bytes);
  const double total_kb =
      (code_total + s.layout.globals_bytes + s.layout.stack_bytes +
       s.layout.trusted_stack_bytes + s.layout.metadata_bytes +
       s.layout.sealed_object_bytes) /
      1024.0;
  std::printf("  overall: %.1f KB   (paper: %.1f KB)\n", total_kb, paper_kb);
  std::printf("  heap remaining: %u KB of 256 KB SRAM\n",
              s.layout.heap_bytes / 1024);
  return {{"components", std::move(components)},
          {"code_total_bytes", code_total},
          {"globals_bytes", s.layout.globals_bytes},
          {"stack_bytes", s.layout.stack_bytes},
          {"trusted_stack_bytes", s.layout.trusted_stack_bytes},
          {"metadata_bytes", s.layout.metadata_bytes},
          {"sealed_object_bytes", s.layout.sealed_object_bytes},
          {"overall_kb", total_kb},
          {"heap_remaining_kb", s.layout.heap_bytes / 1024}};
}

}  // namespace
}  // namespace cheriot

int main(int argc, char** argv) {
  using namespace cheriot;
  const bench::Output out("memory_usage", argc, argv);
  std::printf("=== Table 2: code and data size of CHERIoT RTOS components ===\n");
  std::printf("(code sizes modelled per component; data sizes measured from the"
              " loader layout)\n");

  // The loader (erased at boot) and switcher are kernel C++ in this model;
  // their paper sizes are listed for completeness of the Table 2 shape.
  std::printf("\nTCB components not materialized as guest code bytes:\n");
  std::printf("  %-18s %10s %10s   (paper values; loader erased after boot)\n",
              "loader", "7680", "66");
  std::printf("  %-18s %10s %10s   (355 instructions of assembly)\n",
              "switcher", "1400", "0");

  const ImageStats base = Measure(BaseImage());
  json::Object base_json = PrintStats(
      "-- Base system (paper: 25.9 KB code + 3.7 KB data) --", base, 29.6);

  const ImageStats net = Measure(NetworkImage());
  json::Object net_json = PrintStats(
      "-- Base + network stack (paper: 151.8 KB code + 20.4 KB data) --", net,
      172.2);

  const Address overhead = PerCompartmentOverhead();
  std::printf("\nPer-compartment overhead: %u B  (paper: 83 B; Tock: 164 B)\n",
              overhead);
  std::printf("Compartments in networked image: %zu\n", net.compartments);
  return out.Write({{"base_system", std::move(base_json)},
                    {"base_plus_network", std::move(net_json)},
                    {"per_compartment_bytes", overhead},
                    {"network_compartments", net.compartments}});
}
