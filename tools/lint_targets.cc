#include "tools/lint_targets.h"

#include <algorithm>

#include "src/compat/posix_shim.h"
#include "src/js/minivm.h"
#include "src/net/netstack.h"
#include "src/rtos.h"
#include "src/sim/fleet_app.h"
#include "src/sync/sync.h"
#include "tools/cov_targets.h"
#include "tools/mc_targets.h"

namespace cheriot::tools {

namespace {

EntryFn Nop() {
  return [](CompartmentCtx&, const std::vector<Capability>&) {
    return Capability();
  };
}

// examples/quickstart.cpp
FirmwareImage Quickstart() {
  ImageBuilder b("quickstart");
  b.Compartment("adder").Globals(64).Export("add", Nop());
  b.Compartment("app").ImportCompartment("adder.add").Export("main", Nop());
  b.Thread("main", 1, 4096, 8, "app.main");
  return b.Build();
}

// examples/audit_firmware.cpp and tests/audit_test.cpp (Fig. 4 image)
FirmwareImage HttpClient(bool backdoored) {
  ImageBuilder b(backdoored ? "http-firmware-BACKDOORED" : "http-firmware");
  b.Compartment("NetAPI")
      .CodeSize(4096)
      .Export("network_socket_connect_tcp", Nop(), 512)
      .ImportMmio("ethernet", kEthernetMmioBase, kMmioRegionSize, true);
  b.Compartment("http_client")
      .CodeSize(8192)
      .AllocCap("http_quota", 16 * 1024)
      .ImportCompartment("NetAPI.network_socket_connect_tcp")
      .Export("fetch", Nop(), 1024);
  auto compressor = b.Compartment("compressor");
  compressor.CodeSize(20 * 1024).Export("decompress", Nop(), 512);
  if (backdoored) {
    compressor.ImportCompartment("NetAPI.network_socket_connect_tcp");
  }
  b.Thread("main", 1, 2048, 4, "http_client.fetch");
  return b.Build();
}

// examples/producer_consumer.cpp
FirmwareImage ProducerConsumer() {
  ImageBuilder b("producer-consumer");
  b.Compartment("producer")
      .Globals(32)
      .AllocCap("pq", 8 * 1024)
      .Export("main", Nop())
      .Export("get_queue", Nop());
  b.Compartment("consumer")
      .ImportCompartment("producer.get_queue")
      .Export("main", Nop());
  sync::UseQueueCompartment(b, "producer");
  sync::UseQueueCompartment(b, "consumer");
  sync::UseScheduler(b, "producer");
  sync::UseScheduler(b, "consumer");
  sync::UseAllocator(b, "producer");
  b.Thread("consumer", 3, 8192, 8, "consumer.main");
  b.Thread("producer", 2, 8192, 8, "producer.main");
  return b.Build();
}

// examples/fault_tolerance.cpp
FirmwareImage FaultTolerance() {
  ImageBuilder b("fault-tolerance");
  b.Compartment("self_healing").Globals(64).Export("read_config", Nop());
  b.Compartment("counter")
      .Globals(32)
      .AllocCap("cq", 4096)
      .Export("serve", Nop());
  sync::UseAllocator(b, "counter");
  b.Compartment("app")
      .ImportCompartment("self_healing.read_config")
      .ImportCompartment("counter.serve")
      .Export("main", Nop());
  b.Thread("main", 1, 8192, 8, "app.main");
  return b.Build();
}

// examples/iot_mqtt_app.cpp (§5.3.3 case study)
FirmwareImage IotMqttApp() {
  ImageBuilder b("iot-mqtt-app");
  b.Compartment("js_app")
      .Globals(128)
      .AllocCap("app_quota", 33 * 1024)
      .ImportMmio("led", kLedMmioBase, kMmioRegionSize, true)
      .ImportLibrary("minivm.interpreter")
      .Export("main", Nop());
  js::RegisterMiniVmLibrary(b);
  net::UseNetwork(b, "js_app");
  sync::UseAllocator(b, "js_app");
  sync::UseScheduler(b, "js_app");
  compat::UseMalloc(b, "js_app", 8 * 1024);
  b.Thread("app", 3, 16 * 1024, 12, "js_app.main");
  return b.Build();
}

// src/sim/fleet_app.cc — the image every fleet board boots
FirmwareImage FleetNode() {
  return sim::BuildFleetAppImage(std::make_shared<sim::FleetAppState>(), {});
}

std::vector<LintTarget> MakeTargets() {
  std::vector<LintTarget> t = {
      {"fault-tolerance", "micro-reboot / error-handler example image",
       FaultTolerance},
      {"fleet-node", "fleet simulation board firmware (src/sim/fleet_app)",
       FleetNode},
      {"http-firmware", "Fig. 4 auditing example image (clean)",
       [] { return HttpClient(false); }},
      {"http-firmware-backdoored",
       "Fig. 4 image with the liblzma-style backdoored compressor",
       [] { return HttpClient(true); }},
      {"iot-mqtt-app", "§5.3.3 MQTT-over-TLS case-study image", IotMqttApp},
      {"producer-consumer", "hardened message-queue example image",
       ProducerConsumer},
      {"quickstart", "two-compartment quickstart image", Quickstart},
  };
  std::sort(t.begin(), t.end(),
            [](const LintTarget& a, const LintTarget& b) {
              return a.name < b.name;
            });
  return t;
}

}  // namespace

const std::vector<LintTarget>& LintTargets() {
  static const std::vector<LintTarget> kTargets = MakeTargets();
  return kTargets;
}

const std::vector<LintTarget>& SeededTargets() {
  static const std::vector<LintTarget> kTargets = [] {
    std::vector<LintTarget> t = CovSeededTargets();
    t.insert(t.end(), McSeededTargets().begin(), McSeededTargets().end());
    return t;
  }();
  return kTargets;
}

const LintTarget* FindTarget(const std::string& name) {
  for (const auto* list : {&LintTargets(), &SeededTargets()}) {
    for (const auto& t : *list) {
      if (t.name == name) {
        return &t;
      }
    }
  }
  return nullptr;
}

}  // namespace cheriot::tools
