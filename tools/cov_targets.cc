#include "tools/cov_targets.h"

#include "src/rtos.h"

namespace cheriot::tools {

namespace {

// Two compartments, four grants, two of them dead. The sensor's entry point
// runs for real (blinks the LED, calls actuator.set), which makes the
// compartment *active* in coverage terms — so its unexercised grants are
// differential evidence and surface as warnings, not info:
//   - ImportCompartment("actuator.diag"): never called (dead import)
//   - ImportMmio("ethernet"): never touched (over-wide device authority)
FirmwareImage CovOverprivileged() {
  ImageBuilder b("cov-overprivileged");
  b.Compartment("actuator")
      .Globals(32)
      .Export("set",
              [](CompartmentCtx& ctx, const std::vector<Capability>& args) {
                ctx.StoreWord(ctx.globals(), 0,
                              args.empty() ? 1u : args[0].word());
                return StatusCap(Status::kOk);
              })
      .Export("diag",
              [](CompartmentCtx&, const std::vector<Capability>&) {
                return Capability();
              });
  b.Compartment("sensor")
      .Globals(64)
      .ImportCompartment("actuator.set")
      .ImportCompartment("actuator.diag")
      .ImportMmio("led", kLedMmioBase, kMmioRegionSize, true)
      .ImportMmio("ethernet", kEthernetMmioBase, kMmioRegionSize, true)
      .Export("main",
              [](CompartmentCtx& ctx, const std::vector<Capability>&) {
                const Capability led = ctx.Mmio("led");
                ctx.StoreWord(led, 0, 1);
                ctx.Call("actuator.set", {WordCap(7)});
                return StatusCap(Status::kOk);
              });
  b.Thread("main", 1, 4096, 8, "sensor.main");
  return b.Build();
}

}  // namespace

const std::vector<LintTarget>& CovSeededTargets() {
  static const std::vector<LintTarget> kTargets = {
      {"cov-overprivileged",
       "seeded image with a dead call import and an untouched MMIO grant",
       CovOverprivileged},
  };
  return kTargets;
}

}  // namespace cheriot::tools
