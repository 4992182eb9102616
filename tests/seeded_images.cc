#include "tests/seeded_images.h"

#include "src/rtos.h"
#include "src/sync/sync.h"

namespace cheriot::seeded {

FirmwareImage Uaf() {
  ImageBuilder b("seeded-uaf");
  b.Compartment("app")
      .Globals(32)
      .AllocCap("q", 8192)
      .Export("main", [](CompartmentCtx& ctx, const std::vector<Capability>&) {
        const Capability q = ctx.SealedImport("q");
        const Capability p = ctx.HeapAllocate(q, 64);
        ctx.StoreWord(p, 0, 42);
        ctx.HeapFree(q, p);
        ctx.LoadWord(p, 0);  // traps: revoked capability, no handler
        return StatusCap(Status::kOk);
      });
  sync::UseAllocator(b, "app");
  b.Thread("t", 1, 8192, 8, "app.main");
  return b.Build();
}

FirmwareImage TrapStorm() {
  ImageBuilder b("seeded-trap-storm");
  b.Compartment("svc").Export(
      "boom", [](CompartmentCtx& ctx, const std::vector<Capability>&) {
        ctx.LoadWord(Capability::FromWord(0xBAD), 0);
        return StatusCap(Status::kOk);
      });
  b.Compartment("app")
      .ImportCompartment("svc.boom")
      .Export("main", [](CompartmentCtx& ctx, const std::vector<Capability>&) {
        for (int i = 0; i < 24; ++i) {
          ctx.Call("svc.boom", {});
        }
        return StatusCap(Status::kOk);
      });
  b.Thread("t", 1, 8192, 8, "app.main");
  return b.Build();
}

// Three traps stay under the storm detector's minimum count; three reboots
// land inside the loop window.
FirmwareImage RebootLoop() {
  ImageBuilder b("seeded-reboot-loop");
  b.Compartment("svc")
      .ErrorHandler([](CompartmentCtx& ctx, TrapInfo&) {
        ctx.MicroRebootSelf();
        return ErrorRecovery::kForceUnwind;
      })
      .Export("boom",
              [](CompartmentCtx& ctx, const std::vector<Capability>&) {
                ctx.LoadWord(Capability::FromWord(0xBAD), 0);
                return StatusCap(Status::kOk);
              });
  b.Compartment("app")
      .ImportCompartment("svc.boom")
      .Export("main", [](CompartmentCtx& ctx, const std::vector<Capability>&) {
        for (int i = 0; i < 3; ++i) {
          ctx.Call("svc.boom", {});
        }
        return StatusCap(Status::kOk);
      });
  b.Thread("t", 1, 8192, 8, "app.main");
  return b.Build();
}

FirmwareImage Quota() {
  ImageBuilder b("seeded-quota");
  b.Compartment("app")
      .Globals(32)
      .AllocCap("q", 256)
      .Export("main", [](CompartmentCtx& ctx, const std::vector<Capability>&) {
        const Capability q = ctx.SealedImport("q");
        for (int i = 0; i < 4; ++i) {
          ctx.HeapAllocate(q, 4096);  // always denied: quota is 256 bytes
        }
        return StatusCap(Status::kOk);
      });
  sync::UseAllocator(b, "app");
  b.Thread("t", 1, 8192, 8, "app.main");
  return b.Build();
}

FirmwareImage Deadlock() {
  ImageBuilder b("seeded-deadlock");
  b.Compartment("app")
      .Globals(32)
      .Export("main", [](CompartmentCtx& ctx, const std::vector<Capability>&) {
        ctx.FutexWait(ctx.globals(), 0, ~0u);  // never woken
        return StatusCap(Status::kOk);
      });
  sync::UseScheduler(b, "app");
  b.Thread("t", 1, 8192, 8, "app.main");
  return b.Build();
}

FirmwareImage RevokerBacklog() {
  ImageBuilder b("seeded-revoker-backlog");
  b.Compartment("app")
      .Globals(32)
      .AllocCap("q", 256 * 1024)
      .Export("main", [](CompartmentCtx& ctx, const std::vector<Capability>&) {
        const Capability q = ctx.SealedImport("q");
        Capability blocks[5];
        for (auto& block : blocks) {
          block = ctx.HeapAllocate(q, 16 * 1024);
        }
        for (auto& block : blocks) {
          ctx.HeapFree(q, block);
        }
        return StatusCap(Status::kOk);
      });
  sync::UseAllocator(b, "app");
  b.Thread("t", 1, 8192, 8, "app.main");
  return b.Build();
}

// The crasher's own trap files a handler_unwind record; the sleeper, woken
// by the reboot, files one forced_unwind record at its `svc` frame.
FirmwareImage ForcedUnwind() {
  ImageBuilder b("seeded-forced-unwind");
  b.Compartment("svc")
      .Globals(32)
      .ErrorHandler([](CompartmentCtx& ctx, TrapInfo&) {
        ctx.MicroRebootSelf();
        return ErrorRecovery::kForceUnwind;
      })
      .Export("nap",
              [](CompartmentCtx& ctx, const std::vector<Capability>&) {
                ctx.SleepCycles(1'000'000);
                return StatusCap(Status::kOk);
              })
      .Export("boom",
              [](CompartmentCtx& ctx, const std::vector<Capability>&) {
                ctx.LoadWord(Capability::FromWord(0xBAD), 0);
                return StatusCap(Status::kOk);
              });
  sync::UseScheduler(b, "svc");
  b.Compartment("app")
      .ImportCompartment("svc.nap")
      .ImportCompartment("svc.boom")
      .Export("sleeper",
              [](CompartmentCtx& ctx, const std::vector<Capability>&) {
                ctx.Call("svc.nap", {});
                return StatusCap(Status::kOk);
              })
      .Export("crasher",
              [](CompartmentCtx& ctx, const std::vector<Capability>&) {
                ctx.SleepCycles(100'000);  // let the sleeper settle in svc
                ctx.Call("svc.boom", {});
                return StatusCap(Status::kOk);
              });
  sync::UseScheduler(b, "app");
  b.Thread("sleeper", 2, 8192, 8, "app.sleeper");
  b.Thread("crasher", 2, 8192, 8, "app.crasher");
  return b.Build();
}

const std::vector<tools::LintTarget>& SeededImages() {
  static const std::vector<tools::LintTarget> kImages = {
      {"seeded-uaf", "use after free", Uaf},
      {"seeded-trap-storm", "trap storm", TrapStorm},
      {"seeded-reboot-loop", "reboot loop", RebootLoop},
      {"seeded-quota", "quota exhaustion", Quota},
      {"seeded-deadlock", "stuck board", Deadlock},
      {"seeded-revoker-backlog", "revoker backlog", RevokerBacklog},
      {"seeded-forced-unwind", "forced unwind", ForcedUnwind},
  };
  return kImages;
}

}  // namespace cheriot::seeded
