// The simulated cycle clock. The SoC's background hardware (revoker, timer,
// NIC wire) runs from its tick hook so that it advances in lock-step with CPU
// execution, as it does on the real core.
#ifndef SRC_BASE_CLOCK_H_
#define SRC_BASE_CLOCK_H_

#include "src/base/types.h"

namespace cheriot {

class CycleClock {
 public:
  // Called with the number of cycles that just elapsed. A raw function
  // pointer, not std::function: it runs on every tick of every simulated
  // access.
  using RawTickHook = void (*)(void* ctx, Cycles delta);

  Cycles now() const { return now_; }

  // Advances simulated time, then runs the hook, so the hook observes the
  // post-advance time. Nothing re-enters: the hook (background hardware and
  // the observers it notifies) never ticks the clock.
  void Tick(Cycles delta) {
    if (delta == 0) {
      return;
    }
    now_ += delta;
    if (raw_hook_) {
      raw_hook_(raw_hook_ctx_, delta);
    }
  }

  void SetRawHook(RawTickHook hook, void* ctx) {
    raw_hook_ = hook;
    raw_hook_ctx_ = ctx;
  }

  // Hook audit handles: let tests prove a restored board's raw hook points
  // at its own Machine, not into the one the snapshot was taken from.
  RawTickHook raw_hook() const { return raw_hook_; }
  const void* raw_hook_ctx() const { return raw_hook_ctx_; }

 private:
  Cycles now_ = 0;
  RawTickHook raw_hook_ = nullptr;
  void* raw_hook_ctx_ = nullptr;
};

}  // namespace cheriot

#endif  // SRC_BASE_CLOCK_H_
