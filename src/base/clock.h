// The simulated cycle clock. The SoC's background hardware (revoker, timer,
// NIC wire) runs from its tick hook so that it advances in lock-step with CPU
// execution, as it does on the real core.
#ifndef SRC_BASE_CLOCK_H_
#define SRC_BASE_CLOCK_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "src/base/types.h"

namespace cheriot {

class CycleClock {
 public:
  // Called with the number of cycles that just elapsed.
  using TickHook = std::function<void(Cycles delta)>;
  // Raw-function-pointer variant for the SoC's own background work (revoker,
  // timer, NIC wire), which runs on every tick of every simulated access. It
  // always fires before the std::function hooks (the trace profiler's).
  using RawTickHook = void (*)(void* ctx, Cycles delta);

  Cycles now() const { return now_; }

  // Advances simulated time. Hooks run after the clock moves so they observe
  // the post-advance time. The common case — only the SoC's raw background
  // hook registered — stays branch-light; the std::function hook loop is
  // kept out of line so it doesn't bloat the inlined memory fast path.
  void Tick(Cycles delta) {
    if (delta == 0) {
      return;
    }
    now_ += delta;
    if (in_hook_) {
      return;  // Hooks must not recursively re-run hooks.
    }
    if (hooks_.empty()) {
      if (raw_hook_) {
        // No reentrancy guard needed here: the raw hook (background
        // hardware and the observers it notifies) never ticks the clock, and
        // with no std::function hooks registered nothing else can re-enter.
        raw_hook_(raw_hook_ctx_, delta);
      }
      return;
    }
    TickHooks(delta);
  }

  void AddHook(TickHook hook) { hooks_.push_back(std::move(hook)); }
  void SetRawHook(RawTickHook hook, void* ctx) {
    raw_hook_ = hook;
    raw_hook_ctx_ = ctx;
  }

  // Hook audit handles: let tests prove a restored board's raw hook points
  // at its own Machine, not into the one the snapshot was taken from.
  RawTickHook raw_hook() const { return raw_hook_; }
  const void* raw_hook_ctx() const { return raw_hook_ctx_; }

 private:
  // Slow path: at least one std::function hook is registered. Fires the raw
  // hook first (same order as the fast path) and then every hook.
  [[gnu::noinline]] void TickHooks(Cycles delta) {
    in_hook_ = true;
    if (raw_hook_) {
      raw_hook_(raw_hook_ctx_, delta);
    }
    for (auto& hook : hooks_) {
      hook(delta);
    }
    in_hook_ = false;
  }

  Cycles now_ = 0;
  bool in_hook_ = false;
  RawTickHook raw_hook_ = nullptr;
  void* raw_hook_ctx_ = nullptr;
  std::vector<TickHook> hooks_;
};

}  // namespace cheriot

#endif  // SRC_BASE_CLOCK_H_
