// The hardware revoker (§2.1): asynchronously sweeps every capability in
// SRAM, invalidating any whose base points at a granule with its revocation
// bit set. Exposes a completed-sweep epoch counter and raises an interrupt
// when a sweep finishes.
#ifndef SRC_HW_REVOKER_H_
#define SRC_HW_REVOKER_H_

#include <cstdint>

#include "src/base/types.h"
#include "src/hw/devices.h"
#include "src/mem/memory.h"
#include "src/obs/observer.h"

namespace cheriot {

class Revoker {
 public:
  // Sweep begin/end events go to `observers` (the machine's list): only the
  // revoker knows when a sweep actually completes.
  Revoker(Memory* memory, InterruptController* irqs,
          const obs::ObserverList* observers)
      : memory_(memory), irqs_(irqs), observers_(observers) {}

  // MMIO register bank: 0 = epoch (completed sweeps), 4 = control (write 1
  // to start a sweep; idempotent while sweeping), 8 = status (1 = sweeping),
  // 12 = interrupt-request (write 1 to get an IRQ at next completion).
  Word Mmio(Address offset, bool is_store, Word value);

  // Clock tick hook: advances the sweep by delta cycles of background work.
  // Inline early-out — this runs on every simulated access.
  void Advance(Cycles delta) {
    if (!sweeping_) {
      return;
    }
    AdvanceSweep(delta);
  }

  void StartSweep();
  bool sweeping() const { return sweeping_; }
  uint32_t epoch() const { return epoch_; }
  // Epoch after which memory freed *now* is safe to reuse: the next sweep to
  // *begin* must complete. If a sweep is mid-flight it may already have
  // passed the object, so it takes the one after.
  uint32_t SafeEpochForFreeNow() const {
    return epoch_ + (sweeping_ ? 2 : 1);
  }
  // Cycles until the current sweep completes (0 if idle) — used by the idle
  // loop's time-skip.
  Cycles CyclesUntilDone() const;

  // Snapshot serialisation (DESIGN.md §10): sweep progress is guest-visible
  // state; memory_/irqs_/observers_ are host handles owned by the Machine.
  void SerializeState(snap::Writer& w) const;

 private:
  void AdvanceSweep(Cycles delta);

  Memory* memory_;
  InterruptController* irqs_;
  const obs::ObserverList* observers_;
  bool sweeping_ = false;
  bool restart_requested_ = false;
  bool irq_requested_ = false;
  uint32_t epoch_ = 0;
  size_t next_granule_ = 0;
  Cycles budget_ = 0;
};

}  // namespace cheriot

#endif  // SRC_HW_REVOKER_H_
