// The simulated SoC: core clock, SRAM, interrupt controller and the device
// complement of the evaluation platform (Arty A7 @33 MHz with 256 KiB SRAM
// and a simple network adaptor, §5.3).
#ifndef SRC_HW_MACHINE_H_
#define SRC_HW_MACHINE_H_

#include <optional>

#include "src/base/clock.h"
#include "src/base/costs.h"
#include "src/base/types.h"
#include "src/hw/devices.h"
#include "src/hw/revoker.h"
#include "src/mem/memory.h"
#include "src/obs/observer.h"

namespace cheriot {

struct MachineConfig {
  Address sram_base = 0x20000000;
  Address sram_size = 256 * 1024;  // evaluation board SRAM (§5.3)
  bool uart_echo = false;
};

class Machine {
 public:
  explicit Machine(const MachineConfig& config = {});

  CycleClock& clock() { return clock_; }
  Memory& memory() { return memory_; }
  InterruptController& irqs() { return irqs_; }
  Uart& uart() { return uart_; }
  LedBank& leds() { return leds_; }
  Timer& timer() { return timer_; }
  Revoker& revoker() { return revoker_; }
  EthernetDevice& ethernet() { return ethernet_; }
  const EthernetDevice& ethernet() const { return ethernet_; }
  EntropySource& entropy() { return entropy_; }
  const MachineConfig& config() const { return config_; }

  // Advances simulated time (CPU executing); background hardware (revoker,
  // timer, NIC wire) runs in lock-step.
  void Tick(Cycles n) { clock_.Tick(n); }

  // Skips the clock forward while the CPU is idle: advances to the earliest
  // of the timer deadline, revoker completion and the next frame due on the
  // NIC's wire, bounded by max_skip. Returns the cycles skipped (0 if an IRQ
  // is already pending). With `ignore_timer` the armed timer does not bound the
  // skip — used by the kernel's idle fast-forward, which treats its own
  // quantum timer as noise (the caller must bound the skip by any genuine
  // scheduler deadline itself); the timer interrupt still pends when the
  // jump crosses the deadline and is delivered at the jump target.
  Cycles AdvanceIdle(Cycles max_skip, bool ignore_timer = false);

  // Earliest pending hardware event ignoring the CPU-armed timer: revoker
  // sweep completion or the next frame due on the NIC's wire. nullopt when
  // no such event is scheduled. The idle fast-forward bound.
  std::optional<Cycles> NextHardwareEvent() const;

  // Attached observers (src/obs), in attach order. Every choke point is an
  // empty-list check plus a loop, so the off path costs one predictable
  // branch. Attach() must precede System::Boot(); the observer must outlive
  // the machine's last tick, and a second observer of an attached kind fails
  // a CHERIOT_CHECK.
  const obs::ObserverList& observers() const { return observers_; }
  void Attach(obs::Observer* observer);

  // True if hardware activity other than the CPU-armed timer is scheduled
  // for the future (in-flight revocation sweep, frames on the NIC's wire);
  // used for deadlock detection.
  bool HasFutureEventIgnoringTimer() const;

 private:
  MachineConfig config_;
  CycleClock clock_;
  Memory memory_;
  InterruptController irqs_;
  Uart uart_;
  LedBank leds_;
  Timer timer_;
  Revoker revoker_;
  EthernetDevice ethernet_;
  EntropySource entropy_;
  obs::ObserverList observers_;
};

}  // namespace cheriot

#endif  // SRC_HW_MACHINE_H_
