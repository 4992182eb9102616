#include "src/hw/machine.h"

#include <algorithm>

namespace cheriot {

Machine::Machine(const MachineConfig& config)
    : config_(config),
      memory_(config.sram_base, config.sram_size, &clock_),
      leds_(&clock_),
      timer_(&clock_, &irqs_),
      revoker_(&memory_, &irqs_, &observers_),
      ethernet_(&clock_, &irqs_, &observers_) {
  uart_.set_echo(config.uart_echo);

  memory_.AddMmioRegion(kUartMmioBase, kMmioRegionSize,
                        [this](Address o, bool s, Word v) { return uart_.Mmio(o, s, v); });
  memory_.AddMmioRegion(kLedMmioBase, kMmioRegionSize,
                        [this](Address o, bool s, Word v) { return leds_.Mmio(o, s, v); });
  memory_.AddMmioRegion(kTimerMmioBase, kMmioRegionSize,
                        [this](Address o, bool s, Word v) { return timer_.Mmio(o, s, v); });
  memory_.AddMmioRegion(kRevokerMmioBase, kMmioRegionSize,
                        [this](Address o, bool s, Word v) { return revoker_.Mmio(o, s, v); });
  memory_.AddMmioRegion(kEthernetMmioBase, kMmioRegionSize,
                        [this](Address o, bool s, Word v) { return ethernet_.Mmio(o, s, v); });
  memory_.AddMmioRegion(kEntropyMmioBase, kMmioRegionSize,
                        [this](Address o, bool s, Word v) { return entropy_.Mmio(o, s, v); });

  // Background hardware (revoker, timer, NIC wire) advances with the clock,
  // in that order within a tick. Registered as the raw hook: this dispatch
  // happens on every simulated access, so it must not pay a std::function
  // indirection.
  clock_.SetRawHook(
      [](void* self, Cycles delta) {
        auto* machine = static_cast<Machine*>(self);
        machine->revoker_.Advance(delta);
        machine->timer_.Poll();
        machine->ethernet_.Poll();
      },
      this);
}

void Machine::Attach(obs::Observer* observer) {
  observers_.Add(observer);
  // MMIO events ride Memory's device-window slow path, so the SRAM fast
  // path stays untouched whether or not anything observes.
  memory_.SetMmioObserver(
      [](void* self, Address addr, Address size, bool is_store) {
        for (obs::Observer* o : static_cast<Machine*>(self)->observers_) {
          o->OnMmioAccess(addr, size, is_store);
        }
      },
      this);
  observer->OnAttach(*this);
}

bool Machine::HasFutureEventIgnoringTimer() const {
  return revoker_.sweeping() || ethernet_.next_arrival().has_value();
}

std::optional<Cycles> Machine::NextHardwareEvent() const {
  std::optional<Cycles> next = ethernet_.next_arrival();
  if (revoker_.sweeping()) {
    const Cycles done =
        clock_.now() + std::max<Cycles>(revoker_.CyclesUntilDone(), 1);
    if (!next || done < *next) {
      next = done;
    }
  }
  return next;
}

Cycles Machine::AdvanceIdle(Cycles max_skip, bool ignore_timer) {
  if (irqs_.AnyPending()) {
    return 0;
  }
  const Cycles now = clock_.now();
  Cycles target = now + max_skip;
  if (!ignore_timer && timer_.armed()) {
    target = std::min(target, std::max(timer_.deadline(), now + 1));
  }
  if (revoker_.sweeping()) {
    target = std::min(target, now + std::max<Cycles>(revoker_.CyclesUntilDone(), 1));
  }
  if (auto next = ethernet_.next_arrival()) {
    target = std::min(target, std::max(*next, now + 1));
  }
  if (target <= now) {
    target = now + 1;
  }
  clock_.Tick(target - now);
  return target - now;
}

}  // namespace cheriot
