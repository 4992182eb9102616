// MMIO device models: UART, LED bank, timer, Ethernet adaptor, entropy
// source. Each device exposes a register bank through Memory::AddMmioRegion;
// compartments reach devices only through MMIO capabilities placed in their
// import tables by the loader (§3.1.1, footnote 2).
#ifndef SRC_HW_DEVICES_H_
#define SRC_HW_DEVICES_H_

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/base/clock.h"
#include "src/base/types.h"
#include "src/flow/flow.h"
#include "src/hw/shared_frame.h"

namespace cheriot {

class ScheduleArbiter;

namespace obs {
class ObserverList;
}  // namespace obs

namespace snap {
class Writer;
}  // namespace snap

// Fixed MMIO map of the simulated SoC.
inline constexpr Address kUartMmioBase = 0x10000000;
inline constexpr Address kLedMmioBase = 0x10001000;
inline constexpr Address kTimerMmioBase = 0x10002000;
inline constexpr Address kRevokerMmioBase = 0x10003000;
inline constexpr Address kEthernetMmioBase = 0x10004000;
inline constexpr Address kEntropyMmioBase = 0x10005000;
inline constexpr Address kMmioRegionSize = 0x100;

// Interrupt lines of the simulated interrupt controller.
enum class IrqLine : uint32_t {
  kTimer = 0,
  kRevoker = 1,
  kEthernet = 2,
  kUart = 3,
  kCount = 4,
};

class InterruptController {
 public:
  void Raise(IrqLine line) { pending_ |= 1u << static_cast<uint32_t>(line); }
  void Clear(IrqLine line) { pending_ &= ~(1u << static_cast<uint32_t>(line)); }
  bool Pending(IrqLine line) const {
    return (pending_ >> static_cast<uint32_t>(line)) & 1u;
  }
  bool AnyPending() const { return pending_ != 0; }
  uint32_t pending_mask() const { return pending_; }

 private:
  uint32_t pending_ = 0;
};

// Transmit-only console; register 0 = TX data, register 4 = status (always
// ready).
class Uart {
 public:
  Word Mmio(Address offset, bool is_store, Word value);
  const std::string& output() const { return output_; }
  void set_echo(bool echo) { echo_ = echo; }
  void SerializeState(snap::Writer& w) const;

 private:
  std::string output_;
  bool echo_ = false;
};

// GPIO LED bank; register 0 = LED bitmask. Records every change with its
// timestamp so the IoT case study can assert "the LEDs flashed".
class LedBank {
 public:
  struct Event {
    Cycles at;
    Word mask;
  };

  explicit LedBank(CycleClock* clock) : clock_(clock) {}
  Word Mmio(Address offset, bool is_store, Word value);
  Word state() const { return state_; }
  const std::vector<Event>& events() const { return events_; }
  void SerializeState(snap::Writer& w) const;

 private:
  CycleClock* clock_;
  Word state_ = 0;
  std::vector<Event> events_;
};

// RISC-V style timer: mtime (read-only, derived from the cycle clock) and
// mtimecmp. Raises IrqLine::kTimer when mtime >= mtimecmp.
class Timer {
 public:
  Timer(CycleClock* clock, InterruptController* irqs)
      : clock_(clock), irqs_(irqs) {}
  Word Mmio(Address offset, bool is_store, Word value);
  // Tick hook: checks the compare register. Inline — it runs on every
  // simulated access via the clock's background hook.
  void Poll() {
    if (armed_ && clock_->now() >= mtimecmp_) {
      irqs_->Raise(IrqLine::kTimer);
      armed_ = false;
    }
  }
  void SetDeadline(Cycles absolute) {
    mtimecmp_ = absolute;
    armed_ = true;
  }
  Cycles deadline() const { return mtimecmp_; }
  bool armed() const { return armed_; }
  void SerializeState(snap::Writer& w) const;

 private:
  CycleClock* clock_;
  InterruptController* irqs_;
  Cycles mtimecmp_ = ~0ull;
  bool armed_ = false;
};

// Simple no-offload network adaptor (§5.3.3 uses "a simple network adaptor
// with no offload features"). Frames move word-at-a-time through MMIO. The
// adaptor carries a factory-programmed MAC address, readable through two
// MMIO registers so the guest stack learns its own identity (fleet boards
// each get a distinct one; the default matches the historical single-board
// address 02:00:00:00:00:02).
//
// The adaptor also owns the host side of its wire (DESIGN.md §6): the frames
// in flight towards it and their delivery, the flow ids of the frames it
// sends, its traffic counters and the NIC observer events. A Board or a
// NetWorld only connects the wire to a fabric port or a gateway.
class EthernetDevice {
 public:
  using Frame = std::vector<uint8_t>;
  using Mac = std::array<uint8_t, 6>;

  // A frame on the wire, due in the RX FIFO at cycle `due`.
  struct InFlight {
    Cycles due = 0;
    SharedFrame frame;
    flow::FlowId flow;
  };

  // NIC events go to `observers` (the machine's list).
  EthernetDevice(CycleClock* clock, InterruptController* irqs,
                 const obs::ObserverList* observers)
      : clock_(clock), irqs_(irqs), observers_(observers) {}

  Word Mmio(Address offset, bool is_store, Word value);

  // Host/world side: puts a frame on the wire, due at absolute cycle `due`.
  // Frames reach the RX FIFO in ascending due order, first in first out
  // among equal dues. The wire, the RX FIFO and the RX-length latch hold the
  // sender's buffer, not a copy. `flow` is the frame's host-side provenance;
  // defaulted (= untracked) for hand-built test frames.
  void InjectAt(Cycles due, SharedFrame frame, flow::FlowId flow = {});
  // Host/world side: called for each committed TX frame with the flow id the
  // adaptor stamped on it, (flow origin, TX sequence).
  std::function<void(Frame, flow::FlowId)> on_transmit;

  // Tick hook: delivers every frame now due into the RX FIFO (raising the
  // IRQ). Inline early-out — it runs on every simulated access via the
  // clock's background hook.
  void Poll() {
    if (clock_->now() >= next_due_) {
      DeliverDue();
    }
  }
  // Due cycle of the next frame on the wire; nullopt when none is.
  std::optional<Cycles> next_arrival() const {
    if (wire_.empty()) {
      return std::nullopt;
    }
    return next_due_;
  }
  // The frames on the wire, in delivery order.
  const std::deque<InFlight>& wire() const { return wire_; }
  size_t rx_pending() const { return rx_.size(); }

  // Board-bringup side: program the adaptor's MAC before boot, and the
  // origin (board index) of the flow ids it stamps on transmitted frames.
  void set_mac(const Mac& mac) { mac_ = mac; }
  const Mac& mac() const { return mac_; }
  void set_flow_origin(int16_t origin) { flow_origin_ = origin; }
  uint32_t tx_seq() const { return tx_seq_; }

  // Traffic counters, maintained whether or not anything observes.
  uint64_t tx_frames() const { return tx_seq_; }
  uint64_t rx_frames() const { return rx_frames_; }
  uint64_t frames_dropped() const { return frames_dropped_; }

  // The kNicLoss decision point (src/kernel/schedule_arbiter.h). Host
  // handle; null detaches.
  void set_arbiter(ScheduleArbiter* arbiter) { arbiter_ = arbiter; }

  // Snapshot serialisation (DESIGN.md §10): RX/TX queues and latch state
  // are guest-visible; the wire, the counters and the on_transmit callback
  // are host state and are never written here (a Board writes its wire and
  // TX sequence into BORD).
  void SerializeState(snap::Writer& w) const;

 private:
  static constexpr Cycles kNoArrival = ~Cycles{0};

  void DeliverDue();

  CycleClock* clock_;
  InterruptController* irqs_;
  const obs::ObserverList* observers_;
  std::deque<SharedFrame> rx_;
  SharedFrame rx_latched_;
  size_t rx_read_pos_ = 0;
  Frame tx_building_;
  size_t tx_expected_ = 0;
  Mac mac_ = {2, 0, 0, 0, 0, 2};
  std::deque<InFlight> wire_;
  Cycles next_due_ = kNoArrival;  // wire_.front().due, cached for Poll()
  int16_t flow_origin_ = 0;
  uint32_t tx_seq_ = 0;  // flow-id sequence; ticks on every transmit
  uint64_t rx_frames_ = 0;
  uint64_t frames_dropped_ = 0;
  ScheduleArbiter* arbiter_ = nullptr;
};

// Deterministic xorshift entropy source.
class EntropySource {
 public:
  explicit EntropySource(uint64_t seed = 0x9E3779B97F4A7C15ull)
      : state_(seed) {}
  Word Mmio(Address offset, bool is_store, Word value);
  Word Next();
  void SerializeState(snap::Writer& w) const;

 private:
  uint64_t state_;
};

}  // namespace cheriot

#endif  // SRC_HW_DEVICES_H_
