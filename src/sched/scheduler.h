// The scheduler (§3.1.4): priority-based preemptive scheduling policy, the
// least-privilege futex primitive (§3.2.4), multiwaiters, and interrupt
// futexes. Pure policy: fiber switching is performed by the kernel (System)
// acting as the switcher's context-switch path.
//
// Trust model: the scheduler can refuse to run threads (availability) but
// never touches thread register state or stacks (§3.1.4).
#ifndef SRC_SCHED_SCHEDULER_H_
#define SRC_SCHED_SCHEDULER_H_

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <vector>

#include "src/base/status.h"
#include "src/base/types.h"
#include "src/hw/devices.h"
#include "src/kernel/guest_thread.h"
#include "src/obs/observer.h"

namespace cheriot {

class ScheduleArbiter;

namespace snap {
class Writer;
}  // namespace snap

class Scheduler {
 public:
  static constexpr int kPriorities = 16;

  // Wake, block and sleep events go to `observers` (the machine's list).
  Scheduler(std::vector<GuestThread>* threads,
            const obs::ObserverList* observers)
      : threads_(threads), observers_(observers) {}

  // --- Ready-queue management ---
  // Queues a freshly created thread. Not a wake: observers meet a thread at
  // its first context switch.
  void Admit(int thread_id);
  void MakeReady(int thread_id);
  void MakeBlocked(int thread_id, Address futex_addr, Cycles wake_at);
  void MakeSleeping(int thread_id, Cycles wake_at);
  // Picks the highest-priority ready thread (round-robin within a priority);
  // returns -1 if none. Does not dequeue.
  int PickNext() const;
  // Rotates thread_id to the back of its priority level (timeslice expiry).
  void RoundRobin(int thread_id);
  void RemoveFromReady(int thread_id);

  // --- Futex (§3.2.4): compare-and-wait is evaluated by the caller (it
  // holds the load-permission capability); the scheduler only parks and
  // wakes. Returns the number of threads woken.
  int FutexWake(Address addr, int count);
  // Wakes every waiter on `addr` marking them timed-out=false; used by
  // multiwaiter-aware wakes as well.

  // --- Multiwaiter (§3.2.4) ---
  int MultiwaiterCreate(int max_events);
  Status MultiwaiterDestroy(int mw_id);
  // Arms the multiwaiter; the caller then blocks. Any FutexWake on one of
  // the addresses readies the thread.
  Status MultiwaiterArm(int mw_id, const std::vector<Address>& addrs);
  void MultiwaiterDisarm(int mw_id);
  const std::vector<Address>* MultiwaiterAddresses(int mw_id) const;
  void BlockOnMultiwaiter(int thread_id, int mw_id, Cycles wake_at);

  // --- Time ---
  // Wakes sleepers/timed-out waiters whose deadline passed. Returns number
  // woken.
  int WakeExpired(Cycles now);
  // Earliest pending deadline among sleeping/blocked threads.
  std::optional<Cycles> NextDeadline() const;

  // --- Interrupt futexes: one word per IRQ line, living in the scheduler's
  // compartment globals; the kernel bumps them on IRQ delivery.
  void SetInterruptFutexAddress(IrqLine line, Address addr) {
    irq_futex_addr_[static_cast<size_t>(line)] = addr;
  }
  Address InterruptFutexAddress(IrqLine line) const {
    return irq_futex_addr_[static_cast<size_t>(line)];
  }

  // --- Idle accounting (drives the Fig. 7 CPU-load measurement) ---
  void AddIdleCycles(Cycles c) { idle_cycles_ += c; }
  Cycles idle_cycles() const { return idle_cycles_; }
  // Total futex block operations. Native-only observability counter (fleet
  // metrics time-series); NOT serialized — restore replays regenerate it.
  uint64_t futex_waits() const { return futex_waits_; }

  bool AllExited() const;

  // Schedule-exploration arbiter (src/kernel/schedule_arbiter.h); null in
  // normal operation. Consulted for wake-order and multiwaiter-completion
  // choices in FutexWake. A host handle: never snapshotted.
  void set_arbiter(ScheduleArbiter* arbiter) { arbiter_ = arbiter; }

  // Snapshot serialisation (DESIGN.md §10): queues, wait sets, multiwaiter
  // table (including dead slots — indices are guest-visible ids) and idle
  // accounting. threads_/observers_ are host handles owned by the System.
  void SerializeState(snap::Writer& w) const;

 private:
  GuestThread& T(int id) { return (*threads_)[id]; }
  const GuestThread& T(int id) const { return (*threads_)[id]; }

  std::vector<GuestThread>* threads_;
  std::array<std::deque<int>, kPriorities> ready_;
  // Futex wait sets: address -> waiting thread ids (FIFO).
  std::map<Address, std::deque<int>> futex_waiters_;
  struct Multiwaiter {
    bool live = false;
    int max_events = 0;
    std::vector<Address> addrs;
    int waiting_thread = -1;
  };
  std::vector<Multiwaiter> multiwaiters_;
  std::array<Address, static_cast<size_t>(IrqLine::kCount)> irq_futex_addr_{};
  Cycles idle_cycles_ = 0;
  uint64_t futex_waits_ = 0;
  // Source of GuestThread::block_seq stamps; monotonic over the machine's
  // life and serialized so FIFO wake order is pinned across snapshot/restore.
  uint64_t block_seq_counter_ = 0;
  const obs::ObserverList* observers_;
  ScheduleArbiter* arbiter_ = nullptr;
};

}  // namespace cheriot

#endif  // SRC_SCHED_SCHEDULER_H_
