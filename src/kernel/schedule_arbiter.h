// ScheduleArbiter: the kernel's schedule decision points, exposed as an
// injectable policy interface for systematic concurrency exploration
// (DESIGN.md §12, `cheriot mc`).
//
// At every point where the kernel/scheduler makes a choice that is not
// forced by the architecture — deliver a pending IRQ now or at the deferral
// horizon, preempt at quantum expiry or let the thread run on, which of
// several futex waiters to wake first, whether an injectable fault fires —
// the kernel consults the installed arbiter. With no arbiter installed (the
// normal case) every choice takes its default, and the code path is the
// exact pre-arbiter behavior.
//
// Contract:
//  - Choice 0 is ALWAYS the default: an arbiter that returns 0 from every
//    Choose() call reproduces the unarbitered run bit-for-bit.
//  - Choose() must not tick the clock, touch simulated memory, or otherwise
//    perturb guest-visible state (the §8.1 zero-guest-cycle contract; the
//    call sites are all on uncosted paths).
//  - The arbiter is a host-side handle: never serialized into snapshots,
//    installed fresh after Boot()/Restore().
#ifndef SRC_KERNEL_SCHEDULE_ARBITER_H_
#define SRC_KERNEL_SCHEDULE_ARBITER_H_

#include <cstdint>

namespace cheriot {

// What kind of schedule decision is being made. The subject disambiguates
// instances of the same kind (thread id, futex address, pending-IRQ mask).
enum class DecisionKind : uint8_t {
  // Before a synchronous kernel entry (sched.*/alloc.* compartment call)
  // with interrupts enabled: 0 = run on, 1 = preempt to the next ready
  // thread first. Subject: current thread id. This is the classic CHESS
  // preemption point — the caller's read-then-call window.
  kSyncPreempt = 0,
  // FutexWake with >1 direct waiter: which waiter wakes first.
  // 0 = FIFO head (default), i = i-th oldest. Subject: futex address.
  kWakeOrder = 1,
  // FutexWake with >1 eligible armed multiwaiter: which completes first.
  // Subject: futex address.
  kMultiwaiterOrder = 2,
  // Pending IRQs at a guest preemption point: 0 = deliver now (default),
  // 1 = defer delivery for one tick quantum. Subject: pending mask.
  kIrqDelivery = 3,
  // Quantum expiry with another ready thread: 0 = rotate and switch
  // (default), 1 = grant the running thread one more quantum.
  // Subject: current thread id.
  kPreempt = 4,
  // Fault injection (only branched under `cheriot mc --inject-faults`):
  // heap_allocate: 0 = allocate normally, 1 = fail as if out of memory.
  kAllocFail = 5,
  // NIC frame delivery: 0 = deliver, 1 = drop the frame. Subject: frame
  // sequence number on this board.
  kNicLoss = 6,
};

const char* DecisionKindName(DecisionKind kind);

class ScheduleArbiter {
 public:
  virtual ~ScheduleArbiter() = default;

  // Picks one of n_choices (>= 2) alternatives at a decision point.
  // Returns a value in [0, n_choices); out-of-range returns are clamped to
  // the default by callers. Must not perturb guest-visible state.
  virtual int Choose(DecisionKind kind, uint32_t subject, int n_choices) = 0;
};

inline const char* DecisionKindName(DecisionKind kind) {
  switch (kind) {
    case DecisionKind::kSyncPreempt: return "sync-preempt";
    case DecisionKind::kWakeOrder: return "wake-order";
    case DecisionKind::kMultiwaiterOrder: return "multiwaiter-order";
    case DecisionKind::kIrqDelivery: return "irq-delivery";
    case DecisionKind::kPreempt: return "preempt";
    case DecisionKind::kAllocFail: return "alloc-fail";
    case DecisionKind::kNicLoss: return "nic-loss";
  }
  return "?";
}

}  // namespace cheriot

#endif  // SRC_KERNEL_SCHEDULE_ARBITER_H_
