// System: composes the machine, the loader output and the four TCB
// components (switcher, allocator, scheduler — the loader has already erased
// itself by the time Run() starts) and hosts guest threads on deterministic
// fibers. A System is single-threaded at any instant but carries no process-
// global mutable state, so a Fleet may run many Systems on parallel host
// threads (and migrate a System between pool threads across epochs).
#ifndef SRC_KERNEL_SYSTEM_H_
#define SRC_KERNEL_SYSTEM_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/alloc/allocator.h"
#include "src/base/check.h"
#include "src/firmware/image.h"
#include "src/hw/machine.h"
#include "src/kernel/guest_thread.h"
#include "src/kernel/schedule_arbiter.h"
#include "src/loader/loader.h"
#include "src/sched/scheduler.h"
#include "src/switcher/switcher.h"
#include "src/token/token.h"

namespace cheriot {

struct SystemOptions {
  Cycles tick_quantum = 33'000;   // 1 ms scheduler tick at 33 MHz
  Cycles idle_chunk = 1'000'000;  // max idle time-skip per step
  // Idle fast-forward: with no runnable thread, jump the clock straight to
  // the next genuine event (scheduler deadline, revoker completion, pending
  // device delivery) instead of waking at every self-armed quantum-timer
  // deadline. The quantum timer exists only to preempt running threads, so
  // skipping its idle firings is unobservable: fingerprints are bit-identical
  // with this on or off (pinned by tests/fleet_test.cpp). Escape hatch for
  // CI and for bisecting determinism regressions.
  bool fast_forward = true;
};

class System {
 public:
  // Sentinel for NextEventCycle(): no event is scheduled, ever.
  static constexpr Cycles kForever = ~0ull;
  // Augments the image with the TCB service compartments ("alloc", "sched")
  // and the "token" library, then holds it for Boot().
  System(Machine& machine, FirmwareImage image, SystemOptions options = {});
  ~System();

  System(const System&) = delete;
  System& operator=(const System&) = delete;

  // Runs the loader, initializes the TCB and creates thread fibers.
  void Boot();

  // Snapshot serialisation of kernel guest state (DESIGN.md §10):
  // scheduler-visible scalars, every thread's guest-architectural fields,
  // and the compartments' mutable micro-reboot bookkeeping (kept here so the
  // BOOT section stays byte-identical over a board's lifetime). Host fiber
  // state (ucontext, host_stack, tsan_fiber) is never serialized — a
  // restore rebuilds it by replay.
  void SerializeState(snap::Writer& w) const;

  // Runs until every thread exits, the cycle budget is exhausted, or the
  // system deadlocks (all threads blocked with no pending event).
  enum class RunResult { kAllExited, kBudgetExhausted, kDeadlock, kStopped };
  RunResult Run(Cycles max_cycles = ~0ull);
  // Runs until pred() holds (checked at every idle point / thread switch).
  bool RunUntil(const std::function<bool()>& pred, Cycles max_cycles);

  Machine& machine() { return machine_; }
  BootInfo& boot() { return *boot_; }
  Scheduler& sched() { return *sched_; }
  Switcher& switcher() { return *switcher_; }
  Allocator& alloc() { return *alloc_; }
  TokenService& token() { return *token_; }
  const SystemOptions& options() const { return options_; }

  std::vector<GuestThread>& threads() { return threads_; }
  GuestThread& current_thread() {
    // Switcher/ctx call sites must never reach here from the idle loop, where
    // no guest thread is current; indexing threads_[-1] would be silent
    // memory corruption in release builds.
    CHERIOT_CHECK(current_thread_id_ >= 0 &&
                      static_cast<size_t>(current_thread_id_) < threads_.size(),
                  "current_thread() called with no current guest thread");
    return threads_[static_cast<size_t>(current_thread_id_)];
  }
  int current_thread_id() const { return current_thread_id_; }
  Cycles Now() const { return machine_.clock().now(); }

  // The absolute cycle of the earliest thing this system could possibly do:
  // Now() if a thread is runnable or an interrupt is pending (the system is
  // busy), else the earliest of the scheduler's sleep/timeout deadlines, the
  // revoker's sweep completion and any pending device delivery (e.g. an
  // in-flight NIC frame), ignoring the self-armed quantum timer. kForever
  // when every thread is exited or blocked with no deadline and no hardware
  // event is scheduled — the deadlock condition. The fleet's idle
  // fast-forward and adaptive epoch coarsening are built on this query.
  Cycles NextEventCycle() const;

  // --- Kernel internals (used by switcher / ctx / TCB services) ---
  // Preemption point: called from the memory-access hook.
  void PreemptCheck();
  // The current thread has been marked blocked/sleeping; switch away and
  // return when it is scheduled again.
  void SwitchAway();
  // Wakes per FutexWake and preempts if a higher-priority thread woke (or
  // defers the reschedule while interrupts are off).
  int FutexWakeAndPreempt(Address addr, int count);
  // Runs a pending deferred reschedule if the current posture allows it;
  // called by the switcher when it restores an interrupt-enabled posture.
  void CheckDeferredResched();
  // Blocks the current thread on a futex word (already compared by caller).
  Status BlockCurrentOnFutex(Address addr, Cycles timeout_cycles);
  void YieldCurrent();
  void SleepCurrent(Cycles cycles);
  // Blocks the current thread until the revoker completes a sweep (or the
  // absolute-cycle deadline passes). Returns false on timeout. Used by the
  // allocator when an allocation must wait for quarantined memory (§3.1.3).
  bool WaitForRevokerPass(Cycles deadline);

  // Micro-reboot orchestration (§3.2.6). Returns cycles the reboot took.
  Cycles MicroRebootCompartment(int compartment_id);

  // Called by guards to stop the run loop (e.g. test harness hooks).
  void RequestStop() { stop_requested_ = true; }

  bool deadlocked() const { return deadlocked_; }

  // Installs the schedule-exploration arbiter (schedule_arbiter.h); null
  // detaches. Valid after Boot()/restore; mirrored into the scheduler. A
  // host handle like the trace recorder — never serialized.
  void SetArbiter(ScheduleArbiter* arbiter) {
    arbiter_ = arbiter;
    if (sched_ != nullptr) {
      sched_->set_arbiter(arbiter);
    }
  }
  ScheduleArbiter* arbiter() const { return arbiter_; }

  // Sync-preemption decision point: consulted by CompartmentCtx just before
  // a sched.*/alloc.* service call while interrupts are enabled. Choice 1
  // yields to the next ready thread first (the classic read-then-call race
  // window). No-op without an arbiter.
  void MaybeArbiterPreempt();

  // Internal: thread fiber entry.
  void RunThreadBody(int thread_id);
  int StartingThreadId() const;

 private:
  FirmwareImage AugmentWithTcb(FirmwareImage image);
  void CreateThreads();
  void SwitchTo(int thread_id);
  void SwitchToIdle();
  // All fiber switches go through here so AddressSanitizer can be told about
  // the stack change (fiber annotations); `target` is null when switching
  // back to the main context, `from_dying` when the departing fiber exits.
  void FiberSwap(ucontext_t* from, ucontext_t* to, const GuestThread* target,
                 bool from_dying);
  void ArmTimer();
  // Bumps interrupt futex words for pending non-timer IRQs, wakes waiters;
  // handles timer expiry (wake sleepers, rotate quantum). Returns true if a
  // reschedule might be needed.
  bool DeliverPendingIrqs(bool from_guest);

  Machine& machine_;
  SystemOptions options_;
  FirmwareImage image_;
  std::unique_ptr<BootInfo> boot_;
  std::unique_ptr<Scheduler> sched_;
  std::unique_ptr<Switcher> switcher_;
  std::unique_ptr<Allocator> alloc_;
  std::unique_ptr<TokenService> token_;
  std::vector<GuestThread> threads_;

  ucontext_t main_context_{};
  // ThreadSanitizer fiber handle of the host thread currently inside Run();
  // re-captured at every Run() entry because a Fleet may step the same System
  // from different pool threads across epochs (never concurrently).
  void* main_tsan_fiber_ = nullptr;
  int current_thread_id_ = -1;
  int starting_thread_id_ = -1;
  // Thread parked by the cycle-transparent run-budget pause in
  // PreemptCheck(); Run() resumes it directly, bypassing the scheduler.
  int paused_thread_id_ = -1;
  bool in_kernel_ = false;
  bool booted_ = false;
  bool need_resched_ = false;
  bool stop_requested_ = false;
  bool deadlocked_ = false;
  Cycles quantum_end_ = 0;
  Cycles run_deadline_ = ~0ull;
  ScheduleArbiter* arbiter_ = nullptr;
  // kIrqDelivery episode tracking: consult the arbiter once per
  // pending-IRQ episode, and defer delivery no further than
  // irq_defer_until_ (unbounded deferral would starve wakes and make the
  // deadlock oracle unsound).
  bool irq_episode_consulted_ = false;
  Cycles irq_defer_until_ = 0;

  friend class Switcher;
  friend class CompartmentCtx;
};

}  // namespace cheriot

#endif  // SRC_KERNEL_SYSTEM_H_
