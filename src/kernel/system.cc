#include "src/kernel/system.h"

#include <algorithm>
#include <map>

#include "src/base/costs.h"
#include "src/base/log.h"
#include "src/runtime/compartment_ctx.h"
#include "src/snap/wire.h"

// AddressSanitizer needs to be told about ucontext fiber switches or it
// reports false stack-use-after-scope errors on every context switch (see
// google/sanitizers#189).
#if defined(__SANITIZE_ADDRESS__)
#define CHERIOT_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CHERIOT_ASAN_FIBERS 1
#endif
#endif
#ifdef CHERIOT_ASAN_FIBERS
#include <pthread.h>
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

// ThreadSanitizer has its own fiber API; without the annotations it attributes
// one fiber's stack accesses to another and reports false races when a Fleet
// runs boards on a thread pool.
#if defined(__SANITIZE_THREAD__)
#define CHERIOT_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define CHERIOT_TSAN_FIBERS 1
#endif
#endif
#ifdef CHERIOT_TSAN_FIBERS
#include <sanitizer/tsan_interface.h>
#endif

namespace cheriot {

namespace {
// ucontext trampolines take no arguments portably; the starting thread id is
// staged in the active System. One System per host thread at any instant
// (Fleet epochs never step the same board concurrently), so thread_local is
// exactly the right scope: parallel boards don't clobber each other's slot.
thread_local System* g_active_system = nullptr;

extern "C" void ThreadTrampoline() {
#ifdef CHERIOT_ASAN_FIBERS
  // Complete the switch that started this fiber.
  __sanitizer_finish_switch_fiber(nullptr, nullptr, nullptr);
#endif
  System* sys = g_active_system;
  sys->RunThreadBody(sys->StartingThreadId());
}

#ifdef CHERIOT_ASAN_FIBERS
// Stack bounds of the calling host thread, for ASan's fiber bookkeeping when
// swapping back to the main context. Cached per host thread: a Fleet may
// enter Run() from any pool thread, so the bounds captured at Boot() time
// (on the booting thread) would be wrong.
struct HostStackBounds {
  const void* bottom = nullptr;
  size_t size = 0;
};
const HostStackBounds& CurrentHostStackBounds() {
  thread_local HostStackBounds bounds = [] {
    HostStackBounds b;
    pthread_attr_t attr;
    if (pthread_getattr_np(pthread_self(), &attr) == 0) {
      void* addr = nullptr;
      size_t size = 0;
      pthread_attr_getstack(&attr, &addr, &size);
      pthread_attr_destroy(&attr);
      b.bottom = addr;
      b.size = size;
    }
    return b;
  }();
  return bounds;
}
#endif
}  // namespace

System::System(Machine& machine, FirmwareImage image, SystemOptions options)
    : machine_(machine), options_(options) {
  image_ = AugmentWithTcb(std::move(image));
}

System::~System() {
  if (g_active_system == this) {
    g_active_system = nullptr;
  }
#ifdef CHERIOT_TSAN_FIBERS
  for (auto& t : threads_) {
    if (t.tsan_fiber != nullptr) {
      __tsan_destroy_fiber(t.tsan_fiber);
      t.tsan_fiber = nullptr;
    }
  }
#endif
#ifdef CHERIOT_ASAN_FIBERS
  // A thread parked mid-call never returns from its frames, so their
  // redzones stay poisoned, and munmap does not clear ASan's shadow: a later
  // mapping at the same address (another board's SRAM) would read as stack.
  for (auto& t : threads_) {
    __asan_unpoison_memory_region(t.host_stack.data(), t.host_stack.size());
  }
#endif
}

int System::StartingThreadId() const { return starting_thread_id_; }

void System::Boot() {
  boot_ = Loader::Load(machine_, std::move(image_));
  sched_ = std::make_unique<Scheduler>(&threads_, &machine_.observers());
  switcher_ = std::make_unique<Switcher>(this);
  alloc_ = std::make_unique<Allocator>(this);
  token_ = std::make_unique<TokenService>(this);
  alloc_->Init();
  token_->Init();

  // Interrupt futex words live in the scheduler compartment's globals.
  const int sched_comp = boot_->CompartmentIndex("sched");
  const Address sched_globals = boot_->compartments[sched_comp].globals_base;
  for (size_t i = 0; i < static_cast<size_t>(IrqLine::kCount); ++i) {
    sched_->SetInterruptFutexAddress(static_cast<IrqLine>(i),
                                     sched_globals + 4 * static_cast<Address>(i));
  }

  CreateThreads();
  machine_.memory().SetAccessHook(
      [](void* self) { static_cast<System*>(self)->PreemptCheck(); }, this);
  booted_ = true;

  if (!machine_.observers().empty()) {
    // Observers keep events integer-only and resolve names at export time,
    // from one table built here and shared by all of them.
    auto names = std::make_shared<obs::NameTable>();
    for (const auto& c : boot_->compartments) {
      names->compartments.push_back(c.name);
      names->exports.emplace_back();
      for (const auto& e : c.def->exports) {
        names->exports.back().push_back(e.name);
      }
    }
    for (const auto& l : boot_->libraries) {
      names->libraries.push_back(l.name);
      names->library_exports.emplace_back();
      for (const auto& e : l.def->exports) {
        names->library_exports.back().push_back(e.name);
      }
    }
    for (const auto& t : threads_) {
      names->threads.push_back(t.name);
    }
    for (obs::Observer* o : machine_.observers()) {
      o->OnBootDone(*this, names);
    }
  }
}

void System::CreateThreads() {
  threads_.reserve(boot_->threads.size());
  for (size_t i = 0; i < boot_->threads.size(); ++i) {
    const ThreadLayout& layout = boot_->threads[i];
    GuestThread t;
    t.id = static_cast<int>(i);
    t.name = layout.name;
    t.priority = layout.priority;
    t.stack_base = layout.stack_base;
    t.stack_size = layout.stack_size;
    t.sp = layout.stack_base + layout.stack_size;
    t.high_water = t.sp;
    t.stack_cap =
        Capability::RootReadWrite(layout.stack_base,
                                  layout.stack_base + layout.stack_size)
            .WithPermissions(PermissionSet::Stack());
    t.trusted_stack_base = layout.trusted_stack_base;
    t.max_frames = layout.max_frames;
    t.entry_compartment = layout.entry_compartment;
    t.entry_export = layout.entry_export;
    t.host_stack = AnonMapping(256 * 1024);
    threads_.push_back(std::move(t));
  }
  for (auto& t : threads_) {
    getcontext(&t.context);
    t.context.uc_stack.ss_sp = t.host_stack.data();
    t.context.uc_stack.ss_size = t.host_stack.size();
    t.context.uc_link = &main_context_;
    makecontext(&t.context, ThreadTrampoline, 0);
#ifdef CHERIOT_TSAN_FIBERS
    t.tsan_fiber = __tsan_create_fiber(0);
#endif
    sched_->Admit(t.id);
  }
}

void System::RunThreadBody(int thread_id) {
  GuestThread& t = threads_[thread_id];
  try {
    switcher_->InitialCall(t);
  } catch (UnwindException&) {
    LOG_INFO("thread %s unwound out of its entry compartment", t.name.c_str());
  } catch (ForcedUnwindException&) {
    LOG_INFO("thread %s force-unwound", t.name.c_str());
  } catch (TrapException& e) {
    LOG_WARN("thread %s died on unhandled trap: %s", t.name.c_str(), e.what());
  }
  t.state = GuestThread::State::kExited;
  sched_->RemoveFromReady(thread_id);
  const int next = sched_->PickNext();
  if (next >= 0) {
    SwitchTo(next);
  } else {
    SwitchToIdle();
  }
  // Never resumed: the fiber is dead.
}

void System::SwitchTo(int next_id) {
  GuestThread& next = threads_[next_id];
  const int prev = current_thread_id_;
  if (prev == next_id) {
    next.state = GuestThread::State::kRunning;
    return;
  }
  const bool prev_dying =
      prev >= 0 && threads_[prev].state == GuestThread::State::kExited;
  if (prev >= 0 && threads_[prev].state == GuestThread::State::kRunning) {
    threads_[prev].state = GuestThread::State::kReady;
  }
  next.state = GuestThread::State::kRunning;
  current_thread_id_ = next_id;
  quantum_end_ = Now() + options_.tick_quantum;
  ArmTimer();
  for (obs::Observer* o : machine_.observers()) {
    // Before the tick below, so the switch cost is charged to the incoming
    // thread's context.
    o->OnContextSwitch(prev, next_id);
  }
  machine_.Tick(cost::kContextSwitch);
  ucontext_t* prev_ctx =
      prev >= 0 ? &threads_[prev].context : &main_context_;
  if (!next.started) {
    next.started = true;
    starting_thread_id_ = next_id;
    g_active_system = this;
  }
  in_kernel_ = false;  // the target resumes in guest context
  FiberSwap(prev_ctx, &next.context, &next, prev_dying);
  // Resumed as `prev`; in_kernel_ was cleared by whoever resumed us.
}

void System::SwitchToIdle() {
  const int prev = current_thread_id_;
  const bool prev_dying =
      threads_[prev].state == GuestThread::State::kExited;
  current_thread_id_ = -1;
  for (obs::Observer* o : machine_.observers()) {
    o->OnContextSwitch(prev, -1);
  }
  in_kernel_ = false;
  FiberSwap(&threads_[prev].context, &main_context_, nullptr, prev_dying);
}

void System::FiberSwap(ucontext_t* from, ucontext_t* to,
                       const GuestThread* target, bool from_dying) {
#ifdef CHERIOT_TSAN_FIBERS
  // Null target means "back to the main context" — the fiber of whichever
  // host thread entered Run() this epoch.
  __tsan_switch_to_fiber(target ? target->tsan_fiber : main_tsan_fiber_, 0);
#endif
#ifdef CHERIOT_ASAN_FIBERS
  void* fake_stack = nullptr;
  const void* bottom;
  size_t size;
  if (target) {
    bottom = target->host_stack.data();
    size = target->host_stack.size();
  } else {
    const auto& host = CurrentHostStackBounds();
    bottom = host.bottom;
    size = host.size;
  }
  // A dying fiber passes null so ASan frees its fake stack; it never resumes.
  __sanitizer_start_switch_fiber(from_dying ? nullptr : &fake_stack, bottom,
                                 size);
  swapcontext(from, to);
  __sanitizer_finish_switch_fiber(fake_stack, nullptr, nullptr);
#else
  (void)target;
  (void)from_dying;
  swapcontext(from, to);
#endif
}

void System::ArmTimer() {
  Cycles deadline = Now() + options_.tick_quantum;
  if (auto next = sched_->NextDeadline()) {
    deadline = std::min(deadline, *next);
  }
  machine_.timer().SetDeadline(std::max(deadline, Now() + 1));
}

bool System::DeliverPendingIrqs(bool from_guest) {
  bool resched = false;
  auto& irqs = machine_.irqs();
  Memory& mem = machine_.memory();
  static constexpr IrqLine kFutexLines[] = {IrqLine::kRevoker,
                                            IrqLine::kEthernet, IrqLine::kUart};
  for (IrqLine line : kFutexLines) {
    if (!irqs.Pending(line)) {
      continue;
    }
    irqs.Clear(line);
    const Address fa = sched_->InterruptFutexAddress(line);
    if (fa != 0) {
      mem.RawStoreWord(fa, mem.RawLoadWord(fa) + 1);
      machine_.Tick(cost::kLoadWord + cost::kStoreWord);
      if (sched_->FutexWake(fa, 1 << 30) > 0) {
        resched = true;
      }
    }
  }
  if (irqs.Pending(IrqLine::kTimer)) {
    irqs.Clear(IrqLine::kTimer);
    if (sched_->WakeExpired(Now()) > 0) {
      resched = true;
    }
    resched = true;  // quantum may have expired
    ArmTimer();
  }
  return resched;
}

void System::PreemptCheck() {
  if (in_kernel_ || !booted_ || current_thread_id_ < 0) {
    return;
  }
  GuestThread& t = current_thread();
  // Forced unwind (micro-reboot step 2) is delivered at preemption points.
  if (!t.forced_unwind.empty() &&
      t.forced_unwind.count(t.current_compartment) > 0) {
    throw ForcedUnwindException{t.current_compartment};
  }
  // Run-budget pause: hand control back to Run() without touching the
  // scheduler, the quantum, the timer, or the clock. The pause must be
  // invisible to the simulation — if it cost even one cycle, the number of
  // epoch barriers a fleet run takes (which varies with epoch length and
  // fast-forward mode) would leak into guest-visible state and break the
  // fingerprint determinism contract.
  if (Now() >= run_deadline_ || stop_requested_) {
    in_kernel_ = true;
    paused_thread_id_ = t.id;
    FiberSwap(&t.context, &main_context_, nullptr, false);
    in_kernel_ = false;  // resumed by Run(); continue in guest context
    return;
  }
  if (!t.interrupts_enabled || !machine_.irqs().AnyPending()) {
    return;
  }
  // kIrqDelivery decision point: once per pending episode the arbiter may
  // defer delivery by one tick quantum (bounded — unbounded deferral would
  // starve wakes and make the deadlock oracle unsound). Checked before the
  // trap-entry tick so a deferred episode costs nothing until delivery.
  if (arbiter_ != nullptr) {
    if (!irq_episode_consulted_) {
      irq_episode_consulted_ = true;
      uint32_t mask = 0;
      for (size_t i = 0; i < static_cast<size_t>(IrqLine::kCount); ++i) {
        if (machine_.irqs().Pending(static_cast<IrqLine>(i))) {
          mask |= 1u << i;
        }
      }
      if (arbiter_->Choose(DecisionKind::kIrqDelivery, mask, 2) == 1) {
        irq_defer_until_ = Now() + options_.tick_quantum;
      }
    }
    if (Now() < irq_defer_until_) {
      return;
    }
    irq_episode_consulted_ = false;
    irq_defer_until_ = 0;
  }
  in_kernel_ = true;
  machine_.Tick(cost::kTrapEntry);
  const bool resched = DeliverPendingIrqs(/*from_guest=*/true);
  if (resched) {
    const int next = sched_->PickNext();
    if (next >= 0 && next != t.id) {
      const bool higher = threads_[next].priority > t.priority;
      const bool quantum_expired = Now() >= quantum_end_;
      // kPreempt decision point: at quantum expiry (never when a higher-
      // priority thread woke — priority preemption is architectural) the
      // arbiter may grant the running thread one more quantum.
      if (!higher && quantum_expired && arbiter_ != nullptr &&
          arbiter_->Choose(DecisionKind::kPreempt,
                           static_cast<uint32_t>(t.id), 2) == 1) {
        quantum_end_ = Now() + options_.tick_quantum;
      } else if (higher || quantum_expired) {
        machine_.Tick(cost::kSchedule);
        if (quantum_expired) {
          sched_->RoundRobin(t.id);
        }
        SwitchTo(next);
        return;  // in_kernel_ cleared on resume path
      }
    }
  }
  in_kernel_ = false;
}

void System::MaybeArbiterPreempt() {
  if (arbiter_ == nullptr || !booted_ || in_kernel_ || current_thread_id_ < 0) {
    return;
  }
  GuestThread& t = current_thread();
  if (!t.interrupts_enabled) {
    return;  // deferred-interrupt sections are atomic on this single core
  }
  // Only a real decision when another thread is ready to run (the current
  // thread is kRunning, so PickNext() can only name somebody else).
  if (sched_->PickNext() < 0) {
    return;
  }
  if (arbiter_->Choose(DecisionKind::kSyncPreempt,
                       static_cast<uint32_t>(t.id), 2) != 1) {
    return;
  }
  // Yield-equivalent: rotate and hand the core over, exactly as
  // YieldCurrent() would if the guest had called sched.yield here.
  sched_->RoundRobin(t.id);
  const int next = sched_->PickNext();
  if (next >= 0 && next != t.id) {
    SwitchTo(next);
  }
}

void System::SwitchAway() {
  ArmTimer();
  const int next = sched_->PickNext();
  if (next >= 0) {
    SwitchTo(next);
  } else {
    SwitchToIdle();
  }
}

Status System::BlockCurrentOnFutex(Address addr, Cycles timeout_cycles) {
  GuestThread& t = current_thread();
  const Cycles wake_at = timeout_cycles == ~0ull || timeout_cycles == ~0u
                             ? GuestThread::kNoDeadline
                             : Now() + timeout_cycles;
  machine_.Tick(cost::kSchedule / 4);
  sched_->MakeBlocked(t.id, addr, wake_at);
  SwitchAway();
  return t.timed_out ? Status::kTimedOut : Status::kOk;
}

int System::FutexWakeAndPreempt(Address addr, int count) {
  const int woken = sched_->FutexWake(addr, count);
  // A wake from inside a deferred-interrupt section (e.g. the scheduler's
  // own export) must not preempt immediately; the reschedule is deferred to
  // the point where the posture re-enables (§2.1 interrupt posture).
  if (woken > 0) {
    need_resched_ = true;
    CheckDeferredResched();
  }
  return woken;
}

void System::CheckDeferredResched() {
  if (!need_resched_ || current_thread_id_ < 0 || !booted_) {
    return;
  }
  GuestThread& t = current_thread();
  if (!t.interrupts_enabled) {
    return;  // retried when the switcher restores an enabled posture
  }
  need_resched_ = false;
  const int next = sched_->PickNext();
  if (next >= 0 && next != t.id && threads_[next].priority > t.priority) {
    machine_.Tick(cost::kSchedule);
    SwitchTo(next);
  }
}

void System::YieldCurrent() {
  GuestThread& t = current_thread();
  sched_->RoundRobin(t.id);
  const int next = sched_->PickNext();
  if (next >= 0 && next != t.id) {
    SwitchTo(next);
  }
}

void System::SleepCurrent(Cycles cycles) {
  GuestThread& t = current_thread();
  sched_->MakeSleeping(t.id, Now() + std::max<Cycles>(cycles, 1));
  SwitchAway();
}

bool System::WaitForRevokerPass(Cycles deadline) {
  Revoker& revoker = machine_.revoker();
  const uint32_t target = revoker.epoch() + 1;
  while (revoker.epoch() < target) {
    if (Now() >= deadline) {
      return false;
    }
    // Ask the revoker for a completion interrupt, then wait on its interrupt
    // futex — the same pattern guest code uses (§5.3.2).
    revoker.Mmio(12, /*is_store=*/true, 1);
    machine_.Tick(cost::kStoreWord);
    const Address fa = sched_->InterruptFutexAddress(IrqLine::kRevoker);
    const Cycles budget =
        deadline == ~0ull ? ~0ull : deadline - Now();
    BlockCurrentOnFutex(fa, budget);
  }
  return true;
}

Cycles System::MicroRebootCompartment(int compartment_id) {
  const Cycles start = Now();
  CompartmentRuntime& rt = boot_->compartments[compartment_id];
  // Step 1: close the call guard; new entries bounce with kBusy.
  rt.call_guard_closed = true;
  // Step 2: rewind all other threads that are in the compartment.
  switcher_->UnwindThreadsIn(compartment_id, current_thread_id_);
  // Step 3: release all heap memory held under the compartment's quotas.
  for (const auto& binding : rt.imports) {
    if (binding.kind != ImportBinding::Kind::kSealedObject) {
      continue;
    }
    const Capability q = alloc_->UnsealAllocCap(binding.cap);
    if (q.tag()) {
      alloc_->FreeAllForQuota(machine_.memory().LoadWord(q, q.base() + 12));
      machine_.memory().StoreWord(q, q.base() + 8, 0);  // quota whole again
    }
  }
  // Step 4: reset globals from the compile-time snapshot and rebuild the
  // native state object.
  Memory& mem = machine_.memory();
  if (rt.globals_size > 0) {
    std::copy(rt.globals_snapshot.begin(), rt.globals_snapshot.end(),
              mem.raw(rt.globals_base));
    machine_.Tick(cost::kStoreWord * (rt.globals_size / 4 + 1));
  }
  rt.state = rt.def->state_factory ? rt.def->state_factory() : nullptr;
  ++rt.reboot_count;
  // Step 5: reopen the guard.
  rt.call_guard_closed = false;
  rt.last_reboot_at = start;
  rt.last_reboot_duration = Now() - start;
  for (obs::Observer* o : machine_.observers()) {
    o->OnMicroReboot(compartment_id, start);
  }
  return rt.last_reboot_duration;
}

System::RunResult System::Run(Cycles max_cycles) {
  g_active_system = this;
#ifdef CHERIOT_TSAN_FIBERS
  main_tsan_fiber_ = __tsan_get_current_fiber();
#endif
  run_deadline_ =
      max_cycles == ~0ull ? ~0ull : Now() + max_cycles;
  stop_requested_ = false;
  while (true) {
    if (sched_->AllExited()) {
      return RunResult::kAllExited;
    }
    if (stop_requested_) {
      return RunResult::kStopped;
    }
    if (Now() >= run_deadline_) {
      return RunResult::kBudgetExhausted;
    }
    if (paused_thread_id_ >= 0) {
      // Resume a thread parked by the run-budget pause in PreemptCheck.
      // Bypass the scheduler entirely (no tick, quantum reset or observer
      // event) so the pause/resume pair is invisible to the simulation.
      GuestThread& t = threads_[paused_thread_id_];
      paused_thread_id_ = -1;
      g_active_system = this;
      FiberSwap(&main_context_, &t.context, &t, false);
      continue;
    }
    DeliverPendingIrqs(/*from_guest=*/false);
    sched_->WakeExpired(Now());
    const int next = sched_->PickNext();
    if (next >= 0) {
      SwitchTo(next);
      continue;
    }
    if (machine_.irqs().AnyPending()) {
      continue;  // deliver on the next iteration
    }
    // Idle: skip time to the next event, or declare deadlock. The quantum
    // timer we arm ourselves does not count as a future event — with no
    // runnable thread it would only ever re-arm itself.
    const bool has_deadline = sched_->NextDeadline().has_value();
    const bool has_hw_event = machine_.HasFutureEventIgnoringTimer();
    if (!has_deadline && !has_hw_event) {
      deadlocked_ = true;
      LOG_WARN("system deadlock: all threads blocked with no pending event");
      return RunResult::kDeadlock;
    }
    if (run_deadline_ != ~0ull && Now() >= run_deadline_) {
      // IRQ bookkeeping above can tick the clock across the deadline after
      // the top-of-loop check; recheck before computing the idle budget or
      // the subtraction below underflows into an unbounded skip.
      continue;  // the top of the loop returns kBudgetExhausted
    }
    const Cycles budget =
        run_deadline_ == ~0ull ? options_.idle_chunk
                               : std::min<Cycles>(options_.idle_chunk,
                                                  run_deadline_ - Now());
    Cycles limit = std::max<Cycles>(budget, 1);
    if (options_.fast_forward) {
      // Idle fast-forward: jump straight to the next genuine event. The
      // quantum timer armed by ArmTimer is not one — with no runnable thread
      // it would only re-arm itself every tick_quantum — so AdvanceIdle
      // ignores it; if the jump crosses its deadline the interrupt pends
      // once and is delivered at the jump target, which with no thread to
      // wake or preempt changes nothing observable. Every genuine wake
      // source still bounds the jump exactly: scheduler sleep/timeout
      // deadlines here, revoker completion and pending device deliveries
      // inside AdvanceIdle.
      if (auto d = sched_->NextDeadline()) {
        limit = std::min(limit, *d > Now() ? *d - Now() : 1);
      }
    }
    const Cycles skipped = machine_.AdvanceIdle(limit, options_.fast_forward);
    sched_->AddIdleCycles(skipped);
    if (options_.fast_forward && skipped >= options_.tick_quantum) {
      // Idle-span event: spans the quantum timer would have chopped. The
      // span is already charged to the idle context.
      for (obs::Observer* o : machine_.observers()) {
        o->OnIdleFastForward(skipped);
      }
    }
  }
}

Cycles System::NextEventCycle() const {
  if (!booted_) {
    return Now();
  }
  if (paused_thread_id_ >= 0) {
    return Now();  // a thread is mid-op in a run-budget pause: busy now
  }
  if (sched_->PickNext() >= 0 || machine_.irqs().AnyPending()) {
    return Now();
  }
  Cycles next = kForever;
  if (auto d = sched_->NextDeadline()) {
    next = std::min(next, *d);
  }
  if (auto h = machine_.NextHardwareEvent()) {
    next = std::min(next, *h);
  }
  return next;
}

bool System::RunUntil(const std::function<bool()>& pred, Cycles max_cycles) {
  const Cycles deadline = Now() + max_cycles;
  while (!pred()) {
    if (Now() >= deadline || sched_->AllExited() || deadlocked_) {
      return pred();
    }
    const Cycles slice = std::min<Cycles>(options_.tick_quantum,
                                          deadline - Now());
    Run(std::max<Cycles>(slice, 1));
  }
  return true;
}

// ---------------------------------------------------------------------------
// TCB service compartments: "alloc" and "sched" entry points, "token" library
// ---------------------------------------------------------------------------

FirmwareImage System::AugmentWithTcb(FirmwareImage image) {
  if (image.compartments.empty() && image.threads.empty()) {
    LOG_WARN("booting an empty firmware image");
  }
  ImageBuilder b(image.name);
  // Re-seat the user image in a builder so we can append.
  FirmwareImage augmented = std::move(image);

  auto arg = [](const std::vector<Capability>& a, size_t i) {
    return i < a.size() ? a[i] : Capability();
  };

  // --- allocator compartment (TCB, trusted for heap memory safety) ---
  CompartmentDef alloc;
  alloc.name = "alloc";
  alloc.code_size = 9 * 1024;  // Table 2: 9 KB
  alloc.globals_size = 56;     // Table 2: 56 B
  alloc.exports.push_back(
      {"heap_allocate",
       [this, arg](CompartmentCtx& ctx, const std::vector<Capability>& a) {
         // kAllocFail injection point: the arbiter may force this call to
         // fail as if the heap were exhausted (untagged result, nothing
         // allocated) — only branched under `cheriot mc --inject-faults`.
         if (arbiter_ != nullptr &&
             arbiter_->Choose(DecisionKind::kAllocFail,
                              arg(a, 1).word(), 2) == 1) {
           return Capability();
         }
         return alloc_->HeapAllocate(ctx, arg(a, 0), arg(a, 1).word(),
                                     arg(a, 2).word());
       },
       256, 6, InterruptPosture::kDisabled});
  alloc.exports.push_back(
      {"heap_free",
       [this, arg](CompartmentCtx& ctx, const std::vector<Capability>& a) {
         return StatusCap(alloc_->HeapFree(ctx, arg(a, 0), arg(a, 1)));
       },
       256, 6, InterruptPosture::kDisabled});
  alloc.exports.push_back(
      {"heap_claim",
       [this, arg](CompartmentCtx& ctx, const std::vector<Capability>& a) {
         return StatusCap(alloc_->HeapClaim(ctx, arg(a, 0), arg(a, 1)));
       },
       256, 6, InterruptPosture::kDisabled});
  alloc.exports.push_back(
      {"heap_can_free",
       [this, arg](CompartmentCtx& ctx, const std::vector<Capability>& a) {
         return WordCap(alloc_->HeapCanFree(ctx, arg(a, 0), arg(a, 1)) ? 1 : 0);
       },
       256, 6, InterruptPosture::kDisabled});
  alloc.exports.push_back(
      {"quota_remaining",
       [this, arg](CompartmentCtx& ctx, const std::vector<Capability>& a) {
         return WordCap(alloc_->QuotaRemaining(ctx, arg(a, 0)));
       },
       256, 6, InterruptPosture::kDisabled});
  alloc.exports.push_back(
      {"heap_free_all",
       [this, arg](CompartmentCtx& ctx, const std::vector<Capability>& a) {
         return WordCap(alloc_->HeapFreeAll(ctx, arg(a, 0)));
       },
       256, 6, InterruptPosture::kDisabled});
  alloc.exports.push_back(
      {"token_key_new",
       [this](CompartmentCtx& ctx, const std::vector<Capability>&) {
         return alloc_->TokenKeyNew(ctx);
       },
       256, 6, InterruptPosture::kDisabled});
  alloc.exports.push_back(
      {"token_obj_new",
       [this, arg](CompartmentCtx& ctx, const std::vector<Capability>& a) {
         return alloc_->TokenObjNew(ctx, arg(a, 0), arg(a, 1),
                                    arg(a, 2).word());
       },
       256, 6, InterruptPosture::kDisabled});
  alloc.exports.push_back(
      {"token_obj_destroy",
       [this, arg](CompartmentCtx& ctx, const std::vector<Capability>& a) {
         return StatusCap(
             alloc_->TokenObjDestroy(ctx, arg(a, 0), arg(a, 1), arg(a, 2)));
       },
       256, 6, InterruptPosture::kDisabled});
  // The allocator blocks on the revoker's interrupt futex; it imports the
  // revoker device like any other compartment (auditable).
  alloc.mmio_imports.push_back({"revoker", kRevokerMmioBase, kMmioRegionSize,
                                true});
  augmented.compartments.push_back(std::move(alloc));

  // --- scheduler compartment (TCB, trusted for availability only) ---
  CompartmentDef sched;
  sched.name = "sched";
  sched.code_size = 3300 + 300;  // Table 2: 3.3 KB
  sched.globals_size = 472;      // Table 2: 472 B (incl. interrupt futexes)
  sched.exports.push_back(
      {"futex_timed_wait",
       [this, arg](CompartmentCtx& ctx, const std::vector<Capability>& a) {
         const Capability word = arg(a, 0);
         const Word expected = arg(a, 1).word();
         const Word timeout = arg(a, 2).word();
         // Compare through the caller-supplied capability: the scheduler
         // needs only load permission and does not retain it (§3.2.4).
         Word value;
         try {
           value = machine_.memory().LoadWord(word, word.cursor());
         } catch (TrapException&) {
           return StatusCap(Status::kInvalidArgument);
         }
         if (value != expected) {
           return StatusCap(Status::kWouldBlock);
         }
         return StatusCap(BlockCurrentOnFutex(
             word.cursor(), timeout == ~0u ? ~0ull : timeout));
       },
       128, 6, InterruptPosture::kDisabled});
  sched.exports.push_back(
      {"futex_wake",
       [this, arg](CompartmentCtx& ctx, const std::vector<Capability>& a) {
         const Capability word = arg(a, 0);
         if (!word.tag() || word.IsSealed()) {
           return StatusCap(Status::kInvalidArgument);
         }
         const int count = static_cast<int>(arg(a, 1).word());
         return WordCap(static_cast<Word>(
             FutexWakeAndPreempt(word.cursor(), count)));
       },
       128, 6, InterruptPosture::kDisabled});
  sched.exports.push_back(
      {"yield",
       [this](CompartmentCtx&, const std::vector<Capability>&) {
         YieldCurrent();
         return StatusCap(Status::kOk);
       },
       128, 6, InterruptPosture::kDisabled});
  sched.exports.push_back(
      {"sleep",
       [this, arg](CompartmentCtx&, const std::vector<Capability>& a) {
         SleepCurrent(arg(a, 0).word());
         return StatusCap(Status::kOk);
       },
       128, 6, InterruptPosture::kDisabled});
  sched.exports.push_back(
      {"interrupt_futex_get",
       [this, arg](CompartmentCtx&, const std::vector<Capability>& a) {
         const auto line = static_cast<IrqLine>(arg(a, 0).word());
         if (static_cast<size_t>(line) >=
             static_cast<size_t>(IrqLine::kCount)) {
           return StatusCap(Status::kInvalidArgument);
         }
         const Address addr = sched_->InterruptFutexAddress(line);
         // Read-only capability to the futex word (least privilege).
         return Capability::RootReadWrite(addr, addr + 4).WithPermissions(
             PermissionSet({Permission::kGlobal, Permission::kLoad}));
       },
       128, 6, InterruptPosture::kDisabled});
  sched.exports.push_back(
      {"multiwaiter_create",
       [this, arg](CompartmentCtx&, const std::vector<Capability>& a) {
         return WordCap(static_cast<Word>(
             sched_->MultiwaiterCreate(static_cast<int>(arg(a, 0).word()))));
       },
       128, 6, InterruptPosture::kDisabled});
  sched.exports.push_back(
      {"multiwaiter_wait",
       [this, arg](CompartmentCtx& ctx, const std::vector<Capability>& a) {
         const int mw = static_cast<int>(arg(a, 0).word());
         const Capability events = arg(a, 1);
         const int count = static_cast<int>(arg(a, 2).word());
         const Word timeout = arg(a, 3).word();
         std::vector<Address> addrs;
         Memory& mem = machine_.memory();
         try {
           for (int i = 0; i < count; ++i) {
             const Address addr =
                 mem.LoadWord(events, events.cursor() + 8 * i);
             const Word expected =
                 mem.LoadWord(events, events.cursor() + 8 * i + 4);
             if (addr < mem.sram_base() || addr + 4 > mem.sram_top()) {
               return StatusCap(Status::kInvalidArgument);
             }
             const Word value = mem.RawLoadWord(addr);
             if (value != expected) {
               return StatusCap(Status::kWouldBlock);
             }
             addrs.push_back(addr);
           }
         } catch (TrapException&) {
           return StatusCap(Status::kInvalidArgument);
         }
         const Status armed = sched_->MultiwaiterArm(mw, addrs);
         if (armed != Status::kOk) {
           return StatusCap(armed);
         }
         GuestThread& t = current_thread();
         const Cycles wake_at =
             timeout == ~0u ? GuestThread::kNoDeadline : Now() + timeout;
         sched_->BlockOnMultiwaiter(t.id, mw, wake_at);
         SwitchAway();
         return StatusCap(t.timed_out ? Status::kTimedOut : Status::kOk);
       },
       256, 6, InterruptPosture::kDisabled});
  sched.exports.push_back(
      {"multiwaiter_destroy",
       [this, arg](CompartmentCtx&, const std::vector<Capability>& a) {
         return StatusCap(
             sched_->MultiwaiterDestroy(static_cast<int>(arg(a, 0).word())));
       },
       128, 6, InterruptPosture::kDisabled});
  sched.exports.push_back(
      {"thread_id",
       [this](CompartmentCtx&, const std::vector<Capability>&) {
         return WordCap(static_cast<Word>(current_thread_id_));
       },
       128, 6, InterruptPosture::kDisabled});
  sched.exports.push_back(
      {"idle_cycles",
       [this](CompartmentCtx&, const std::vector<Capability>&) {
         return WordCap(static_cast<Word>(sched_->idle_cycles()));
       },
       128, 6, InterruptPosture::kDisabled});
  augmented.compartments.push_back(std::move(sched));

  // --- token shared library (fast-path unseal, §3.2.1) ---
  LibraryDef token;
  token.name = "token";
  token.code_size = 256;
  token.exports.push_back(
      {"token_unseal",
       [this, arg](CompartmentCtx& ctx, const std::vector<Capability>& a) {
         return token_->Unseal(arg(a, 0), arg(a, 1));
       },
       64, 6, InterruptPosture::kInherited});
  augmented.libraries.push_back(std::move(token));

  (void)b;
  return augmented;
}

// --- Snapshot (DESIGN.md §10) ---------------------------------------------

void System::SerializeState(snap::Writer& w) const {
  w.I32(current_thread_id_);
  w.I32(starting_thread_id_);
  w.I32(paused_thread_id_);
  w.Bool(in_kernel_);
  w.Bool(need_resched_);
  w.Bool(stop_requested_);
  w.Bool(deadlocked_);
  w.U64(quantum_end_);
  w.U64(run_deadline_);

  w.U32(static_cast<uint32_t>(threads_.size()));
  for (const GuestThread& t : threads_) {
    w.U16(t.priority);
    w.U8(static_cast<uint8_t>(t.state));
    w.U32(t.stack_base);
    w.U32(t.stack_size);
    w.U32(t.sp);
    w.U32(t.high_water);
    w.Cap(t.stack_cap);
    w.U32(t.trusted_stack_base);
    w.U16(t.max_frames);
    w.U16(t.frame_depth);
    w.I32(t.current_compartment);
    w.U32(static_cast<uint32_t>(t.compartment_stack.size()));
    for (int c : t.compartment_stack) {
      w.I32(c);
    }
    w.Bool(t.interrupts_enabled);
    w.U32(t.hazard_slots[0]);
    w.U32(t.hazard_slots[1]);
    w.U32(static_cast<uint32_t>(t.forced_unwind.size()));
    for (int c : t.forced_unwind) {  // std::set: deterministic order
      w.I32(c);
    }
    w.U32(t.futex_addr);
    w.U64(t.wake_at);
    w.Bool(t.timed_out);
    w.I32(t.multiwaiter_id);
    w.U64(t.block_seq);
    w.I32(t.entry_compartment);
    w.I32(t.entry_export);
    w.Bool(t.started);
    w.U64(t.run_cycles);
    w.U32(t.compartment_calls);
    w.U32(t.peak_stack_bytes);
  }

  // Mutable micro-reboot bookkeeping lives here (not in the BOOT section) so
  // a long-running board's BOOT section stays byte-identical to its
  // post-boot form.
  w.U32(static_cast<uint32_t>(boot_->compartments.size()));
  for (const CompartmentRuntime& c : boot_->compartments) {
    w.Bool(c.call_guard_closed);
    w.U32(c.reboot_count);
    w.U64(c.last_reboot_at);
    w.U64(c.last_reboot_duration);
  }
}

}  // namespace cheriot
