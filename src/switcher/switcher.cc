#include "src/switcher/switcher.h"

#include "src/base/costs.h"
#include "src/base/log.h"
#include "src/kernel/system.h"
#include "src/runtime/compartment_ctx.h"

namespace cheriot {

namespace {

bool PostureToEnabled(InterruptPosture posture, bool inherited) {
  switch (posture) {
    case InterruptPosture::kInherited: return inherited;
    case InterruptPosture::kEnabled: return true;
    case InterruptPosture::kDisabled: return false;
  }
  return inherited;
}

// Restores the thread's interrupt posture if the switcher path unwinds via
// an exception before installing the callee's posture.
class PostureGuard {
 public:
  PostureGuard(GuestThread* t, bool saved) : t_(t), saved_(saved) {}
  ~PostureGuard() {
    if (t_ != nullptr) {
      t_->interrupts_enabled = saved_;
    }
  }
  void Disarm() { t_ = nullptr; }

 private:
  GuestThread* t_;
  bool saved_;
};

}  // namespace

TrustedStackView Switcher::TrustedStackFor(GuestThread& thread) {
  return TrustedStackView(&system_->machine().memory(),
                          system_->boot().trusted_stack_root,
                          thread.trusted_stack_base, thread.max_frames);
}

void Switcher::ZeroStackRange(GuestThread& thread, Address from, Address to) {
  if (from >= to) {
    return;
  }
  system_->machine().memory().ZeroRange(thread.stack_cap, from, to - from);
}

Capability Switcher::CompartmentCall(GuestThread& t, const ImportBinding& b,
                                     const std::vector<Capability>& args) {
  BootInfo& boot = system_->boot();
  Machine& m = system_->machine();

  // The switcher runs with interrupts deferred (forward sentry into the
  // switcher is interrupt-disabling).
  const bool saved_irq = t.interrupts_enabled;
  t.interrupts_enabled = false;
  PostureGuard posture_guard(&t, saved_irq);
  m.Tick(cost::kSwitcherCallPath);

  // Unseal the export capability: only the switcher holds this authority.
  const Capability unsealed = b.cap.UnsealedWith(boot.switcher_seal_key);
  if (!unsealed.tag()) {
    throw TrapException(TrapCode::kSealViolation, b.cap.cursor(),
                        "invalid sealed export capability");
  }
  const auto table_it = boot.export_table_index.find(unsealed.base());
  if (table_it == boot.export_table_index.end()) {
    throw TrapException(TrapCode::kSealViolation, unsealed.base(),
                        "capability does not reference an export table");
  }
  const int callee_id = table_it->second;
  CompartmentRuntime& callee = boot.compartments[callee_id];
  const Address entry_off = unsealed.cursor() - unsealed.base();
  if (entry_off < kExportTableHeaderBytes ||
      (entry_off - kExportTableHeaderBytes) % kExportEntryBytes != 0) {
    throw TrapException(TrapCode::kBoundsViolation, unsealed.cursor(),
                        "misaligned export entry");
  }
  const size_t export_index =
      (entry_off - kExportTableHeaderBytes) / kExportEntryBytes;
  if (export_index >= callee.def->exports.size()) {
    throw TrapException(TrapCode::kBoundsViolation, unsealed.cursor(),
                        "export index out of range");
  }
  return DoCall(t, callee_id, static_cast<int>(export_index), args, saved_irq,
                &posture_guard);
}

Capability Switcher::InitialCall(GuestThread& t) {
  const bool saved_irq = t.interrupts_enabled;
  PostureGuard posture_guard(&t, saved_irq);
  return DoCall(t, t.entry_compartment, t.entry_export, {}, saved_irq,
                &posture_guard);
}

Capability Switcher::DoCall(GuestThread& t, int callee_id, int export_index,
                            const std::vector<Capability>& args,
                            bool saved_irq, void* posture_guard_opaque) {
  BootInfo& boot = system_->boot();
  Machine& m = system_->machine();
  CompartmentRuntime& callee = boot.compartments[callee_id];
  const ExportDef& exp = callee.def->exports[export_index];
  auto* posture_guard = static_cast<PostureGuard*>(posture_guard_opaque);

  // Micro-reboot step 1: the guard rejects new entries while rebooting.
  if (callee.call_guard_closed) {
    posture_guard->Disarm();
    t.interrupts_enabled = saved_irq;
    return StatusCap(Status::kBusy);
  }

  // Stack-requirement check (§3.2.5 "Checking entry points"): the switcher
  // refuses the call and reports the error to the caller, so an attacker
  // cannot trigger stack-overflow faults *inside* the callee.
  if (t.sp < t.stack_base + exp.min_stack_bytes) {
    posture_guard->Disarm();
    t.interrupts_enabled = saved_irq;
    return StatusCap(Status::kNotEnoughStack);
  }

  TrustedStackView ts = TrustedStackFor(t);
  TrustedFrame frame;
  frame.caller_compartment = static_cast<uint16_t>(
      t.current_compartment < 0 ? 0xFFFF : t.current_compartment);
  frame.callee_compartment = static_cast<uint16_t>(callee_id);
  frame.export_index = static_cast<uint16_t>(export_index);
  frame.posture_and_flags = static_cast<uint16_t>(exp.posture);
  frame.sp_at_call = t.sp;
  frame.high_water_at_call = t.high_water;
  ts.Push(frame);
  ++t.frame_depth;

  // Ephemeral claims last until the next compartment call (§3.2.5).
  if (t.hazard_slots[0] != 0 || t.hazard_slots[1] != 0) {
    t.hazard_slots = {0, 0};
    ts.SetHazardSlot(0, 0);
    ts.SetHazardSlot(1, 0);
    system_->alloc().RetryPendingFrees();
  }

  // Zero the dirty region below sp before handing the stack to the callee
  // (caller-leak prevention on the call path).
  ZeroStackRange(t, t.high_water, t.sp);
  t.high_water = t.sp;

  const int caller_comp = t.current_compartment;
  t.current_compartment = callee_id;
  t.compartment_stack.push_back(callee_id);
  ++t.compartment_calls;
  posture_guard->Disarm();  // posture now managed explicitly below
  t.interrupts_enabled = PostureToEnabled(exp.posture, saved_irq);
  for (obs::Observer* o : m.observers()) {
    // Observers read the native compartment_stack and frame_depth: reading
    // the trusted stack would tick guest cycles and perturb the model.
    o->OnCompartmentCall(t, caller_comp, export_index);
  }

  Capability result;
  bool rethrow_forced = false;
  int forced_target = -1;
  {
    CompartmentCtx callee_ctx(system_, &t, callee_id);
    try {
      result = exp.fn ? exp.fn(callee_ctx, args) : Capability();
    } catch (TrapException& trap) {
      // A trap escaped the entry point without going through the ctx-level
      // dispatch (e.g. raised by switcher sub-operations inside the callee).
      // Give the callee's handler an unwind-or-nothing chance.
      TrapInfo info;
      info.cause = trap.code();
      info.fault_address = trap.fault_address();
      try {
        (void)DeliverTrap(t, callee_ctx, &info);
        // kInstallContext is meaningless at this boundary; treat as unwind.
      } catch (UnwindException&) {
      }
      result = StatusCap(Status::kCompartmentFail);
    } catch (UnwindException&) {
      result = StatusCap(Status::kCompartmentFail);
    } catch (ForcedUnwindException& f) {
      result = StatusCap(Status::kCompartmentFail);
      if (f.target_compartment == callee_id) {
        t.forced_unwind.erase(callee_id);
        // The forced unwind resolves at the evicted compartment's own frame:
        // one disposition per evicted thread, not per stack frame peeled on
        // the way here. No architectural fault address exists; the register
        // file is the compartment context being torn down (micro-reboot
        // step 2).
        if (!m.observers().empty()) {
          RegisterFile regs;
          regs.pcc = callee.pcc;
          regs.cgp = callee.cgp;
          regs.csp = t.stack_cap.WithAddress(t.sp);
          const obs::TrapEvent e{t, callee_id, TrapCode::kForcedUnwind, 0,
                                 regs};
          for (obs::Observer* o : m.observers()) {
            o->OnTrapDisposition(e, obs::Disposition::kForcedUnwind);
          }
        }
      } else {
        rethrow_forced = true;
        forced_target = f.target_compartment;
      }
    }
  }

  // Return path: zero everything the callee dirtied, restore the caller.
  m.Tick(cost::kSwitcherReturnPath);
  t.interrupts_enabled = false;
  const TrustedFrame f = ts.Pop();
  if (t.frame_depth > 0) {
    --t.frame_depth;
  }
  ZeroStackRange(t, t.high_water, f.sp_at_call);
  t.sp = f.sp_at_call;
  t.high_water = f.sp_at_call;
  t.current_compartment = caller_comp;
  if (!t.compartment_stack.empty()) {
    t.compartment_stack.pop_back();
  }
  for (obs::Observer* o : m.observers()) {
    // After the return-path tick, so the switcher's unwind/zeroing cost is
    // charged to the callee, matching the call path charging setup to the
    // caller. Unwind paths reach here too.
    o->OnCompartmentReturn(t, callee_id);
  }
  t.interrupts_enabled = saved_irq;
  if (saved_irq) {
    // Re-enabling interrupts delivers any reschedule deferred by a wake
    // performed inside the interrupt-disabled callee.
    system_->CheckDeferredResched();
  }

  if (rethrow_forced) {
    throw ForcedUnwindException{forced_target};
  }
  if (caller_comp >= 0 && t.forced_unwind.count(caller_comp)) {
    throw ForcedUnwindException{caller_comp};
  }
  return result;
}

Capability Switcher::LibraryCall(GuestThread& t, const ImportBinding& b,
                                 const std::vector<Capability>& args) {
  BootInfo& boot = system_->boot();
  Machine& m = system_->machine();
  m.Tick(cost::kLibraryCall);
  if (!b.cap.IsSentry()) {
    throw TrapException(TrapCode::kPermitExecuteViolation, b.cap.cursor(),
                        "library import is not a sentry");
  }
  const LibraryRuntime& lib = boot.libraries[b.target_library];
  const ExportDef& exp = lib.def->exports[b.target_export];
  for (obs::Observer* o : m.observers()) {
    o->OnLibraryCall(t, b.target_library, b.target_export);
  }

  // Sentries carry interrupt-posture semantics (§2.1); the matching return
  // restores the previous posture.
  const bool saved_irq = t.interrupts_enabled;
  PostureGuard posture_guard(&t, saved_irq);
  if (b.cap.otype() == OType::kSentryEnabling) {
    t.interrupts_enabled = true;
  } else if (b.cap.otype() == OType::kSentryDisabling) {
    t.interrupts_enabled = false;
  }

  // Library code runs in the caller's security context: same ctx compartment.
  CompartmentCtx ctx(system_, &t, t.current_compartment);
  const Capability result = exp.fn ? exp.fn(ctx, args) : Capability();
  return result;  // PostureGuard restores the posture ("backward sentry")
}

ErrorRecovery Switcher::DeliverTrap(GuestThread& t, CompartmentCtx& ctx,
                                    TrapInfo* info) {
  ++trap_count_;
  BootInfo& boot = system_->boot();
  Machine& m = system_->machine();
  // Observers snapshot the fault before any handler runs (the handler may
  // repair the register file or free the object the fault hit) and learn
  // the disposition once the outcome is known.
  const obs::TrapEvent e{t, ctx.compartment(), info->cause,
                         info->fault_address, info->regs};
  for (obs::Observer* o : m.observers()) {
    o->OnTrap(e);
  }
  const auto file = [&](obs::Disposition disposition) {
    for (obs::Observer* o : m.observers()) {
      o->OnTrapDisposition(e, disposition);
    }
  };
  const CompartmentRuntime& rt = boot.compartments[ctx.compartment()];
  if (!rt.def->error_handler || ctx.in_error_handler_) {
    m.Tick(cost::kUnwindNoHandler);
    file(obs::Disposition::kUnwindNoHandler);
    throw UnwindException{};
  }
  m.Tick(cost::kGlobalHandlerFault);
  ctx.in_error_handler_ = true;
  ErrorRecovery recovery;
  try {
    recovery = rt.def->error_handler(ctx, *info);
  } catch (...) {
    // A buggy handler faulting falls back to the default unwind policy.
    ctx.in_error_handler_ = false;
    m.Tick(cost::kUnwindNoHandler);
    file(obs::Disposition::kHandlerFaulted);
    throw UnwindException{true};
  }
  ctx.in_error_handler_ = false;
  if (recovery == ErrorRecovery::kForceUnwind) {
    file(obs::Disposition::kHandlerUnwind);
    throw UnwindException{true};
  }
  file(obs::Disposition::kHandlerInstalledContext);
  return recovery;
}

Status Switcher::EphemeralClaim(GuestThread& t, const Capability& obj) {
  if (!obj.tag() || obj.IsSealed()) {
    return Status::kInvalidArgument;
  }
  system_->machine().Tick(cost::kEphemeralClaim);
  TrustedStackView ts = TrustedStackFor(t);
  int slot = 0;
  if (t.hazard_slots[0] != 0 && t.hazard_slots[1] == 0) {
    slot = 1;
  }
  t.hazard_slots[slot] = obj.base();
  ts.SetHazardSlot(slot, obj.base());
  return Status::kOk;
}

bool Switcher::IsEphemerallyClaimed(Address payload_base) const {
  for (const auto& t : system_->threads()) {
    if (t.state == GuestThread::State::kExited) {
      continue;
    }
    if (t.hazard_slots[0] == payload_base || t.hazard_slots[1] == payload_base) {
      return true;
    }
  }
  return false;
}

int Switcher::UnwindThreadsIn(int compartment, int skip_thread_id) {
  int flagged = 0;
  for (auto& t : system_->threads()) {
    if (t.id == skip_thread_id || t.state == GuestThread::State::kExited) {
      continue;
    }
    bool inside = (t.current_compartment == compartment);
    if (!inside && t.started) {
      TrustedStackView ts = TrustedStackFor(t);
      const uint16_t depth = ts.Depth();
      for (int i = 0; i < depth && !inside; ++i) {
        inside = (ts.Peek(i).callee_compartment == compartment);
      }
    }
    if (!inside) {
      continue;
    }
    t.forced_unwind.insert(compartment);
    ++flagged;
    if (t.state == GuestThread::State::kBlocked ||
        t.state == GuestThread::State::kSleeping) {
      // "Waking up and faulting all other threads in the compartment"
      // (§3.2.6 step 2): the woken thread observes the forced unwind at its
      // next switcher boundary.
      t.timed_out = true;
      system_->sched().MakeReady(t.id);
    }
  }
  return flagged;
}

}  // namespace cheriot
