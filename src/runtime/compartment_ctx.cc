#include "src/runtime/compartment_ctx.h"

#include <algorithm>
#include <cstdio>

#include "src/base/costs.h"
#include "src/base/log.h"
#include "src/kernel/system.h"
#include "src/switcher/switcher.h"

namespace cheriot {

CompartmentCtx::CompartmentCtx(System* system, GuestThread* thread,
                               int compartment)
    : system_(system), thread_(thread), compartment_(compartment) {}

const std::string& CompartmentCtx::compartment_name() const {
  return system_->boot().compartments[compartment_].name;
}

Machine& CompartmentCtx::machine() { return system_->machine(); }

void* CompartmentCtx::StateRaw() {
  return system_->boot().compartments[compartment_].state.get();
}

// Trap dispatch for a single guest operation (§3.2.6): the nearest scoped
// handler wins; otherwise the global handler runs and may install a
// corrected context (by convention the replacement authority in a0), in
// which case the operation is retried exactly once.
template <typename Fn>
auto CompartmentCtx::Checked(const Capability& authority, Fn&& op)
    -> decltype(op(authority)) {
  try {
    return op(authority);
  } catch (TrapException& trap) {
    if (scope_depth_ > 0) {
      throw;  // the enclosing Try() scope handles it
    }
    TrapInfo info;
    info.cause = trap.code();
    info.fault_address = trap.fault_address();
    info.regs.pcc = system_->boot().compartments[compartment_].pcc;
    info.regs.cgp = system_->boot().compartments[compartment_].cgp;
    info.regs.csp = thread_->stack_cap.WithAddress(thread_->sp);
    info.regs.a[0] = authority;
    const ErrorRecovery r =
        system_->switcher().DeliverTrap(*thread_, *this, &info);
    (void)r;  // kInstallContext is the only non-throwing outcome
    try {
      return op(info.regs.a[0]);
    } catch (TrapException&) {
      machine().Tick(cost::kUnwindNoHandler);
      throw UnwindException{true};
    }
  }
}

Word CompartmentCtx::LoadWord(const Capability& cap, int64_t offset) {
  return Checked(cap, [&](const Capability& c) {
    return machine().memory().LoadWord(c, c.cursor() + static_cast<Address>(offset));
  });
}

void CompartmentCtx::StoreWord(const Capability& cap, int64_t offset,
                               Word value) {
  Checked(cap, [&](const Capability& c) {
    machine().memory().StoreWord(c, c.cursor() + static_cast<Address>(offset), value);
    return 0;
  });
}

uint8_t CompartmentCtx::LoadByte(const Capability& cap, int64_t offset) {
  return Checked(cap, [&](const Capability& c) {
    return machine().memory().LoadByte(c, c.cursor() + static_cast<Address>(offset));
  });
}

void CompartmentCtx::StoreByte(const Capability& cap, int64_t offset,
                               uint8_t value) {
  Checked(cap, [&](const Capability& c) {
    machine().memory().StoreByte(c, c.cursor() + static_cast<Address>(offset), value);
    return 0;
  });
}

Capability CompartmentCtx::LoadCap(const Capability& cap, int64_t offset) {
  return Checked(cap, [&](const Capability& c) {
    return machine().memory().LoadCap(c, c.cursor() + static_cast<Address>(offset));
  });
}

void CompartmentCtx::StoreCap(const Capability& cap, int64_t offset,
                              const Capability& value) {
  Checked(cap, [&](const Capability& c) {
    machine().memory().StoreCap(c, c.cursor() + static_cast<Address>(offset), value);
    return 0;
  });
}

void CompartmentCtx::ReadBytes(const Capability& cap, int64_t offset, void* out,
                               Address len) {
  Checked(cap, [&](const Capability& c) {
    machine().memory().ReadBytes(c, c.cursor() + static_cast<Address>(offset), out, len);
    return 0;
  });
}

void CompartmentCtx::WriteBytes(const Capability& cap, int64_t offset,
                                const void* in, Address len) {
  Checked(cap, [&](const Capability& c) {
    machine().memory().WriteBytes(c, c.cursor() + static_cast<Address>(offset), in, len);
    return 0;
  });
}

std::vector<uint8_t> CompartmentCtx::ReadVector(const Capability& cap,
                                                int64_t offset, Address len) {
  std::vector<uint8_t> out(len);
  ReadBytes(cap, offset, out.data(), len);
  return out;
}

void CompartmentCtx::Zero(const Capability& cap, int64_t offset, Address len) {
  Checked(cap, [&](const Capability& c) {
    machine().memory().ZeroRange(c, c.cursor() + static_cast<Address>(offset), len);
    return 0;
  });
}

void CompartmentCtx::Burn(Cycles cycles) { machine().Tick(cycles); }

Capability CompartmentCtx::globals() const {
  return system_->boot().compartments[compartment_].cgp;
}

CompartmentCtx::StackBuffer::StackBuffer(CompartmentCtx* ctx, Address bytes)
    : ctx_(ctx), bytes_(AlignUp(bytes, kGranuleBytes)) {
  GuestThread& t = ctx->thread();
  if (t.sp < t.stack_base + bytes_) {
    throw TrapException(TrapCode::kStackOverflow, t.sp, "stack exhausted");
  }
  t.sp -= bytes_;
  t.high_water = std::min(t.high_water, t.sp);
  t.peak_stack_bytes =
      std::max<uint32_t>(t.peak_stack_bytes,
                         static_cast<uint32_t>(t.stack_base + t.stack_size - t.sp));
  cap_ = t.stack_cap.WithBounds(t.sp, bytes_);
}

CompartmentCtx::StackBuffer::~StackBuffer() {
  // Stack discipline: buffers are released LIFO with the frame.
  ctx_->thread().sp += bytes_;
}

Address CompartmentCtx::StackRemaining() const {
  return thread_->sp - thread_->stack_base;
}

Address CompartmentCtx::StackPeakUse() const {
  return thread_->stack_base + thread_->stack_size - thread_->high_water;
}

const ImportBinding* CompartmentCtx::FindImport(
    const std::string& qualified_name) const {
  const auto& rt = system_->boot().compartments[compartment_];
  for (const auto& b : rt.imports) {
    if (b.qualified_name == qualified_name) {
      return &b;
    }
  }
  return nullptr;
}

Capability CompartmentCtx::Mmio(const std::string& device) const {
  const ImportBinding* b = FindImport(device);
  if (b == nullptr || b->kind != ImportBinding::Kind::kMmio) {
    throw TrapException(TrapCode::kTagViolation, 0,
                        "MMIO device not imported: " + device);
  }
  return b->cap;
}

Capability CompartmentCtx::SealedImport(const std::string& name) const {
  const ImportBinding* b = FindImport(name);
  if (b == nullptr || b->kind != ImportBinding::Kind::kSealedObject) {
    throw TrapException(TrapCode::kTagViolation, 0,
                        "sealed object not imported: " + name);
  }
  return b->cap;
}

Capability CompartmentCtx::SealingKey(const std::string& type_name) const {
  const ImportBinding* b = FindImport(type_name);
  if (b == nullptr || b->kind != ImportBinding::Kind::kSealingKey) {
    throw TrapException(TrapCode::kTagViolation, 0,
                        "sealing type not owned: " + type_name);
  }
  return b->cap;
}

Capability CompartmentCtx::Call(const std::string& qualified_name,
                                const std::vector<Capability>& args) {
  const ImportBinding* b = FindImport(qualified_name);
  if (b == nullptr || b->kind != ImportBinding::Kind::kCompartmentCall) {
    // Cross-compartment control-flow integrity (§3.2.5): entry points that
    // were not imported at build time are simply unreachable.
    return Checked(Capability(), [&](const Capability&) -> Capability {
      throw TrapException(TrapCode::kIllegalInstruction, 0,
                          "call target not imported: " + qualified_name);
    });
  }
  try {
    return system_->switcher().CompartmentCall(*thread_, *b, args);
  } catch (TrapException& trap) {
    // Faults in the switcher's setup phase (bad sealed cap, stack check)
    // belong to the *caller*; route through normal trap dispatch.
    if (scope_depth_ > 0) {
      throw;
    }
    TrapInfo info;
    info.cause = trap.code();
    info.fault_address = trap.fault_address();
    (void)system_->switcher().DeliverTrap(*thread_, *this, &info);
    return StatusCap(Status::kCompartmentFail);
  }
}

Capability CompartmentCtx::LibCall(const std::string& qualified_name,
                                   const std::vector<Capability>& args) {
  const ImportBinding* b = FindImport(qualified_name);
  if (b == nullptr || b->kind != ImportBinding::Kind::kLibraryCall) {
    return Checked(Capability(), [&](const Capability&) -> Capability {
      throw TrapException(TrapCode::kIllegalInstruction, 0,
                          "library target not imported: " + qualified_name);
    });
  }
  return system_->switcher().LibraryCall(*thread_, *b, args);
}

Capability CompartmentCtx::CallSched(const char* name,
                                     const std::vector<Capability>& args) {
  // kSyncPreempt decision point: the caller's read-then-call window. Only
  // branches under `cheriot mc`; a no-op otherwise.
  system_->MaybeArbiterPreempt();
  return Call(std::string("sched.") + name, args);
}

Capability CompartmentCtx::CallAlloc(const char* name,
                                     const std::vector<Capability>& args) {
  system_->MaybeArbiterPreempt();
  return Call(std::string("alloc.") + name, args);
}

Capability CompartmentCtx::HeapAllocate(const Capability& alloc_cap, Word size,
                                        Word timeout_cycles) {
  return CallAlloc("heap_allocate",
                   {alloc_cap, WordCap(size), WordCap(timeout_cycles)});
}

Status CompartmentCtx::HeapFree(const Capability& alloc_cap,
                                const Capability& ptr) {
  return static_cast<Status>(
      static_cast<int32_t>(CallAlloc("heap_free", {alloc_cap, ptr}).word()));
}

Status CompartmentCtx::HeapClaim(const Capability& alloc_cap,
                                 const Capability& ptr) {
  return static_cast<Status>(
      static_cast<int32_t>(CallAlloc("heap_claim", {alloc_cap, ptr}).word()));
}

bool CompartmentCtx::HeapCanFree(const Capability& alloc_cap,
                                 const Capability& ptr) {
  return CallAlloc("heap_can_free", {alloc_cap, ptr}).word() != 0;
}

Word CompartmentCtx::HeapQuotaRemaining(const Capability& alloc_cap) {
  return CallAlloc("quota_remaining", {alloc_cap}).word();
}

Word CompartmentCtx::HeapFreeAll(const Capability& alloc_cap) {
  return CallAlloc("heap_free_all", {alloc_cap}).word();
}

Status CompartmentCtx::EphemeralClaim(const Capability& obj) {
  return system_->switcher().EphemeralClaim(*thread_, obj);
}

Capability CompartmentCtx::TokenKeyNew() { return CallAlloc("token_key_new", {}); }

Capability CompartmentCtx::TokenObjNew(const Capability& alloc_cap,
                                       const Capability& key, Word size) {
  return CallAlloc("token_obj_new", {alloc_cap, key, WordCap(size)});
}

Capability CompartmentCtx::TokenUnseal(const Capability& key,
                                       const Capability& sealed_obj) {
  return LibCall("token.token_unseal", {key, sealed_obj});
}

Status CompartmentCtx::TokenObjDestroy(const Capability& alloc_cap,
                                       const Capability& key,
                                       const Capability& sealed_obj) {
  return static_cast<Status>(static_cast<int32_t>(
      CallAlloc("token_obj_destroy", {alloc_cap, key, sealed_obj}).word()));
}

Status CompartmentCtx::FutexWait(const Capability& word_cap, Word expected,
                                 Word timeout_cycles) {
  return static_cast<Status>(static_cast<int32_t>(
      CallSched("futex_timed_wait",
                {word_cap, WordCap(expected), WordCap(timeout_cycles)})
          .word()));
}

int CompartmentCtx::FutexWake(const Capability& word_cap, int count) {
  return static_cast<int32_t>(
      CallSched("futex_wake", {word_cap, WordCap(static_cast<Word>(count))})
          .word());
}

void CompartmentCtx::Yield() { CallSched("yield", {}); }

void CompartmentCtx::SleepCycles(Cycles cycles) {
  CallSched("sleep", {WordCap(static_cast<Word>(cycles))});
}

Cycles CompartmentCtx::Now() const { return system_->Now(); }

int CompartmentCtx::ThreadId() const { return thread_->id; }

Capability CompartmentCtx::InterruptFutex(IrqLine line) {
  return CallSched("interrupt_futex_get",
                   {WordCap(static_cast<Word>(line))});
}

int CompartmentCtx::MultiwaiterCreate(int max_events) {
  return static_cast<int32_t>(
      CallSched("multiwaiter_create", {WordCap(static_cast<Word>(max_events))})
          .word());
}

Status CompartmentCtx::MultiwaiterWait(int mw_id, const Capability& events,
                                       int count, Word timeout_cycles) {
  return static_cast<Status>(static_cast<int32_t>(
      CallSched("multiwaiter_wait",
                {WordCap(static_cast<Word>(mw_id)), events,
                 WordCap(static_cast<Word>(count)), WordCap(timeout_cycles)})
          .word()));
}

Status CompartmentCtx::MultiwaiterDestroy(int mw_id) {
  return static_cast<Status>(static_cast<int32_t>(
      CallSched("multiwaiter_destroy", {WordCap(static_cast<Word>(mw_id))})
          .word()));
}

std::optional<TrapInfo> CompartmentCtx::Try(const std::function<void()>& body) {
  machine().Tick(cost::kScopedHandlerEnter);
  ++scope_depth_;
  struct DepthGuard {
    int* depth;
    ~DepthGuard() { --*depth; }
  } guard{&scope_depth_};
  try {
    body();
    return std::nullopt;
  } catch (TrapException& trap) {
    machine().Tick(cost::kScopedHandlerFault - cost::kScopedHandlerEnter);
    TrapInfo info;
    info.cause = trap.code();
    info.fault_address = trap.fault_address();
    return info;
  }
}

void CompartmentCtx::MicroRebootSelf() {
  system_->MicroRebootCompartment(compartment_);
}

void CompartmentCtx::DebugLog(const char* fmt, ...) {
  char buf[400];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  LOG_INFO("[%s/t%d] %s", compartment_name().c_str(), thread_->id, buf);
}

}  // namespace cheriot
