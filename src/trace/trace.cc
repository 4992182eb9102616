#include "src/trace/trace.h"

#include <algorithm>

#include "src/flow/flow.h"
#include "src/hw/machine.h"
#include "src/kernel/system.h"
#include "src/snap/wire.h"

// Exhaustiveness guard (satellite of the health PR): every switch over
// EventType in this translation unit must cover every enumerator — adding an
// event kind without a name mapping is a compile error, not an "unknown".
#pragma GCC diagnostic error "-Wswitch"

namespace cheriot::trace {

const char* EventTypeName(EventType type) {
  switch (type) {
    case EventType::kBootDone: return "boot_done";
    case EventType::kCompartmentCall: return "compartment_call";
    case EventType::kCompartmentReturn: return "compartment_return";
    case EventType::kLibraryCall: return "library_call";
    case EventType::kTrap: return "trap";
    case EventType::kContextSwitch: return "context_switch";
    case EventType::kThreadWake: return "thread_wake";
    case EventType::kThreadBlock: return "thread_block";
    case EventType::kThreadSleep: return "thread_sleep";
    case EventType::kHeapAlloc: return "heap_alloc";
    case EventType::kHeapFree: return "heap_free";
    case EventType::kQuotaExhausted: return "quota_exhausted";
    case EventType::kSweepBegin: return "sweep_begin";
    case EventType::kSweepEnd: return "sweep_end";
    case EventType::kNicTx: return "nic_tx";
    case EventType::kNicRx: return "nic_rx";
    case EventType::kFabricFrame: return "fabric_frame";
    case EventType::kCrashRecord: return "crash_record";
    case EventType::kIdleFastForward: return "idle_fast_forward";
    case EventType::kFrameDrop: return "frame_drop";
  }
  return "unknown";
}

TraceRecorder::TraceRecorder(TraceOptions options)
    : options_(options), ring_(options.ring_capacity) {}

void TraceRecorder::SerializeOptions(snap::Writer& w) const {
  w.U64(options_.ring_capacity);
  w.Bool(options_.profile);
}

TraceOptions TraceRecorder::ReadOptions(snap::Reader& r) {
  TraceOptions o;
  o.ring_capacity = r.U64();
  o.profile = r.Bool();
  return o;
}

void TraceRecorder::EmitAt(Cycles at, EventType type, int16_t thread,
                           int32_t a, int32_t b, int64_t c, uint64_t d) {
  ++emitted_;
  ++by_type_[static_cast<size_t>(type)];
  latest_at_ = std::max(latest_at_, at);
  if (Event* e = ring_.Push()) {
    e->at = at;
    e->d = d;
    e->c = c;
    e->a = a;
    e->b = b;
    e->type = type;
    e->thread = thread;
  }
}

void TraceRecorder::Emit(EventType type, int16_t thread, int32_t a, int32_t b,
                         int64_t c, uint64_t d) {
  EmitAt(clock_ ? clock_->now() : latest_at_, type, thread, a, b, c, d);
}

void TraceRecorder::NoteThread(int thread) {
  thread_hwm_ = std::max(thread_hwm_, static_cast<size_t>(thread) + 1);
}

void TraceRecorder::ChargeToNow() {
  if (!options_.profile || clock_ == nullptr) {
    return;
  }
  const Cycles now = clock_->now();
  if (now <= settled_at_) {
    return;
  }
  const Cycles d = now - settled_at_;
  settled_at_ = now;
  const std::vector<int>* stack =
      boot_done_ && current_thread_ >= 0
          ? &(*threads_)[static_cast<size_t>(current_thread_)].compartment_stack
          : nullptr;
  if (!target_.valid || target_.boot_done != boot_done_ ||
      target_.thread != current_thread_ ||
      (stack != nullptr && *stack != target_.stack)) {
    Retarget(stack);
  }
  if (target_.context_cycles != nullptr) {
    *target_.context_cycles += d;
  }
  target_.self->self += d;
  for (CompartmentProfile* p : target_.totals) {
    p->total += d;
  }
  *target_.collapsed += d;
}

void TraceRecorder::Retarget(const std::vector<int>* stack) {
  ChargeTarget& t = target_;
  t.valid = true;
  t.boot_done = boot_done_;
  t.thread = current_thread_;
  t.context_cycles = nullptr;
  t.stack.clear();
  t.key.clear();
  if (!boot_done_ || current_thread_ < 0) {
    t.context_cycles = boot_done_ ? &idle_cycles_ : &boot_cycles_;
    t.key.push_back(boot_done_ ? obs::kContextIdle : obs::kContextBoot);
  } else {
    NoteThread(current_thread_);
    t.stack = *stack;
    t.key.push_back(current_thread_);
    if (stack->empty()) {
      t.key.push_back(obs::kContextKernel);
    } else {
      t.key.insert(t.key.end(), stack->begin(), stack->end());
    }
  }
  // The frames the span runs in follow the thread id in a thread's key:
  // self goes to the innermost, and `total` counts each distinct frame once
  // per running stack even under recursion, so Σ total can exceed wall
  // cycles but never double-counts one frame chain.
  const auto frames = t.key.begin() + (t.context_cycles != nullptr ? 0 : 1);
  t.self = &profile_[t.key.back()];
  t.totals.clear();
  for (auto frame = frames; frame != t.key.end(); ++frame) {
    if (std::find(frames, frame, *frame) == frame) {
      t.totals.push_back(&profile_[*frame]);
    }
  }
  t.collapsed = &collapsed_[t.key];
}

void TraceRecorder::OnAttach(Machine& machine) {
  clock_ = &machine.clock();
  if (options_.profile) {
    // The profiler rides the clock's std::function hook list; when no
    // recorder is attached the clock stays on its raw fast path. The hook
    // only reads now() — it never ticks — so the cycle model is untouched.
    machine.clock().AddHook([this](Cycles) { ChargeToNow(); });
  }
}

void TraceRecorder::OnBootDone(System& system,
                               std::shared_ptr<const obs::NameTable> names) {
  threads_ = &system.threads();
  names_ = std::move(names);
  // Close the boot attribution bucket: everything from here on is charged
  // to idle or a thread.
  ChargeToNow();
  boot_done_ = true;
  Emit(EventType::kBootDone, -1, 0, 0, 0, 0);
}

void TraceRecorder::OnCompartmentCall(const GuestThread& t, int caller,
                                      int export_index) {
  ChargeToNow();
  NoteThread(t.id);
  const int callee = t.current_compartment;
  Emit(EventType::kCompartmentCall, static_cast<int16_t>(t.id), caller,
       callee, export_index, t.compartment_stack.size());
  ++profile_[callee].calls;
}

void TraceRecorder::OnCompartmentReturn(const GuestThread& t, int callee) {
  ChargeToNow();
  NoteThread(t.id);
  Emit(EventType::kCompartmentReturn, static_cast<int16_t>(t.id), callee,
       t.current_compartment, 0, t.compartment_stack.size());
}

void TraceRecorder::OnLibraryCall(const GuestThread& t, int library,
                                  int export_index) {
  ChargeToNow();
  Emit(EventType::kLibraryCall, static_cast<int16_t>(t.id), library,
       export_index, 0, 0);
}

void TraceRecorder::OnTrap(const obs::TrapEvent& e) {
  ChargeToNow();
  Emit(EventType::kTrap, static_cast<int16_t>(e.thread.id),
       static_cast<int>(e.cause), e.compartment, 0, 0);
}

void TraceRecorder::OnContextSwitch(int from_thread, int to_thread) {
  ChargeToNow();
  Emit(EventType::kContextSwitch, static_cast<int16_t>(from_thread),
       from_thread, to_thread, 0, 0);
  current_thread_ = to_thread;
}

void TraceRecorder::OnThreadWake(int thread) {
  ChargeToNow();
  Emit(EventType::kThreadWake, static_cast<int16_t>(thread), thread, 0, 0, 0);
}

void TraceRecorder::OnThreadBlock(int thread, Address futex_addr) {
  ChargeToNow();
  Emit(EventType::kThreadBlock, static_cast<int16_t>(thread), thread, 0, 0,
       futex_addr);
}

void TraceRecorder::OnThreadSleep(int thread, Cycles wake_at) {
  ChargeToNow();
  Emit(EventType::kThreadSleep, static_cast<int16_t>(thread), thread, 0, 0,
       wake_at);
}

void TraceRecorder::OnHeapAlloc(const obs::HeapEvent& e) {
  ChargeToNow();
  heap_live_bytes_ += e.bytes;
  ++heap_allocs_;
  Emit(EventType::kHeapAlloc, static_cast<int16_t>(e.thread), e.compartment,
       static_cast<int32_t>(e.quota), e.bytes, heap_live_bytes_);
}

void TraceRecorder::OnHeapFree(const obs::HeapEvent& e) {
  ChargeToNow();
  heap_live_bytes_ -= std::min<uint64_t>(heap_live_bytes_, e.bytes);
  ++heap_frees_;
  Emit(EventType::kHeapFree, static_cast<int16_t>(e.thread), e.compartment,
       static_cast<int32_t>(e.quota), e.bytes, heap_live_bytes_);
}

void TraceRecorder::OnQuotaDenied(const obs::HeapEvent& e) {
  ChargeToNow();
  Emit(EventType::kQuotaExhausted, static_cast<int16_t>(e.thread),
       e.compartment, static_cast<int32_t>(e.quota), e.bytes, 0);
}

void TraceRecorder::OnSweepBegin(uint32_t epoch) {
  ChargeToNow();
  Emit(EventType::kSweepBegin, -1, 0, 0, 0, epoch);
}

void TraceRecorder::OnSweepEnd(uint32_t epoch, uint64_t granules) {
  ChargeToNow();
  ++sweeps_completed_;
  granules_scanned_ += granules;
  Emit(EventType::kSweepEnd, -1, 0, 0, static_cast<int64_t>(granules), epoch);
}

void TraceRecorder::OnNicTx(size_t bytes, const flow::FlowId& flow) {
  ChargeToNow();
  ++nic_tx_frames_;
  nic_tx_bytes_ += bytes;
  Emit(EventType::kNicTx, static_cast<int16_t>(current_thread_), flow.origin,
       0, static_cast<int64_t>(bytes), flow.seq);
}

void TraceRecorder::OnNicRx(size_t bytes, const flow::FlowId& flow) {
  ChargeToNow();
  ++nic_rx_frames_;
  nic_rx_bytes_ += bytes;
  Emit(EventType::kNicRx, static_cast<int16_t>(current_thread_), flow.origin,
       0, static_cast<int64_t>(bytes), flow.seq);
}

void TraceRecorder::OnFabricFrame(Cycles at, int src_port, int dst_port,
                                  size_t bytes, int32_t flow_origin,
                                  uint32_t flow_seq) {
  // d packs the full flow key (flow::FlowId::key() layout: origin as u16 in
  // the high lane) so one operand survives the 32-byte event.
  const uint64_t key =
      (static_cast<uint64_t>(static_cast<uint16_t>(flow_origin)) << 32) |
      flow_seq;
  EmitAt(at, EventType::kFabricFrame, -1, src_port, dst_port,
         static_cast<int64_t>(bytes), key);
}

void TraceRecorder::OnFrameDrop(uint8_t reason, size_t bytes,
                                const flow::FlowId& flow) {
  ChargeToNow();
  ++frames_dropped_;
  Emit(EventType::kFrameDrop, static_cast<int16_t>(current_thread_),
       flow.origin, reason, static_cast<int64_t>(bytes), flow.seq);
}

void TraceRecorder::OnFrameDropAt(Cycles at, uint8_t reason, size_t bytes,
                                  int32_t flow_origin, uint32_t flow_seq) {
  ++frames_dropped_;
  EmitAt(at, EventType::kFrameDrop, -1, flow_origin, reason,
         static_cast<int64_t>(bytes), flow_seq);
}

void TraceRecorder::OnCrashRecord(const obs::TrapEvent& e, uint64_t seq) {
  ChargeToNow();
  Emit(EventType::kCrashRecord, static_cast<int16_t>(e.thread.id),
       static_cast<int>(e.cause), e.compartment,
       static_cast<int64_t>(e.fault_address), seq);
}

void TraceRecorder::OnIdleFastForward(Cycles span) {
  ChargeToNow();
  Emit(EventType::kIdleFastForward, /*thread=*/-1, 0, 0,
       static_cast<int64_t>(span), 0);
}

const std::map<int, TraceRecorder::CompartmentProfile>&
TraceRecorder::Profile() {
  ChargeToNow();
  return profile_;
}

Cycles TraceRecorder::boot_cycles() {
  ChargeToNow();
  return boot_cycles_;
}

Cycles TraceRecorder::idle_cycles() {
  ChargeToNow();
  return idle_cycles_;
}

Cycles TraceRecorder::attributed_cycles() {
  ChargeToNow();
  Cycles sum = 0;
  for (const auto& [id, p] : profile_) {
    sum += p.self;
  }
  return sum;
}

const std::map<std::vector<int>, Cycles>& TraceRecorder::CollapsedStacks() {
  ChargeToNow();
  return collapsed_;
}

std::string TraceRecorder::CompartmentName(int id) const {
  return names_->Compartment(id);
}

std::string TraceRecorder::LibraryName(int id) const {
  return names_->Library(id);
}

std::string TraceRecorder::ExportName(int compartment, int export_index) const {
  return names_->Export(compartment, export_index);
}

std::string TraceRecorder::ThreadName(int id) const {
  return id < 0 ? "<idle>" : names_->Thread(id);
}

void TraceRecorder::SerializeState(snap::Writer& w) const {
  w.U64(emitted_);
  w.U64(ring_.dropped());
  w.U64(latest_at_);
  for (uint64_t n : by_type_) {
    w.U64(n);
  }
  w.U32(static_cast<uint32_t>(ring_.size()));
  for (size_t i = 0; i < ring_.size(); ++i) {
    const Event& e = ring_[i];
    w.U64(e.at);
    w.U64(e.d);
    w.I64(e.c);
    w.I32(e.a);
    w.I32(e.b);
    w.U8(static_cast<uint8_t>(e.type));
    w.U16(static_cast<uint16_t>(e.thread));
  }
  // Profiler state, serialized raw (no settlement): both sides of a verify
  // comparison are serialized at the same point of the same deterministic
  // run, so their pending unsettled spans match too.
  w.Bool(boot_done_);
  w.I32(current_thread_);
  w.U64(settled_at_);
  w.U64(boot_cycles_);
  w.U64(idle_cycles_);
  obs::SerializeThreadStacks(w, threads_, thread_hwm_);
  w.U32(static_cast<uint32_t>(profile_.size()));
  for (const auto& [id, p] : profile_) {
    w.I32(id);
    w.U64(p.self);
    w.U64(p.total);
    w.U64(p.calls);
  }
  w.U32(static_cast<uint32_t>(collapsed_.size()));
  for (const auto& [key, cycles] : collapsed_) {
    w.U32(static_cast<uint32_t>(key.size()));
    for (int c : key) {
      w.I32(c);
    }
    w.U64(cycles);
  }
  // Aggregates.
  w.U64(heap_live_bytes_);
  w.U64(heap_allocs_);
  w.U64(heap_frees_);
  w.U64(sweeps_completed_);
  w.U64(granules_scanned_);
  w.U64(nic_tx_frames_);
  w.U64(nic_tx_bytes_);
  w.U64(nic_rx_frames_);
  w.U64(nic_rx_bytes_);
  w.U64(frames_dropped_);
}

void Attach(Machine& machine, TraceRecorder* recorder) {
  machine.Attach(recorder);
}

}  // namespace cheriot::trace
