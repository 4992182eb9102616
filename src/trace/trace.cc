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
namespace {

// The cycles charged to a one-frame context, <boot> or <idle>.
Cycles ContextCycles(const std::map<std::vector<int>, Cycles>& stacks,
                     int context) {
  const auto it = stacks.find({context});
  return it == stacks.end() ? 0 : it->second;
}

}  // namespace

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

// The byte after the ring capacity was the profiler's on/off switch. The
// profiler is always on, so snapshots keep writing 1 and a 0 is refused.
void TraceRecorder::SerializeOptions(snap::Writer& w) const {
  w.U64(options_.ring_capacity);
  w.Bool(true);
}

TraceOptions TraceRecorder::ReadOptions(snap::Reader& r) {
  TraceOptions o;
  o.ring_capacity = r.U64();
  if (!r.Bool()) {
    throw snap::SnapshotError("trace options: the profiler cannot be off");
  }
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

Cycles TraceRecorder::Unsettled() const {
  return clock_ != nullptr && clock_->now() > settled_at_
             ? clock_->now() - settled_at_
             : 0;
}

void TraceRecorder::Settle() {
  if (const Cycles span = Unsettled()) {
    collapsed_[context_] += span;
    settled_at_ += span;
    if (context_.size() > 1) {
      NoteThread(context_[0]);
    }
  }
  context_.clear();
  if (!boot_done_ || current_thread_ < 0) {
    context_.push_back(boot_done_ ? obs::kContextIdle : obs::kContextBoot);
    return;
  }
  const std::vector<int>& stack =
      (*threads_)[static_cast<size_t>(current_thread_)].compartment_stack;
  context_.push_back(current_thread_);
  if (stack.empty()) {
    context_.push_back(obs::kContextKernel);
  } else {
    context_.insert(context_.end(), stack.begin(), stack.end());
  }
}

void TraceRecorder::OnAttach(Machine& machine) { clock_ = &machine.clock(); }

void TraceRecorder::OnBootDone(System& system,
                               std::shared_ptr<const obs::NameTable> names) {
  threads_ = &system.threads();
  names_ = std::move(names);
  // Close the boot attribution bucket: everything from here on is charged
  // to idle or a thread.
  boot_done_ = true;
  Settle();
  Emit(EventType::kBootDone, -1, 0, 0, 0, 0);
}

void TraceRecorder::OnCompartmentCall(const GuestThread& t, int caller,
                                      int export_index) {
  Settle();
  NoteThread(t.id);
  const int callee = t.current_compartment;
  Emit(EventType::kCompartmentCall, static_cast<int16_t>(t.id), caller,
       callee, export_index, t.compartment_stack.size());
  ++calls_[callee];
}

void TraceRecorder::OnCompartmentReturn(const GuestThread& t, int callee) {
  Settle();
  NoteThread(t.id);
  Emit(EventType::kCompartmentReturn, static_cast<int16_t>(t.id), callee,
       t.current_compartment, 0, t.compartment_stack.size());
}

void TraceRecorder::OnLibraryCall(const GuestThread& t, int library,
                                  int export_index) {
  Emit(EventType::kLibraryCall, static_cast<int16_t>(t.id), library,
       export_index, 0, 0);
}

void TraceRecorder::OnTrap(const obs::TrapEvent& e) {
  Emit(EventType::kTrap, static_cast<int16_t>(e.thread.id),
       static_cast<int>(e.cause), e.compartment, 0, 0);
}

void TraceRecorder::OnContextSwitch(int from_thread, int to_thread) {
  Emit(EventType::kContextSwitch, static_cast<int16_t>(from_thread),
       from_thread, to_thread, 0, 0);
  current_thread_ = to_thread;
  Settle();
}

void TraceRecorder::OnThreadWake(int thread) {
  Emit(EventType::kThreadWake, static_cast<int16_t>(thread), thread, 0, 0, 0);
}

void TraceRecorder::OnThreadBlock(int thread, Address futex_addr) {
  Emit(EventType::kThreadBlock, static_cast<int16_t>(thread), thread, 0, 0,
       futex_addr);
}

void TraceRecorder::OnThreadSleep(int thread, Cycles wake_at) {
  Emit(EventType::kThreadSleep, static_cast<int16_t>(thread), thread, 0, 0,
       wake_at);
}

void TraceRecorder::OnHeapAlloc(const obs::HeapEvent& e) {
  heap_live_bytes_ += e.bytes;
  ++heap_allocs_;
  Emit(EventType::kHeapAlloc, static_cast<int16_t>(e.thread), e.compartment,
       static_cast<int32_t>(e.quota), e.bytes, heap_live_bytes_);
}

void TraceRecorder::OnHeapFree(const obs::HeapEvent& e) {
  heap_live_bytes_ -= std::min<uint64_t>(heap_live_bytes_, e.bytes);
  ++heap_frees_;
  Emit(EventType::kHeapFree, static_cast<int16_t>(e.thread), e.compartment,
       static_cast<int32_t>(e.quota), e.bytes, heap_live_bytes_);
}

void TraceRecorder::OnQuotaDenied(const obs::HeapEvent& e) {
  Emit(EventType::kQuotaExhausted, static_cast<int16_t>(e.thread),
       e.compartment, static_cast<int32_t>(e.quota), e.bytes, 0);
}

void TraceRecorder::OnSweepBegin(uint32_t epoch) {
  Emit(EventType::kSweepBegin, -1, 0, 0, 0, epoch);
}

void TraceRecorder::OnSweepEnd(uint32_t epoch, uint64_t granules) {
  ++sweeps_completed_;
  granules_scanned_ += granules;
  Emit(EventType::kSweepEnd, -1, 0, 0, static_cast<int64_t>(granules), epoch);
}

void TraceRecorder::OnNicTx(size_t bytes, const flow::FlowId& flow) {
  ++nic_tx_frames_;
  nic_tx_bytes_ += bytes;
  Emit(EventType::kNicTx, static_cast<int16_t>(current_thread_), flow.origin,
       0, static_cast<int64_t>(bytes), flow.seq);
}

void TraceRecorder::OnNicRx(size_t bytes, const flow::FlowId& flow) {
  ++nic_rx_frames_;
  nic_rx_bytes_ += bytes;
  Emit(EventType::kNicRx, static_cast<int16_t>(current_thread_), flow.origin,
       0, static_cast<int64_t>(bytes), flow.seq);
}

void TraceRecorder::OnFabricFrame(Cycles at, int src_port, int dst_port,
                                  size_t bytes, int32_t flow_origin,
                                  uint32_t flow_seq) {
  // d packs the full flow key (flow::FlowId::key() layout: origin as u16 in
  // the high lane) so one operand survives the 40-byte event.
  const uint64_t key =
      (static_cast<uint64_t>(static_cast<uint16_t>(flow_origin)) << 32) |
      flow_seq;
  EmitAt(at, EventType::kFabricFrame, -1, src_port, dst_port,
         static_cast<int64_t>(bytes), key);
}

void TraceRecorder::OnFrameDrop(uint8_t reason, size_t bytes,
                                const flow::FlowId& flow) {
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
  Emit(EventType::kCrashRecord, static_cast<int16_t>(e.thread.id),
       static_cast<int>(e.cause), e.compartment,
       static_cast<int64_t>(e.fault_address), seq);
}

void TraceRecorder::OnIdleFastForward(Cycles span) {
  Emit(EventType::kIdleFastForward, /*thread=*/-1, 0, 0,
       static_cast<int64_t>(span), 0);
}

std::map<std::vector<int>, Cycles> TraceRecorder::CollapsedStacks() const {
  std::map<std::vector<int>, Cycles> stacks = collapsed_;
  if (const Cycles span = Unsettled()) {
    stacks[context_] += span;
  }
  return stacks;
}

std::map<int, TraceRecorder::CompartmentProfile> TraceRecorder::ProfileOf(
    const std::map<std::vector<int>, Cycles>& stacks) const {
  std::map<int, CompartmentProfile> profile;
  for (const auto& [callee, calls] : calls_) {
    profile[callee].calls = calls;
  }
  for (const auto& [key, cycles] : stacks) {
    // The frames a span ran in follow the thread id in a thread's key; <boot>
    // and <idle> are one frame. Self goes to the innermost, and `total`
    // counts each distinct frame once per running stack even under
    // recursion, so Σ total can exceed wall cycles but never double-counts
    // one frame chain.
    const auto frames = key.begin() + (key.size() > 1 ? 1 : 0);
    profile[key.back()].self += cycles;
    for (auto frame = frames; frame != key.end(); ++frame) {
      if (std::find(frames, frame, *frame) == frame) {
        profile[*frame].total += cycles;
      }
    }
  }
  return profile;
}

std::map<int, TraceRecorder::CompartmentProfile> TraceRecorder::Profile()
    const {
  return ProfileOf(CollapsedStacks());
}

Cycles TraceRecorder::boot_cycles() const {
  return ContextCycles(CollapsedStacks(), obs::kContextBoot);
}

Cycles TraceRecorder::idle_cycles() const {
  return ContextCycles(CollapsedStacks(), obs::kContextIdle);
}

Cycles TraceRecorder::attributed_cycles() const {
  Cycles sum = 0;
  for (const auto& [id, p] : Profile()) {
    sum += p.self;
  }
  return sum;
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
  // Profiler state as Settle() would leave it now: the unsettled cycles are
  // charged to the context they are running in.
  const Cycles unsettled = Unsettled();
  const std::map<std::vector<int>, Cycles> collapsed = CollapsedStacks();
  const std::map<int, CompartmentProfile> profile = ProfileOf(collapsed);
  size_t thread_hwm = thread_hwm_;
  if (unsettled > 0 && context_.size() > 1) {
    thread_hwm = std::max(thread_hwm, static_cast<size_t>(context_[0]) + 1);
  }
  w.Bool(boot_done_);
  w.I32(current_thread_);
  w.U64(settled_at_ + unsettled);
  w.U64(ContextCycles(collapsed, obs::kContextBoot));
  w.U64(ContextCycles(collapsed, obs::kContextIdle));
  obs::SerializeThreadStacks(w, threads_, thread_hwm);
  w.U32(static_cast<uint32_t>(profile.size()));
  for (const auto& [id, p] : profile) {
    w.I32(id);
    w.U64(p.self);
    w.U64(p.total);
    w.U64(p.calls);
  }
  w.U32(static_cast<uint32_t>(collapsed.size()));
  for (const auto& [key, cycles] : collapsed) {
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

}  // namespace cheriot::trace
