#include "src/trace/trace.h"

#include <algorithm>

#include "src/hw/machine.h"
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

TraceRecorder::TraceRecorder(TraceOptions options) : options_(options) {}

void TraceRecorder::SetCompartmentNames(std::vector<std::string> names) {
  compartment_names_ = std::move(names);
}
void TraceRecorder::SetLibraryNames(std::vector<std::string> names) {
  library_names_ = std::move(names);
}
void TraceRecorder::SetExportNames(std::vector<std::vector<std::string>> names) {
  export_names_ = std::move(names);
}
void TraceRecorder::SetThreadNames(std::vector<std::string> names) {
  thread_names_ = std::move(names);
}

void TraceRecorder::EmitAt(Cycles at, EventType type, int16_t thread,
                           int32_t a, int32_t b, int64_t c, uint64_t d) {
  ++emitted_;
  ++by_type_[static_cast<size_t>(type)];
  latest_at_ = std::max(latest_at_, at);
  if (count_ == ring_.size()) {
    // The ring grows on demand up to its capacity, so memory follows the
    // events recorded, not the configured bound; once full, the oldest
    // event makes room.
    if (ring_.size() < options_.ring_capacity) {
      ring_.emplace_back();
    } else if (ring_.empty()) {
      ++dropped_;
      return;
    } else {
      start_ = (start_ + 1) % ring_.size();
      --count_;
      ++dropped_;
    }
  }
  Event& e = ring_[(start_ + count_) % ring_.size()];
  e.at = at;
  e.d = d;
  e.c = c;
  e.a = a;
  e.b = b;
  e.type = type;
  e.thread = thread;
  ++count_;
}

void TraceRecorder::Emit(EventType type, int16_t thread, int32_t a, int32_t b,
                         int64_t c, uint64_t d) {
  EmitAt(clock_ ? clock_->now() : latest_at_, type, thread, a, b, c, d);
}

std::vector<int>& TraceRecorder::StackFor(int thread) {
  if (static_cast<size_t>(thread) >= thread_stacks_.size()) {
    thread_stacks_.resize(static_cast<size_t>(thread) + 1);
  }
  return thread_stacks_[static_cast<size_t>(thread)];
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
  if (!boot_done_) {
    boot_cycles_ += d;
    auto& p = profile_[kContextBoot];
    p.self += d;
    p.total += d;
    collapsed_[{kContextBoot}] += d;
    return;
  }
  if (current_thread_ < 0) {
    idle_cycles_ += d;
    auto& p = profile_[kContextIdle];
    p.self += d;
    p.total += d;
    collapsed_[{kContextIdle}] += d;
    return;
  }
  const std::vector<int>& stack = StackFor(current_thread_);
  if (stack.empty()) {
    auto& p = profile_[kContextKernel];
    p.self += d;
    p.total += d;
    collapsed_[{current_thread_, kContextKernel}] += d;
    return;
  }
  profile_[stack.back()].self += d;
  // `total` counts a compartment once per running stack even under
  // recursion, so Σ total can exceed wall cycles but never double-counts one
  // frame chain.
  for (size_t i = 0; i < stack.size(); ++i) {
    bool seen = false;
    for (size_t j = 0; j < i; ++j) {
      if (stack[j] == stack[i]) {
        seen = true;
        break;
      }
    }
    if (!seen) {
      profile_[stack[i]].total += d;
    }
  }
  std::vector<int> key;
  key.reserve(stack.size() + 1);
  key.push_back(current_thread_);
  key.insert(key.end(), stack.begin(), stack.end());
  collapsed_[key] += d;
}

void TraceRecorder::OnBootDone() {
  ChargeToNow();
  boot_done_ = true;
  Emit(EventType::kBootDone, -1, 0, 0, 0, 0);
}

void TraceRecorder::OnCompartmentCall(int thread, int caller, int callee,
                                      int export_index) {
  ChargeToNow();
  std::vector<int>& stack = StackFor(thread);
  stack.push_back(callee);
  Emit(EventType::kCompartmentCall, static_cast<int16_t>(thread), caller,
       callee, export_index, stack.size());
  ++profile_[callee].calls;
}

void TraceRecorder::OnCompartmentReturn(int thread, int callee, int caller) {
  ChargeToNow();
  std::vector<int>& stack = StackFor(thread);
  if (!stack.empty()) {
    stack.pop_back();
  }
  Emit(EventType::kCompartmentReturn, static_cast<int16_t>(thread), callee,
       caller, 0, stack.size());
}

void TraceRecorder::OnLibraryCall(int thread, int library, int export_index) {
  ChargeToNow();
  Emit(EventType::kLibraryCall, static_cast<int16_t>(thread), library,
       export_index, 0, 0);
}

void TraceRecorder::OnTrap(int thread, int code, int compartment) {
  ChargeToNow();
  Emit(EventType::kTrap, static_cast<int16_t>(thread), code, compartment, 0,
       0);
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

void TraceRecorder::OnHeapAlloc(int thread, int compartment, uint32_t quota,
                                Word bytes) {
  ChargeToNow();
  heap_live_bytes_ += bytes;
  ++heap_allocs_;
  Emit(EventType::kHeapAlloc, static_cast<int16_t>(thread), compartment,
       static_cast<int32_t>(quota), bytes, heap_live_bytes_);
}

void TraceRecorder::OnHeapFree(int thread, int compartment, uint32_t quota,
                               Word bytes) {
  ChargeToNow();
  heap_live_bytes_ -= std::min<uint64_t>(heap_live_bytes_, bytes);
  ++heap_frees_;
  Emit(EventType::kHeapFree, static_cast<int16_t>(thread), compartment,
       static_cast<int32_t>(quota), bytes, heap_live_bytes_);
}

void TraceRecorder::OnQuotaExhausted(int thread, int compartment,
                                     uint32_t quota, Word bytes) {
  ChargeToNow();
  Emit(EventType::kQuotaExhausted, static_cast<int16_t>(thread), compartment,
       static_cast<int32_t>(quota), bytes, 0);
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

void TraceRecorder::OnNicTx(size_t bytes, int32_t flow_origin,
                            uint32_t flow_seq) {
  ChargeToNow();
  ++nic_tx_frames_;
  nic_tx_bytes_ += bytes;
  Emit(EventType::kNicTx, static_cast<int16_t>(current_thread_), flow_origin,
       0, static_cast<int64_t>(bytes), flow_seq);
}

void TraceRecorder::OnNicRx(size_t bytes, int32_t flow_origin,
                            uint32_t flow_seq) {
  ChargeToNow();
  ++nic_rx_frames_;
  nic_rx_bytes_ += bytes;
  Emit(EventType::kNicRx, static_cast<int16_t>(current_thread_), flow_origin,
       0, static_cast<int64_t>(bytes), flow_seq);
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
                                int32_t flow_origin, uint32_t flow_seq) {
  ChargeToNow();
  ++frames_dropped_;
  Emit(EventType::kFrameDrop, static_cast<int16_t>(current_thread_),
       flow_origin, reason, static_cast<int64_t>(bytes), flow_seq);
}

void TraceRecorder::OnFrameDropAt(Cycles at, uint8_t reason, size_t bytes,
                                  int32_t flow_origin, uint32_t flow_seq) {
  ++frames_dropped_;
  EmitAt(at, EventType::kFrameDrop, -1, flow_origin, reason,
         static_cast<int64_t>(bytes), flow_seq);
}

void TraceRecorder::OnCrashRecord(int thread, int cause, int compartment,
                                  Address fault_address, uint64_t seq) {
  ChargeToNow();
  Emit(EventType::kCrashRecord, static_cast<int16_t>(thread), cause,
       compartment, static_cast<int64_t>(fault_address), seq);
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

std::vector<Event> TraceRecorder::Events() const {
  std::vector<Event> out;
  out.reserve(count_);
  for (size_t i = 0; i < count_; ++i) {
    out.push_back(ring_[(start_ + i) % ring_.size()]);
  }
  return out;
}

std::string TraceRecorder::CompartmentName(int id) const {
  switch (id) {
    case kContextBoot: return "<boot>";
    case kContextIdle: return "<idle>";
    case kContextKernel: return "<kernel>";
    default: break;
  }
  if (id >= 0 && static_cast<size_t>(id) < compartment_names_.size()) {
    return compartment_names_[static_cast<size_t>(id)];
  }
  return "compartment" + std::to_string(id);
}

std::string TraceRecorder::LibraryName(int id) const {
  if (id >= 0 && static_cast<size_t>(id) < library_names_.size()) {
    return library_names_[static_cast<size_t>(id)];
  }
  return "library" + std::to_string(id);
}

std::string TraceRecorder::ExportName(int compartment, int export_index) const {
  if (compartment >= 0 &&
      static_cast<size_t>(compartment) < export_names_.size()) {
    const auto& exports = export_names_[static_cast<size_t>(compartment)];
    if (export_index >= 0 &&
        static_cast<size_t>(export_index) < exports.size()) {
      return exports[static_cast<size_t>(export_index)];
    }
  }
  return "export" + std::to_string(export_index);
}

std::string TraceRecorder::ThreadName(int id) const {
  if (id < 0) {
    return "<idle>";
  }
  if (static_cast<size_t>(id) < thread_names_.size()) {
    return thread_names_[static_cast<size_t>(id)];
  }
  return "thread" + std::to_string(id);
}

void TraceRecorder::SerializeState(snap::Writer& w) const {
  w.U64(emitted_);
  w.U64(dropped_);
  w.U64(latest_at_);
  for (uint64_t n : by_type_) {
    w.U64(n);
  }
  w.U32(static_cast<uint32_t>(count_));
  for (size_t i = 0; i < count_; ++i) {
    const Event& e = ring_[(start_ + i) % ring_.size()];
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
  w.U32(static_cast<uint32_t>(thread_stacks_.size()));
  for (const auto& stack : thread_stacks_) {
    w.U32(static_cast<uint32_t>(stack.size()));
    for (int c : stack) {
      w.I32(c);
    }
  }
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
  recorder->SetClock(&machine.clock());
  machine.set_trace(recorder);
  if (recorder->options().profile) {
    // The profiler rides the clock's std::function hook list; when no
    // recorder is attached the clock stays on its raw fast path. The hook
    // only reads now() — it never ticks — so the cycle model is untouched.
    machine.clock().AddHook([recorder](Cycles) { recorder->ChargeToNow(); });
  }
}

}  // namespace cheriot::trace
