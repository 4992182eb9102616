// cheriot-trace: a deterministic flight recorder and per-compartment cycle
// profiler for the simulated SoC (DESIGN.md §8).
//
// Typed events are emitted at the choke points the kernel already owns —
// switcher call/return, trap delivery, context switch, scheduler wake/sleep,
// allocator alloc/free/quota, revoker sweeps, NIC frame tx/rx — into a
// bounded per-board ring buffer stamped with *guest* cycles (never host
// time), so a trace is a pure function of the firmware: bit-identical across
// runs and host thread counts, exactly like the fleet itself.
//
// Determinism contract (pinned by tests/trace_test.cpp and the traced
// variants of tests/invariance_test.cpp): the recorder only OBSERVES the
// cycle model. It never ticks the clock, never touches simulated memory, and
// never consults host state, so enabling tracing cannot move a single guest
// cycle. The zero-cost-when-off rule is structural: the recorder is an
// obs::Observer and every choke point is an empty-list check on the machine's
// observers. The profiler rides the same events: it registers nothing on the
// clock and settles only where the running context changes (DESIGN.md §8.3).
#ifndef SRC_TRACE_TRACE_H_
#define SRC_TRACE_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/base/clock.h"
#include "src/base/types.h"
#include "src/obs/observer.h"
#include "src/obs/ring.h"
#include "src/snap/snapshot.h"

namespace cheriot::snap {
class Reader;
}  // namespace cheriot::snap

namespace cheriot::trace {

enum class EventType : uint8_t {
  kBootDone = 0,
  kCompartmentCall = 1,    // a=caller, b=callee, c=export index, d=depth
  kCompartmentReturn = 2,  // a=callee, b=caller, d=depth after pop
  kLibraryCall = 3,        // a=library, b=export index
  kTrap = 4,               // a=TrapCode, b=faulting compartment
  kContextSwitch = 5,      // a=from thread, b=to thread (-1 = idle)
  kThreadWake = 6,         // a=thread made ready
  kThreadBlock = 7,        // a=thread, d=futex address
  kThreadSleep = 8,        // a=thread, d=absolute wake deadline
  kHeapAlloc = 9,          // a=compartment, b=quota id, c=bytes, d=live bytes
  kHeapFree = 10,          // a=compartment, b=quota id, c=bytes, d=live bytes
  kQuotaExhausted = 11,    // a=compartment, b=quota id, c=bytes requested
  kSweepBegin = 12,        // d=completed-epoch counter at start
  kSweepEnd = 13,          // c=granules scanned, d=epoch after completion
  kNicTx = 14,             // c=frame bytes, a=flow origin, d=flow seq
  kNicRx = 15,             // c=frame bytes, a=flow origin, d=flow seq
  kFabricFrame = 16,       // a=src port, b=dst port (-1 = flood), c=bytes,
                           // d=flow key (origin<<32 | seq)
  kCrashRecord = 17,       // a=TrapCode, b=compartment, c=fault address,
                           // d=forensics record sequence number
  kIdleFastForward = 18,   // c=cycles skipped in one idle jump (the event's
                           // timestamp is the jump target); emitted only for
                           // spans the quantum timer would have chopped
  kFrameDrop = 19,         // a=flow origin, b=drop reason (0=nic_loss,
                           // 1=gateway_tcp), c=frame bytes, d=flow seq
};

// Number of event kinds. The exporters (src/trace/export.cc) switch over
// EventType with no `default:` under -Werror=switch, so a new kind added
// above without an exporter mapping is a build failure, not a silently
// unexported event. This count sizes the per-type aggregate array and the
// exporters' iteration bound; the static_assert pins it to the enum.
inline constexpr size_t kEventTypeCount =
    static_cast<size_t>(EventType::kFrameDrop) + 1;

// Sentinel for the flow-id operands on kNicTx/kNicRx/kFrameDrop events:
// matches flow::FlowId::kNone without making the trace layer depend on
// src/flow (the trace ring stores raw integers only).
inline constexpr int32_t kNoFlowOrigin = -32768;

const char* EventTypeName(EventType type);

// One recorded event. POD, fixed payload: the ring must never allocate or
// chase pointers on the emit path.
struct Event {
  Cycles at = 0;      // guest cycles (CycleClock::now at emit)
  uint64_t d = 0;
  int64_t c = 0;
  int32_t a = 0;
  int32_t b = 0;
  EventType type = EventType::kBootDone;
  int16_t thread = -1;  // guest thread id, -1 when none is current
};

struct TraceOptions {
  // Ring capacity in events; the ring grows on demand up to it, and the
  // oldest events are dropped (and counted) once it is full,
  // deterministically.
  size_t ring_capacity = 1 << 16;
};

class TraceRecorder : public obs::Observer {
 public:
  struct CompartmentProfile {
    Cycles self = 0;    // charged while top of the running thread's stack
    Cycles total = 0;   // charged while anywhere on the running stack
    uint64_t calls = 0; // cross-compartment entries
  };

  explicit TraceRecorder(TraceOptions options = {});

  // --- Snapshot identity (obs::Observer) ------------------------------------
  uint32_t snapshot_flag() const override { return snap::kHasTrace; }
  uint32_t snapshot_section() const override { return snap::kSecTrace; }
  void SerializeOptions(snap::Writer& w) const override;
  static TraceOptions ReadOptions(snap::Reader& r);
  // Serialize-only: the ring, the aggregates and the profiler state are a
  // pure function of the guest run, so a snapshot verify re-serializes the
  // replayed recorder and compares bytes instead of restoring.
  void SerializeState(snap::Writer& w) const override;

  // --- Choke-point events (obs::Observer) -----------------------------------
  // The profiler's context (boot done, the current thread and its
  // compartment_stack) changes only at boot done, a context switch and the
  // switcher's stack push (call) and pop (return), and every stack change is
  // reported before the clock ticks again (obs::Observer). Those four events
  // settle the profiler: the cycles since the last settlement all ran in the
  // context captured there, so they are charged to it, and then the live
  // context is captured.
  void OnAttach(Machine& machine) override;
  void OnBootDone(System& system,
                  std::shared_ptr<const obs::NameTable> names) override;
  void OnCompartmentCall(const GuestThread& t, int caller,
                         int export_index) override;
  void OnCompartmentReturn(const GuestThread& t, int callee) override;
  void OnLibraryCall(const GuestThread& t, int library,
                     int export_index) override;
  void OnTrap(const obs::TrapEvent& e) override;
  // Crash record marker, joined to the forensics recorder (src/health) that
  // filed it: d is that recorder's ring sequence number.
  void OnCrashRecord(const obs::TrapEvent& e, uint64_t seq) override;
  void OnContextSwitch(int from_thread, int to_thread) override;
  void OnThreadWake(int thread) override;
  void OnThreadBlock(int thread, Address futex_addr) override;
  void OnThreadSleep(int thread, Cycles wake_at) override;
  void OnHeapAlloc(const obs::HeapEvent& e) override;
  void OnHeapFree(const obs::HeapEvent& e) override;
  void OnQuotaDenied(const obs::HeapEvent& e) override;
  void OnSweepBegin(uint32_t epoch) override;
  void OnSweepEnd(uint32_t epoch, uint64_t granules) override;
  // NIC events carry the frame's host-side flow id (PR 9) in spare operands
  // so Perfetto exports can bind tx->rx arrows; the id never exists in
  // guest memory.
  void OnNicTx(size_t bytes, const flow::FlowId& flow) override;
  void OnNicRx(size_t bytes, const flow::FlowId& flow) override;
  // Frame dropped by fault injection before reaching its destination:
  // reason 0 = arbiter kNicLoss at a board NIC, 1 = drop_every_nth_tcp at
  // the gateway.
  void OnFrameDrop(uint8_t reason, size_t bytes,
                   const flow::FlowId& flow) override;
  // Idle fast-forward span (kernel jumped the clock `span` cycles to the
  // next event with no runnable thread). The span is charged to the idle
  // context like any other idle cycles; the event only makes the jump
  // visible in exported traces.
  void OnIdleFastForward(Cycles span) override;

  // --- Clockless events (the fleet's fabric recorder) -----------------------
  // Fabric events carry an explicit timestamp: the fabric has no clock of
  // its own and switches frames at epoch barriers using their TX stamps.
  void OnFabricFrame(Cycles at, int src_port, int dst_port, size_t bytes,
                     int32_t flow_origin = kNoFlowOrigin,
                     uint32_t flow_seq = 0);
  void OnFrameDropAt(Cycles at, uint8_t reason, size_t bytes,
                     int32_t flow_origin, uint32_t flow_seq);

  // --- Read side (exporters, tests) ----------------------------------------
  // Events in emit order (oldest first, post-drop).
  std::vector<Event> Events() const { return ring_.ToVector(); }
  size_t event_count() const { return ring_.size(); }
  uint64_t dropped() const { return ring_.dropped(); }
  uint64_t emitted() const { return emitted_; }

  // Collapsed call stacks ("thread;compA;compB <cycles>" keys as id vectors:
  // [thread, comp, comp...], or [<boot>] and [<idle>]) for flamegraph
  // rendering. The cycles since the last settlement are included, charged
  // to the context they are running in.
  std::map<std::vector<int>, Cycles> CollapsedStacks() const;

  // Per-compartment attribution, derived from CollapsedStacks() and the call
  // counts. The <boot> and <idle> pseudo-compartments have entries too, and
  // Σ self over every entry (attributed_cycles) equals the clock's current
  // cycle exactly (asserted by trace_test).
  std::map<int, CompartmentProfile> Profile() const;
  Cycles boot_cycles() const;
  Cycles idle_cycles() const;
  Cycles attributed_cycles() const;

  // --- Aggregates (deterministic, maintained on emit) -----------------------
  uint64_t heap_live_bytes() const { return heap_live_bytes_; }
  uint64_t heap_allocs() const { return heap_allocs_; }
  uint64_t heap_frees() const { return heap_frees_; }
  uint64_t sweeps_completed() const { return sweeps_completed_; }
  uint64_t granules_scanned() const { return granules_scanned_; }
  uint64_t nic_tx_frames() const { return nic_tx_frames_; }
  uint64_t nic_tx_bytes() const { return nic_tx_bytes_; }
  uint64_t nic_rx_frames() const { return nic_rx_frames_; }
  uint64_t nic_rx_bytes() const { return nic_rx_bytes_; }
  uint64_t frames_dropped() const { return frames_dropped_; }
  uint64_t events_of_type(EventType type) const {
    return by_type_[static_cast<size_t>(type)];
  }

  // --- Name resolution ------------------------------------------------------
  // Current guest time: the clock when attached, else the latest stamped
  // event (clockless recorders, e.g. the fleet fabric's).
  Cycles now() const { return clock_ ? clock_->now() : latest_at_; }
  std::string CompartmentName(int id) const;
  std::string LibraryName(int id) const;
  std::string ExportName(int compartment, int export_index) const;
  std::string ThreadName(int id) const;
  size_t thread_count() const { return names_->threads.size(); }

  const TraceOptions& options() const { return options_; }

 private:
  void Emit(EventType type, int16_t thread, int32_t a, int32_t b, int64_t c,
            uint64_t d);
  void EmitAt(Cycles at, EventType type, int16_t thread, int32_t a, int32_t b,
              int64_t c, uint64_t d);
  // Raises the thread high-water mark: the number of per-thread stacks TRCE
  // carries (every thread the recorder has charged or seen call).
  void NoteThread(int thread);
  // The cycles since the last settlement (none without a clock).
  Cycles Unsettled() const;
  // Charges the unsettled cycles to context_, then captures the live context.
  void Settle();
  std::map<int, CompartmentProfile> ProfileOf(
      const std::map<std::vector<int>, Cycles>& stacks) const;

  TraceOptions options_;
  const CycleClock* clock_ = nullptr;

  obs::Ring<Event> ring_;
  uint64_t emitted_ = 0;
  uint64_t by_type_[kEventTypeCount] = {};
  Cycles latest_at_ = 0;

  // Profiler state. Call stacks are the kernel's native compartment_stack
  // (the trusted stack lives in simulated memory; reading it would tick the
  // clock).
  const std::vector<GuestThread>* threads_ = nullptr;
  size_t thread_hwm_ = 0;
  bool boot_done_ = false;
  int current_thread_ = -1;
  Cycles settled_at_ = 0;
  // The context captured at the last settlement, as its collapsed_ key:
  // [<boot>] or [<idle>], else [thread, frames...], where an empty stack is
  // the one frame kContextKernel.
  std::vector<int> context_{obs::kContextBoot};
  // The one cycle accumulator, per context; an entry appears once a nonzero
  // span is charged to it.
  std::map<std::vector<int>, Cycles> collapsed_;
  std::map<int, uint64_t> calls_;  // cross-compartment entries per callee

  // Aggregates.
  uint64_t heap_live_bytes_ = 0;
  uint64_t heap_allocs_ = 0;
  uint64_t heap_frees_ = 0;
  uint64_t sweeps_completed_ = 0;
  uint64_t granules_scanned_ = 0;
  uint64_t nic_tx_frames_ = 0;
  uint64_t nic_tx_bytes_ = 0;
  uint64_t nic_rx_frames_ = 0;
  uint64_t nic_rx_bytes_ = 0;
  uint64_t frames_dropped_ = 0;

  std::shared_ptr<const obs::NameTable> names_ =
      std::make_shared<obs::NameTable>();
};

}  // namespace cheriot::trace

#endif  // SRC_TRACE_TRACE_H_
