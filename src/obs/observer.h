// One observer interface for the machine's choke points (DESIGN.md §8.0).
//
// The compartment model has a handful of choke points: the switcher's call,
// return and trap paths, the scheduler, the allocator and token service, the
// revoker, MMIO and the NIC (§3). Every board recorder — cheriot-trace,
// cheriot-health forensics, cheriot-cov and the fleet's flow staging —
// observes exactly those points through this interface. A Machine holds its
// attached observers in attach order; each choke point is one empty-list
// check plus a loop over them, so the layers that emit events never name a
// recorder, and adding an observer costs one class.
//
// Zero-guest-cycle rule: an observer only reads. It never ticks the clock,
// never touches simulated memory through a costed path (RawLoadWord only),
// and never consults host state, so attaching any set of observers cannot
// move a single guest cycle.
#ifndef SRC_OBS_OBSERVER_H_
#define SRC_OBS_OBSERVER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/base/types.h"
#include "src/mem/trap.h"

namespace cheriot {
class GuestThread;
class Machine;
class System;
struct RegisterFile;
}  // namespace cheriot

namespace cheriot::flow {
struct FlowId;
}  // namespace cheriot::flow

namespace cheriot::snap {
class Writer;
struct Container;
}  // namespace cheriot::snap

namespace cheriot::obs {

// Pseudo-compartment ids attributing work outside any compartment: cycles
// with no runnable thread, before the TCB exists, and in a thread outside
// any compartment (switcher / kernel entry and exit paths).
inline constexpr int kContextIdle = -1;
inline constexpr int kContextBoot = -2;
inline constexpr int kContextKernel = -3;

// Names from the loaded image, built once at boot and shared, immutable, by
// every observer. Shared rather than pointing into the System so a recorder
// can still export after its machine is gone.
struct NameTable {
  std::vector<std::string> compartments;
  std::vector<std::vector<std::string>> exports;  // per compartment
  std::vector<std::string> libraries;
  std::vector<std::vector<std::string>> library_exports;  // per library
  std::vector<std::string> threads;

  // Lookups fall back to "compartment<id>", "export<index>", ... for ids
  // outside the table; Compartment() names the pseudo-contexts "<idle>",
  // "<boot>" and "<kernel>".
  std::string Compartment(int id) const;
  std::string Export(int compartment, int index) const;
  std::string Library(int id) const;
  std::string LibraryExport(int library, int index) const;
  std::string Thread(int id) const;
};

// What the switcher did with a trap (§3.2.6 error-handling paths).
enum class Disposition : uint8_t {
  kUnwindNoHandler = 0,          // no (or re-entered) handler: frame unwound
  kHandlerUnwind = 1,            // global handler ran, chose kForceUnwind
  kHandlerInstalledContext = 2,  // global handler repaired the register file
  kHandlerFaulted = 3,           // the handler itself trapped; frame unwound
  kForcedUnwind = 4,             // switcher-initiated (micro-reboot step 2)
};

// A trap at the switcher's first-level handler, or a forced unwind (cause
// kForcedUnwind, no fault address, the evicted compartment's registers).
struct TrapEvent {
  const GuestThread& thread;
  int compartment;  // the faulting compartment
  TrapCode cause;
  Address fault_address;
  const RegisterFile& regs;
};

// A heap operation. Trace attributes it to the executing compartment, the
// quota-exhaustion detector to the compartment that asked the alloc service.
struct HeapEvent {
  int thread;        // current guest thread, -1 outside any
  int compartment;   // executing compartment, -1 from the kernel
  int attributed;    // the alloc service's caller, else `compartment`
  uint32_t quota;    // allocation capability (quota id)
  Word bytes;        // chunk bytes, header included (quota accounting unit)
};

class Observer {
 public:
  // The machine holds attached observers by address: no copies.
  Observer() = default;
  Observer(const Observer&) = delete;
  Observer& operator=(const Observer&) = delete;
  virtual ~Observer() = default;

  // Owner identity for exports: "board3" and 3 on a board, "fabric" and -1
  // for the fleet's clockless fabric recorder.
  void SetOwner(std::string label, int board_index) {
    label_ = std::move(label);
    board_index_ = board_index;
  }
  const std::string& label() const { return label_; }
  int board_index() const { return board_index_; }

  // Called once by Machine::Attach, before boot.
  virtual void OnAttach(Machine& machine) {}

  // --- Snapshot identity ----------------------------------------------------
  // A recorder with CHERSNAP state names its container flag bit and section
  // and serializes its options (OPTS / FLET) and state (its section). A
  // restore replays the run and byte-compares the regenerated state, so
  // nothing is deserialized. The defaults mark a host-only observer.
  virtual uint32_t snapshot_flag() const { return 0; }
  virtual uint32_t snapshot_section() const { return 0; }
  virtual void SerializeOptions(snap::Writer& w) const {}
  virtual void SerializeState(snap::Writer& w) const {}

  // --- Events ---------------------------------------------------------------
  // End of System::Boot, before any thread runs. Observers only read
  // `system`; GuestThread::compartment_stack is the call stack of record.
  virtual void OnBootDone(System& system,
                          std::shared_ptr<const NameTable> names) {}
  // Switcher call and return. The thread's compartment_stack and
  // current_compartment already show the callee on call and the caller on
  // return when the hook runs. Contract: every change to a thread's
  // compartment_stack is a switcher push or pop reported here before the
  // clock ticks again, so no cycle runs in a stack an observer has not been
  // told of (the trace profiler's cycle attribution relies on it).
  virtual void OnCompartmentCall(const GuestThread& t, int caller,
                                 int export_index) {}
  virtual void OnCompartmentReturn(const GuestThread& t, int callee) {}
  virtual void OnLibraryCall(const GuestThread& t, int library,
                             int export_index) {}
  // A trap reaches the first-level handler, before any handler runs; every
  // OnTrap is followed by exactly one OnTrapDisposition for the same event,
  // on the same thread (a thread's traps inside a handler nest; handlers on
  // different threads interleave). Forced unwinds report a disposition only.
  virtual void OnTrap(const TrapEvent& e) {}
  virtual void OnTrapDisposition(const TrapEvent& e, Disposition d) {}
  // The forensics recorder filed crash record `seq` for `e`; it emits this
  // through the machine's list so other streams can join its records.
  virtual void OnCrashRecord(const TrapEvent& e, uint64_t seq) {}
  // to_thread is -1 when the core goes idle.
  virtual void OnContextSwitch(int from_thread, int to_thread) {}
  virtual void OnThreadWake(int thread) {}
  virtual void OnThreadBlock(int thread, Address futex_addr) {}
  virtual void OnThreadSleep(int thread, Cycles wake_at) {}
  virtual void OnHeapAlloc(const HeapEvent& e) {}
  virtual void OnHeapFree(const HeapEvent& e) {}
  virtual void OnQuotaDenied(const HeapEvent& e) {}
  // Token seal (allocating a sealed object) or unseal by `compartment`.
  virtual void OnSealingUse(int compartment, uint32_t type_id, bool unseal) {}
  // Memory's device-window slow path; the SRAM fast path never reports.
  virtual void OnMmioAccess(Address addr, Address size, bool is_store) {}
  virtual void OnNicTx(size_t bytes, const flow::FlowId& flow) {}
  virtual void OnNicRx(size_t bytes, const flow::FlowId& flow) {}
  // A frame lost to fault injection (flow::kDropNicLoss, kDropGatewayTcp).
  virtual void OnFrameDrop(uint8_t reason, size_t bytes,
                           const flow::FlowId& flow) {}
  virtual void OnSweepBegin(uint32_t epoch) {}
  virtual void OnSweepEnd(uint32_t epoch, uint64_t granules) {}
  // The idle loop jumped `span` cycles in one piece (fast-forward only).
  virtual void OnIdleFastForward(Cycles span) {}
  virtual void OnMicroReboot(int compartment, Cycles at) {}

 private:
  std::string label_;
  int board_index_ = 0;
};

// A machine's attached observers, in attach order.
class ObserverList {
 public:
  // Fails a CHERIOT_CHECK if an observer of the same kind (dynamic type) is
  // already attached.
  void Add(Observer* observer);

  bool empty() const { return list_.empty(); }
  std::vector<Observer*>::const_iterator begin() const {
    return list_.begin();
  }
  std::vector<Observer*>::const_iterator end() const { return list_.end(); }

  // The snapshot path, one loop over the attached recorders in CHERSNAP
  // section order (trace, forensics, coverage): container flag bits, the
  // recorder options block (per kind a presence bool, then the recorder's
  // options) and one state section per recorder.
  uint32_t SnapshotFlags() const;
  void SerializeOptions(snap::Writer& w) const;
  void AppendSections(snap::Container& c) const;

 private:
  template <typename F>
  void ForEachRecorder(F&& f) const;

  std::vector<Observer*> list_;
};

// Writes the compartment stacks of threads [0, count) — count, then per
// thread its depth and compartments — the layout TRCE, HLTH and COVG share.
// `count` is the writing recorder's thread high-water mark.
void SerializeThreadStacks(snap::Writer& w,
                           const std::vector<GuestThread>* threads,
                           size_t count);

}  // namespace cheriot::obs

#endif  // SRC_OBS_OBSERVER_H_
