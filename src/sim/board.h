// One simulated device: a Machine, its firmware and the System hosting it,
// plus the board's network identity and the frame staging queues the Fleet
// uses to exchange traffic at epoch barriers. A Board is fully self-contained
// (no shared mutable state), so different boards may be stepped on different
// host threads concurrently; a single board is only ever stepped by one
// thread at a time.
#ifndef SRC_SIM_BOARD_H_
#define SRC_SIM_BOARD_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/base/check.h"
#include "src/cov/coverage.h"
#include "src/flow/flow.h"
#include "src/health/forensics.h"
#include "src/hw/machine.h"
#include "src/hw/shared_frame.h"
#include "src/kernel/system.h"
#include "src/obs/observer.h"
#include "src/snap/snapshot.h"
#include "src/snap/wire.h"
#include "src/trace/trace.h"

namespace cheriot::sim {

struct BoardOptions {
  int index = 0;
  // NIC MAC; defaults (via MacForIndex) to 02:00:00:00:xx:yy with the board
  // index + 2 in the low bytes, so board 0 matches the historical
  // single-board address 02:00:00:00:00:02.
  EthernetDevice::Mac mac = {2, 0, 0, 0, 0, 2};
  MachineConfig machine;
  SystemOptions system;
};

EthernetDevice::Mac MacForIndex(int index);

// Throws snap::SnapshotError unless `state` holds an SRAM section with
// `machine`'s geometry and all of its bytes. Restore checks this before it
// builds a board from a decoded geometry, so SRAM is never sized from a
// value the blob does not back.
void CheckSramSection(const snap::Container& state,
                      const MachineConfig& machine);

// The snapshot recorder options block (OPTS, FLET), decoded: one entry per
// recorder kind, set when that recorder was attached. Written by
// obs::ObserverList::SerializeOptions; ReadRecorderOptions is its one
// reader.
struct RecorderOptions {
  std::optional<trace::TraceOptions> trace;
  std::optional<health::ForensicsOptions> forensics;
  std::optional<cov::CovOptions> cov;
};
RecorderOptions ReadRecorderOptions(snap::Reader& r);

class Board {
 public:
  using Frame = std::vector<uint8_t>;

  // Everything a determinism test needs to compare two runs of "the same"
  // board: timing, memory traffic, trap/idle accounting and console output.
  struct Fingerprint {
    Cycles now = 0;
    uint64_t accesses = 0;
    uint64_t cap_loads = 0;
    uint64_t cap_stores = 0;
    uint64_t traps = 0;
    Cycles idle_cycles = 0;
    uint64_t uart_bytes = 0;
    uint64_t uart_hash = 0;
    uint32_t reboots = 0;
    bool operator==(const Fingerprint&) const = default;
  };

  Board(FirmwareImage image, const BoardOptions& options);

  Board(const Board&) = delete;
  Board& operator=(const Board&) = delete;

  // Creates and attaches a recorder for this board, labeled "board<index>":
  // a flight recorder (src/trace), a crash-forensics recorder (src/health)
  // or an authority-coverage recorder (src/cov). Must be called before
  // Boot(), at most once per kind. Returns the recorder; the board owns it.
  trace::TraceRecorder* EnableTrace(trace::TraceOptions options = {});
  health::ForensicsRecorder* EnableForensics(
      health::ForensicsOptions options = {});
  cov::CovRecorder* EnableCoverage(cov::CovOptions options = {});
  // The attached recorder of each kind, or null.
  trace::TraceRecorder* trace_recorder() const { return trace_; }
  health::ForensicsRecorder* forensics_recorder() const { return forensics_; }
  cov::CovRecorder* cov_recorder() const { return cov_; }

  void Boot();

  // Runs the guest forward to (at least) absolute cycle `target`. The clock
  // may overshoot by the tail of the last guest operation; the overshoot is
  // bounded and a deterministic function of this board's own history.
  System::RunResult StepTo(Cycles target);

  // True if StepTo can still make progress (not all-exited, and not
  // deadlocked without any newly injected frame to wake it).
  bool runnable() const;

  // The earliest absolute cycle at which this board could do anything
  // observable: its current clock if a thread is runnable (busy), else the
  // earliest timer wake / revoker completion / pending frame delivery;
  // System::kForever when nothing is scheduled (all exited or deadlocked).
  // The Fleet's adaptive epoch coarsening and board parking key off this —
  // a board whose next interesting cycle lies beyond an epoch's target
  // provably cannot execute, transmit or change state inside that epoch.
  Cycles NextInterestingCycle();

  // True if frames are staged for the next barrier exchange (the Fleet's
  // dirty-list optimisation: only boards that transmitted are drained).
  bool has_staged_tx() const { return !tx_staged_.empty(); }

  // One transmitted frame with its TX cycle and host-side provenance. The
  // flow id is assigned unconditionally at transmit (board index + per-board
  // sequence) so snapshots and replays are identical whether or not a flow
  // recorder is attached; it never exists in guest-visible bytes.
  struct TxFrame {
    Cycles at = 0;
    Frame frame;
    flow::FlowId flow;
  };

  // Takes this epoch's transmitted frames, stamped with their TX cycle.
  std::vector<TxFrame> DrainTx();
  // Puts a frame on the NIC's wire, due at absolute cycle `due`
  // (EthernetDevice::InjectAt: ascending due order, first in first out among
  // equal dues; DESIGN.md §6), and logs it for replay. The buffer is shared
  // with every other receiver of the frame; a plain Frame converts. `flow`
  // is the frame's host-side provenance; defaulted (= untracked) for
  // hand-injected test frames.
  void InjectAt(Cycles due, SharedFrame frame, flow::FlowId flow = {});

  // --- Flow observations (PR 9) --------------------------------------------
  // With flow staging attached (Fleet flow mode), one observation is staged
  // per delivered or fault-dropped frame; the Fleet drains them at epoch
  // barriers in board-index order and feeds the FlowRecorder. Purely
  // host-side: staging cannot move a guest cycle.
  struct FlowObs {
    enum class Kind : uint8_t { kDelivered = 0, kDropped = 1 };
    Kind kind = Kind::kDelivered;
    flow::FlowId flow;
    Cycles at = 0;
    uint32_t bytes = 0;
  };
  void EnableFlowStaging();
  std::vector<FlowObs> DrainFlowObs();

  Fingerprint fingerprint();

  // --- Snapshot/restore (DESIGN.md §10) ------------------------------------
  //
  // Snapshot() serializes the whole board — SRAM + tag/revocation bitmaps,
  // capability registers and trusted stacks (kernel thread state), scheduler
  // and futex queues, allocator mirrors + provenance, device state including
  // pending NIC deliveries, recorder rings, and the replay log of external
  // inputs — into a versioned container. Byte-stable: two snapshots of the
  // same state are byte-identical.
  //
  // Restore() rebuilds a board from a snapshot. The firmware image is a
  // host-side artifact (native closures) and cannot cross a snapshot, so the
  // caller supplies the same image the snapshot's board was built from.
  // Restore is replay: guest fibers hold live host stacks that cannot be
  // byte-restored, so the board boots and re-executes the logged external
  // inputs (StepTo targets, injected frames); cycle-transparent pauses make
  // this reproduce the run exactly. Only OPTS and RLOG are decoded; CLCK and
  // the SRAM header are read as bounds. The restore ends with a verify:
  // every section of the restored board is re-serialized and byte-compared
  // against the snapshot; a mismatch throws snap::SnapshotError.
  void Snapshot(std::vector<uint8_t>& out);
  static std::unique_ptr<Board> Restore(const uint8_t* data, size_t size,
                                        FirmwareImage image);
  static std::unique_ptr<Board> Restore(const std::vector<uint8_t>& blob,
                                        FirmwareImage image) {
    return Restore(blob.data(), blob.size(), std::move(image));
  }

  // The replay log records every external input (StepTo / InjectAt) so a
  // mid-run snapshot can be restored by re-execution. On by default; the
  // Fleet disables it per board (it keeps its own whole-fleet control log),
  // and long-lived boards that never snapshot can opt out to stop the log
  // growing without bound.
  void set_op_log_enabled(bool on) { op_log_enabled_ = on; }
  size_t op_log_size() const { return op_log_.size(); }

  // Serializes the machine/kernel state sections (no OPTS/BOOT/RLOG) into
  // `c` — the building block shared by Snapshot(), the Fleet's embedded
  // per-board blobs and the forensics crash-scene capture.
  void BuildStateSections(snap::Container& c);

  // Installs the schedule-exploration arbiter (src/kernel/schedule_arbiter.h)
  // on this board: kernel/scheduler decision points plus the NIC's
  // frame-loss injection point. Null detaches. Host handle — never
  // serialized; re-install after Restore().
  void SetArbiter(ScheduleArbiter* arbiter) {
    machine_.ethernet().set_arbiter(arbiter);
    system_.SetArbiter(arbiter);
  }

  Cycles Now() { return machine_.clock().now(); }
  int index() const { return options_.index; }
  const EthernetDevice::Mac& mac() const { return options_.mac; }
  Machine& machine() { return machine_; }
  System& system() { return system_; }
  System::RunResult last_result() const { return last_result_; }

 private:
  class FlowStager;

  // The one attach path: labels the observer, attaches it to the machine
  // (which refuses a second one of the same kind) and takes ownership.
  template <typename R>
  R* Attach(std::unique_ptr<R> observer) {
    CHERIOT_CHECK(!booted_, "Board: observers attach before Boot()");
    observer->SetOwner("board" + std::to_string(options_.index),
                       options_.index);
    R* raw = observer.get();
    machine_.Attach(raw);
    observers_.push_back(std::move(observer));
    return raw;
  }

  struct BoardOp {
    enum class Kind : uint8_t { kStep = 0, kInject = 1 };
    Kind kind = Kind::kStep;
    Cycles a = 0;  // kStep: absolute target; kInject: clock at injection
    Cycles b = 0;  // kInject: absolute due cycle
    SharedFrame frame;  // kInject only
    flow::FlowId flow;  // kInject only: the frame's provenance
  };

  // StepTo without the replay-log entry.
  System::RunResult RunTo(Cycles target);
  void SerializeBoardSection(snap::Writer& w) const;
  // Full container for Snapshot(): OPTS + BOOT + state sections + recorder
  // sections + RLOG.
  void BuildSnapshotContainer(snap::Container& c);
  std::vector<uint8_t> SerializeCrashScene();

  BoardOptions options_;
  Machine machine_;
  System system_;
  // Owned observers, in attach order (the machine's list points at them).
  std::vector<std::unique_ptr<obs::Observer>> observers_;
  trace::TraceRecorder* trace_ = nullptr;
  health::ForensicsRecorder* forensics_ = nullptr;
  cov::CovRecorder* cov_ = nullptr;
  std::vector<TxFrame> tx_staged_;
  FlowStager* flow_stager_ = nullptr;
  System::RunResult last_result_ = System::RunResult::kBudgetExhausted;
  bool injected_since_deadlock_ = false;
  bool booted_ = false;
  std::vector<BoardOp> op_log_;
  bool op_log_enabled_ = true;
};

}  // namespace cheriot::sim

#endif  // SRC_SIM_BOARD_H_
