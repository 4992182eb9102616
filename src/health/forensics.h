// cheriot-health fault forensics: a deterministic crash recorder for the
// simulated SoC (DESIGN.md §9).
//
// Every CHERI trap that reaches the switcher's first-level handler — and
// every switcher-initiated forced unwind — files a structured crash record:
// trap cause and faulting address, the full capability register file with
// tag/bounds/permissions/seal decoded, the compartment call stack (the
// kernel's native compartment_stack — the trusted stack lives in simulated
// memory and reading it would tick the clock), the trusted-stack depth, the
// error-handler disposition the switcher took, and — when the faulting
// address lands in the heap — the allocation-site provenance of the object
// it points into ("who allocated this, and was it freed?").
//
// Determinism contract (same as src/trace, pinned by tests/health_test.cpp):
// the recorder only OBSERVES the cycle model. It never ticks the clock,
// never touches simulated memory, and never consults host state, so enabling
// forensics cannot move a single guest cycle. The recorder is an
// obs::Observer: every capture site is an empty-list check on the machine's
// observers.
#ifndef SRC_HEALTH_FORENSICS_H_
#define SRC_HEALTH_FORENSICS_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/base/clock.h"
#include "src/base/types.h"
#include "src/mem/trap.h"
#include "src/obs/observer.h"
#include "src/obs/ring.h"
#include "src/snap/snapshot.h"
#include "src/switcher/registers.h"

namespace cheriot {
class Allocator;
}  // namespace cheriot

namespace cheriot::snap {
class Reader;
}  // namespace cheriot::snap

namespace cheriot::health {

// What the switcher did with the trap (§3.2.6 error-handling paths).
using Disposition = obs::Disposition;

const char* DispositionName(Disposition d);

// One architectural register, decoded for the crash record.
struct DecodedCap {
  std::string name;    // "pcc", "ra", "csp", "cgp", "a0".."a5", "t0".."t1"
  bool tag = false;
  bool sealed = false;
  Address cursor = 0;
  Address base = 0;
  Address top = 0;     // exclusive
  std::string perms;   // PermissionSet::ToString()
  int otype = 0;
};

// Decodes the register file in declaration order (pcc, ra, csp, cgp, a0..a5,
// t0..t1) so records are byte-stable.
std::vector<DecodedCap> DecodeRegisterFile(const RegisterFile& regs);

// Allocation-site provenance of the heap object containing the faulting
// address, copied out of the allocator's native site table at capture time.
struct HeapProvenance {
  bool known = false;       // fault address resolved to an allocation site
  uint32_t site_id = 0;     // compact id: (compartment << 20) | sequence
  int32_t compartment = -1; // allocating compartment
  uint64_t seq = 0;         // allocator-wide allocation sequence number
  Cycles allocated_at = 0;  // guest cycles at allocation
  Word size = 0;            // payload bytes
  uint32_t quota = 0;       // owning allocation capability (quota id)
  // kLive: still allocated. kQuarantined: freed, revocation bits painted,
  // awaiting the sweep+quarantine drain. kReused: freed and since returned
  // to the free list (the address may have been re-allocated).
  enum class State : uint8_t { kLive = 0, kQuarantined = 1, kReused = 2 };
  State state = State::kLive;
  int32_t freed_by = -1;    // compartment that freed it (-1 = not freed)
  Cycles freed_at = 0;
};

const char* ProvenanceStateName(HeapProvenance::State s);

struct CrashRecord {
  uint64_t seq = 0;          // monotonic per recorder, stamped by Record()
  Cycles at = 0;             // guest cycles, stamped by Record()
  int16_t thread = -1;
  int32_t compartment = -1;  // faulting compartment
  TrapCode cause = TrapCode::kNone;
  Address fault_address = 0;
  Disposition disposition = Disposition::kUnwindNoHandler;
  std::vector<DecodedCap> regs;   // decoded register file at the fault
  std::vector<int> call_stack;    // compartments, outermost first
  uint32_t trusted_depth = 0;     // trusted-stack frames below the fault
  HeapProvenance provenance;      // heap object the fault address hit, if any
  // Full machine-state crash scene (a serialized snapshot-section bundle,
  // DESIGN.md §10), captured at the fault when
  // ForensicsOptions::capture_crash_scene is set. Empty otherwise, and
  // cleared on all but the `scene_limit` most recent records.
  std::vector<uint8_t> scene;
};

struct ForensicsOptions {
  // Crash-record ring capacity; the ring grows on demand up to it, and the
  // oldest records are dropped (and counted) once it is full,
  // deterministically.
  size_t ring_capacity = 256;
  // Per-compartment micro-reboot history depth (reboot-loop detection).
  size_t reboot_history = 32;
  // Attach a full machine-state scene to each crash record (via the scene
  // hook the recorder is built with). Zero guest cycles: the scene
  // serializer only reads native state and raw memory. Off by default —
  // scenes are large.
  bool capture_crash_scene = false;
  // How many of the most recent records keep their scene blob; older
  // records' scenes are dropped (the structured record itself remains).
  size_t scene_limit = 4;
};

class ForensicsRecorder : public obs::Observer {
 public:
  // Returns a serialized machine-state bundle for a crash record. Must be a
  // pure observer (no guest cycles, no simulated-memory reads through costed
  // paths). Runs only when ForensicsOptions::capture_crash_scene is set.
  using SceneHook = std::function<std::vector<uint8_t>()>;

  explicit ForensicsRecorder(ForensicsOptions options = {},
                             SceneHook scene_hook = {});

  // --- Snapshot identity (obs::Observer) ------------------------------------
  // Serialize-only, like the trace recorder's: the replay restore path
  // regenerates the recorder, so the verify step re-serializes and
  // byte-compares. Scene blobs are included — each is itself a serialized
  // machine state, so the comparison doubles as a determinism check on the
  // scene serializer.
  uint32_t snapshot_flag() const override { return snap::kHasForensics; }
  uint32_t snapshot_section() const override { return snap::kSecForensics; }
  void SerializeOptions(snap::Writer& w) const override;
  static ForensicsOptions ReadOptions(snap::Reader& r);
  void SerializeState(snap::Writer& w) const override;

  // --- Choke-point events (obs::Observer) -----------------------------------
  void OnAttach(Machine& machine) override;
  void OnBootDone(System& system,
                  std::shared_ptr<const obs::NameTable> names) override;
  void OnCompartmentCall(const GuestThread& t, int caller,
                         int export_index) override;
  // Snapshots the fault (decoded register file, trusted-stack depth, heap
  // provenance) before any handler can change it.
  void OnTrap(const obs::TrapEvent& e) override;
  // Files the snapshotted record (a fresh one for a forced unwind) with its
  // disposition, then announces it to the machine's observers as
  // OnCrashRecord so a co-attached trace can join the two streams.
  void OnTrapDisposition(const obs::TrapEvent& e,
                         obs::Disposition d) override;
  void OnQuotaDenied(const obs::HeapEvent& e) override;
  void OnMicroReboot(int compartment, Cycles at) override;

  // --- Read side (health monitor, tools, tests) ----------------------------
  std::vector<CrashRecord> Records() const { return ring_.ToVector(); }
  size_t record_count() const { return ring_.size(); }
  uint64_t recorded() const { return recorded_; }
  uint64_t dropped() const { return ring_.dropped(); }

  // Deterministic aggregates, maintained on capture.
  const std::map<int, uint64_t>& crashes_by_cause() const {    // key TrapCode
    return by_cause_;
  }
  const std::map<int, uint64_t>& crashes_by_compartment() const {
    return by_compartment_;
  }
  const std::map<int, uint64_t>& crashes_by_disposition() const {
    return by_disposition_;
  }
  uint64_t forced_unwinds() const { return forced_unwinds_; }
  uint64_t use_after_free_crashes() const { return use_after_free_; }
  uint64_t quota_exhaustions() const { return quota_exhaustions_; }
  const std::map<int, uint64_t>& quota_exhaustions_by_compartment() const {
    return quota_by_compartment_;
  }
  // Micro-reboot guest-cycle timestamps per compartment, newest last,
  // bounded to options().reboot_history entries.
  const std::map<int, std::deque<Cycles>>& reboots() const { return reboots_; }
  uint64_t total_reboots() const { return total_reboots_; }

  // --- Name resolution ------------------------------------------------------
  Cycles now() const { return clock_ ? clock_->now() : 0; }
  std::string CompartmentName(int id) const;
  std::string ThreadName(int id) const;

  const ForensicsOptions& options() const { return options_; }

 private:
  CrashRecord Capture(const obs::TrapEvent& e) const;
  // Files a crash record: stamps seq and guest time, copies the kernel's
  // compartment stack for `record.thread`, and appends to the ring (dropping
  // the oldest when full). Returns the record's sequence number. When crash
  // scenes are enabled the scene hook runs here and its blob rides on the
  // record, bounded by ForensicsOptions::scene_limit.
  uint64_t Record(CrashRecord record);

  ForensicsOptions options_;
  SceneHook scene_hook_;
  const CycleClock* clock_ = nullptr;
  const obs::ObserverList* observers_ = nullptr;
  const std::vector<GuestThread>* threads_ = nullptr;
  const Allocator* alloc_ = nullptr;
  std::shared_ptr<const obs::NameTable> names_ =
      std::make_shared<obs::NameTable>();
  // Per-thread stack count HLTH carries: every thread seen calling.
  size_t thread_hwm_ = 0;

  obs::Ring<CrashRecord> ring_;
  uint64_t recorded_ = 0;
  uint64_t next_seq_ = 0;
  // Sequence numbers of the records currently holding a scene blob, oldest
  // first.
  std::deque<uint64_t> scene_seqs_;
  // Records snapshotted at OnTrap awaiting their disposition, per thread: a
  // handler may block and let another thread trap, and traps inside one
  // thread's handler nest, so each thread's entry is a stack.
  std::map<int, std::vector<CrashRecord>> pending_;

  // Aggregates.
  std::map<int, uint64_t> by_cause_;
  std::map<int, uint64_t> by_compartment_;
  std::map<int, uint64_t> by_disposition_;
  uint64_t forced_unwinds_ = 0;
  uint64_t use_after_free_ = 0;
  uint64_t quota_exhaustions_ = 0;
  std::map<int, uint64_t> quota_by_compartment_;
  std::map<int, std::deque<Cycles>> reboots_;
  uint64_t total_reboots_ = 0;
};

}  // namespace cheriot::health

#endif  // SRC_HEALTH_FORENSICS_H_
