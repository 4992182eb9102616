// cheriot-cov authority coverage: a deterministic recorder of which static
// grants a firmware image actually *exercises* at runtime (DESIGN.md §14).
//
// The audit report (§4) and the authority graph built from it describe the
// authority firmware *could* use; this recorder measures the authority it
// *does* use, so the two can be diffed into a least-privilege report
// (src/cov/report.h): unused imports, never-called exports, MMIO ranges
// granted but untouched, quota headroom. Per board it records
//   - cross-compartment export invocations as (caller -> callee.export)
//     edges with call count, first/last guest cycle and the peak
//     trusted-stack depth reached through each export,
//   - library-call edges (caller -> library.export),
//   - the MMIO granules each compartment actually touched, per static grant,
//   - sealing keys exercised at the token seal/unseal sites,
//   - allocation-capability use (allocation count, live/peak-live bytes,
//     quota denials) per quota grant.
//
// Determinism contract (same as src/trace and src/health, pinned by
// tests/cov_test.cpp): the recorder only OBSERVES. It never ticks the clock,
// never touches simulated memory through costed paths (boot-time grant
// tables come from native loader state and RawLoadWord), and never consults
// host state, so enabling coverage cannot move a single guest cycle. The
// recorder is an obs::Observer: every capture site is an empty-list check on
// the machine's observers, and MMIO accesses arrive from Memory's slow
// (device-window) path only, so the SRAM fast path is untouched.
#ifndef SRC_COV_COVERAGE_H_
#define SRC_COV_COVERAGE_H_

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "src/base/clock.h"
#include "src/base/types.h"
#include "src/json/json.h"
#include "src/obs/observer.h"
#include "src/snap/snapshot.h"

namespace cheriot::snap {
class Reader;
}  // namespace cheriot::snap

namespace cheriot::cov {

// Edge caller id for a thread's initial entry (the switcher's InitialCall
// has no calling compartment).
inline constexpr int kCallerThreadEntry = -1;

struct CovOptions {
  // Track per-granule MMIO touch bitmaps (8-byte granules, matching the
  // revocation granule). Off: only per-grant access counts are kept.
  bool mmio_granules = true;
};

// One dynamic (caller -> callee.export) edge.
struct EdgeStats {
  uint64_t count = 0;
  Cycles first_cycle = 0;
  Cycles last_cycle = 0;
  uint32_t peak_depth = 0;  // trusted-stack frames at the deepest call
};

// One static MMIO grant (import-table slot) with its dynamic touch record.
struct MmioGrantCov {
  int compartment = -1;
  std::string device;
  Address base = 0;
  Address size = 0;
  bool writeable = false;
  uint64_t reads = 0;
  uint64_t writes = 0;
  Cycles first_cycle = 0;
  Cycles last_cycle = 0;
  std::vector<uint64_t> touched;  // granule bitmap, (size+7)/8 bits

  size_t granules_total() const {
    return static_cast<size_t>((size + kGranuleBytes - 1) / kGranuleBytes);
  }
  size_t granules_touched() const;
};

// One static sealing-key grant with its dynamic exercise counts.
struct SealingGrantCov {
  int compartment = -1;
  std::string type_name;
  uint32_t type_id = 0;
  uint64_t seals = 0;
  uint64_t unseals = 0;
};

// One static allocation-capability grant with its dynamic quota use.
struct QuotaGrantCov {
  uint32_t quota_id = 0;
  int compartment = -1;
  std::string name;
  Word limit = 0;
  uint64_t allocations = 0;
  uint64_t frees = 0;
  uint64_t denials = 0;
  Word live_bytes = 0;       // includes chunk headers (quota accounting unit)
  Word peak_live_bytes = 0;
};

class CovRecorder : public obs::Observer {
 public:
  explicit CovRecorder(CovOptions options = {});

  // --- Snapshot identity (obs::Observer) ------------------------------------
  // Serialize-only, like the trace and forensics recorders': the replay
  // restore path re-enables coverage and re-executes the op log, so the
  // verify step re-serializes and byte-compares the regenerated state.
  uint32_t snapshot_flag() const override { return snap::kHasCoverage; }
  uint32_t snapshot_section() const override { return snap::kSecCoverage; }
  void SerializeOptions(snap::Writer& w) const override;
  static CovOptions ReadOptions(snap::Reader& r);
  void SerializeState(snap::Writer& w) const override;

  // --- Choke-point events (obs::Observer) -----------------------------------
  void OnAttach(Machine& machine) override;
  // Builds the static grant tables from loader state (native reads and
  // RawLoadWord only — no guest cycles): MMIO windows, allocation
  // capabilities and sealing keys. Declaration order is the import-table
  // order, so exports and snapshots are byte-stable.
  void OnBootDone(System& system,
                  std::shared_ptr<const obs::NameTable> names) override;
  void OnContextSwitch(int from_thread, int to_thread) override;
  void OnCompartmentCall(const GuestThread& t, int caller,
                         int export_index) override;
  void OnLibraryCall(const GuestThread& t, int library,
                     int export_index) override;
  // Attributes to the current compartment of the current thread, read from
  // the kernel's compartment_stack.
  void OnMmioAccess(Address addr, Address size, bool is_store) override;
  void OnSealingUse(int compartment, uint32_t type_id, bool unseal) override;
  void OnHeapAlloc(const obs::HeapEvent& e) override;
  void OnHeapFree(const obs::HeapEvent& e) override;
  void OnQuotaDenied(const obs::HeapEvent& e) override;

  // --- Read side (exporters, tests) ----------------------------------------
  using EdgeKey = std::tuple<int, int, int>;  // caller, callee, export
  const std::map<EdgeKey, EdgeStats>& call_edges() const { return calls_; }
  const std::map<EdgeKey, EdgeStats>& library_edges() const { return libs_; }
  // Peak trusted-stack depth per (callee, export), over all callers.
  const std::map<std::pair<int, int>, uint32_t>& peak_depth_by_export() const {
    return peak_depth_;
  }
  const std::vector<MmioGrantCov>& mmio_grants() const { return mmio_; }
  const std::vector<SealingGrantCov>& sealing_grants() const {
    return sealing_;
  }
  const std::vector<QuotaGrantCov>& quota_grants() const { return quotas_; }
  // MMIO touches with no covering grant for the touching compartment
  // (delegated-capability or pseudo-context accesses), keyed by
  // (compartment, granule base address).
  const std::map<std::pair<int, Address>, uint64_t>& unattributed_mmio() const {
    return unattributed_mmio_;
  }
  uint64_t calls_recorded() const { return calls_recorded_; }

  Cycles now() const { return clock_ ? clock_->now() : 0; }
  std::string CompartmentName(int id) const;
  std::string ExportName(int compartment, int export_index) const;
  std::string LibraryName(int id) const;
  std::string LibraryExportName(int library, int export_index) const;
  const CovOptions& options() const { return options_; }

  // Per-board coverage document body (one element of the exported "boards"
  // array, schema cov/report.h). Byte-stable: maps iterate in key order and
  // grant tables keep import-table order.
  json::Value Json() const;

 private:
  int CurrentCompartment() const;
  void AddMmioGrant(int compartment, std::string device, Address base,
                    Address size, bool writeable);

  CovOptions options_;
  const CycleClock* clock_ = nullptr;
  const std::vector<GuestThread>* threads_ = nullptr;
  // Per-thread stack count COVG carries: every thread seen calling.
  size_t thread_hwm_ = 0;
  int current_thread_ = obs::kContextBoot;  // thread id, or pseudo id < 0

  std::map<EdgeKey, EdgeStats> calls_;
  std::map<EdgeKey, EdgeStats> libs_;
  std::map<std::pair<int, int>, uint32_t> peak_depth_;
  std::vector<MmioGrantCov> mmio_;
  std::vector<SealingGrantCov> sealing_;
  std::vector<QuotaGrantCov> quotas_;
  std::map<std::pair<int, Address>, uint64_t> unattributed_mmio_;
  uint64_t calls_recorded_ = 0;

  std::shared_ptr<const obs::NameTable> names_ =
      std::make_shared<obs::NameTable>();
};

}  // namespace cheriot::cov

#endif  // SRC_COV_COVERAGE_H_
