// The shared-heap memory allocator (§3.1.3): spatially- and temporally-safe
// heap shared by all compartments, with allocation capabilities & quotas
// (§3.2.2), quarantine batched against the hardware revoker, zero-on-free,
// claims and ephemeral claims (§3.2.5), and sealed-object allocation
// backing the token API (§3.2.1).
//
// Chunk header (16 bytes, in-band, at payload-16):
//   +0  u32 chunk size including header
//   +4  u32 previous chunk size (for coalescing); 0 for the first chunk
//   +8  u32 state(8) | owner_quota(8) | claim_count(8) | flags(8)
//   +12 u32 safe-reuse revoker epoch (quarantined chunks)
#ifndef SRC_ALLOC_ALLOCATOR_H_
#define SRC_ALLOC_ALLOCATOR_H_

#include <cstdint>
#include <deque>
#include <map>
#include <set>

#include "src/base/status.h"
#include "src/base/types.h"
#include "src/cap/capability.h"
#include "src/loader/loader.h"

namespace cheriot {

class System;
class CompartmentCtx;

namespace snap {
class Writer;
}  // namespace snap

class Allocator {
 public:
  static constexpr Address kHeaderBytes = 16;
  static constexpr Address kMinChunk = 32;
  // Quarantine entries examined per malloc/free (§3.1.3: "a small, constant
  // number"; more than one so the quarantine eventually drains).
  static constexpr int kQuarantineDequeuePerOp = 2;

  enum class ChunkState : uint8_t { kFree = 0, kUsed = 1, kQuarantined = 2 };

  // --- Allocation-site provenance (src/health, DESIGN.md §9) ---------------
  // Every live heap object carries a compact site id (allocating compartment
  // + allocator-wide sequence number) in a native-only table, so crash
  // forensics can answer "who allocated the object this faulting capability
  // points into, and was it freed?". Purely observational: maintained with
  // zero guest cycles and zero simulated-memory accesses.
  enum class SiteState : uint8_t {
    kLive = 0,         // allocated, not yet freed
    kQuarantined = 1,  // freed; revocation bits painted, awaiting sweep
    kReused = 2,       // freed and returned to the free list
  };
  struct AllocSite {
    uint32_t site_id = 0;      // (compartment & 0xFFF) << 20 | (seq & 0xFFFFF)
    int32_t compartment = -1;  // allocating compartment
    uint64_t seq = 0;          // allocator-wide allocation sequence number
    Cycles allocated_at = 0;   // guest cycles at allocation
    Address payload = 0;
    Word size = 0;             // payload bytes (chunk size minus header)
    uint8_t quota = 0;
    SiteState state = SiteState::kLive;
    int32_t freed_by = -1;     // compartment that freed it (-1 = not freed)
    Cycles freed_at = 0;
  };
  // Retired (reused) sites kept for late-fault attribution.
  static constexpr size_t kRetiredSites = 64;

  explicit Allocator(System* system) : system_(system) {}
  void Init();

  // --- Compartment-call entry points (run on the caller's thread inside the
  // "alloc" compartment) ---
  Capability HeapAllocate(CompartmentCtx& ctx, const Capability& alloc_cap,
                          Word size, Word timeout_cycles);
  Status HeapFree(CompartmentCtx& ctx, const Capability& alloc_cap,
                  const Capability& ptr);
  Status HeapClaim(CompartmentCtx& ctx, const Capability& alloc_cap,
                   const Capability& ptr);
  bool HeapCanFree(CompartmentCtx& ctx, const Capability& alloc_cap,
                   const Capability& ptr);
  Word QuotaRemaining(CompartmentCtx& ctx, const Capability& alloc_cap);
  // Frees every allocation owned by the quota (micro-reboot step 3).
  // Returns bytes released.
  Word HeapFreeAll(CompartmentCtx& ctx, const Capability& alloc_cap);

  // --- Token API backing (§3.2.1) ---
  Capability TokenKeyNew(CompartmentCtx& ctx);
  Capability TokenObjNew(CompartmentCtx& ctx, const Capability& alloc_cap,
                         const Capability& key, Word size);
  Status TokenObjDestroy(CompartmentCtx& ctx, const Capability& alloc_cap,
                         const Capability& key, const Capability& sealed_obj);

  // --- Kernel-side (micro-reboot, hazard-deferred frees) ---
  Word FreeAllForQuota(uint32_t quota_id);
  void RetryPendingFrees();

  // --- Introspection (tests & benches) ---
  Word FreeBytes() const;
  Word QuarantinedBytes() const;
  size_t UsedChunks() const { return used_.size(); }
  Word LargestFreeChunk() const;

  // --- Provenance read side (health monitor, forensics capture) ------------
  // Site whose payload contains `addr`: current sites first, then retired
  // ones newest-first. Null when the address is not heap-attributable.
  // Zero-cost observer — never reads simulated memory or ticks the clock
  // (unlike FreeBytes()/QuarantinedBytes(), which are costed).
  const AllocSite* ProvenanceFor(Address addr) const;
  const std::map<Address, AllocSite>& sites() const { return sites_; }
  const std::deque<AllocSite>& retired_sites() const { return retired_; }
  uint64_t allocation_count() const { return site_seq_; }
  // Allocations refused for quota exhaustion. Native-only observability
  // counter (fleet metrics time-series); deliberately NOT serialized —
  // restore replays regenerate it exactly.
  uint64_t quota_denials() const { return quota_denials_; }
  // Native byte counters mirroring the in-band headers.
  Word LiveBytesNative() const { return live_native_; }
  Word QuarantinedBytesNative() const { return quarantined_native_; }

  // Unseals an allocation capability; returns untagged cap on failure.
  Capability UnsealAllocCap(const Capability& alloc_cap) const;

  // Snapshot serialisation (DESIGN.md §10): the native bookkeeping mirrors
  // and the alloc-site provenance table. The in-band chunk headers live in
  // SRAM (memory section) and heap_root_/heap_base_/heap_size_ come from
  // boot info, so only the mirrors that accumulate at run time are written
  // here.
  void SerializeState(snap::Writer& w) const;

 private:
  struct Header {
    Word size = 0;
    Word prev_size = 0;
    ChunkState state = ChunkState::kFree;
    uint8_t quota = 0;
    uint8_t claims = 0;
    uint8_t flags = 0;
    Word epoch = 0;
  };

  Header ReadHeader(Address chunk) const;
  void WriteHeader(Address chunk, const Header& h);
  Address PayloadOf(Address chunk) const { return chunk + kHeaderBytes; }

  // Quota bookkeeping lives in the sealed payload (simulated memory).
  Word QuotaLimit(const Capability& unsealed) const;
  Word QuotaUsed(const Capability& unsealed) const;
  void SetQuotaUsed(const Capability& unsealed, Word used);
  uint32_t QuotaId(const Capability& unsealed) const;

  // Internal allocation path shared by HeapAllocate / TokenObjNew.
  Capability AllocateInternal(CompartmentCtx& ctx, const Capability& unsealed_q,
                              Word size, Word timeout_cycles);
  // Actually releases a used chunk into quarantine (zero + revoke).
  void ReleaseChunk(Address chunk, const Header& h);
  void ProcessQuarantine(int max_items);
  void CoalesceAndFree(Address chunk);
  Capability MakeHeapCap(Address payload, Word size) const;

  // Compartment accountable for the current heap operation. heap_* exports
  // execute inside the alloc service compartment, so the party to attribute
  // (site provenance, quota forensics) is the caller that entered it — read
  // from the thread's native compartment-stack mirror, never from simulated
  // memory. Falls back to current_compartment for kernel-driven releases.
  int AttributedCompartment();
  int ServiceCompartmentId();

  System* system_;
  Capability heap_root_;  // privileged, revocation-exempt (§3.1.3)
  Address heap_base_ = 0;
  Address heap_size_ = 0;

  // Native bookkeeping mirrors (headers remain authoritative in-band).
  std::set<Address> free_chunks_;  // ordered by address (first-fit)
  std::set<Address> used_;
  std::deque<Address> quarantine_;
  // Claims: payload -> (quota id -> count). The header tracks the total.
  std::map<Address, std::map<uint32_t, uint32_t>> claims_;
  // Frees deferred by ephemeral claims (§3.2.5).
  std::set<Address> pending_free_;

  // Allocation-site provenance: chunk address -> site, plus a bounded deque
  // of retired sites (chunks that left quarantine) newest-last. Native-only.
  std::map<Address, AllocSite> sites_;
  std::deque<AllocSite> retired_;
  uint64_t site_seq_ = 0;
  uint64_t quota_denials_ = 0;
  int service_compartment_ = -2;  // -2 = not yet resolved from boot info
  Word live_native_ = 0;
  Word quarantined_native_ = 0;
};

}  // namespace cheriot

#endif  // SRC_ALLOC_ALLOCATOR_H_
