// The simulated SRAM with CHERI tags, the revocation-bit SRAM and the load
// filter (§2.1), plus the MMIO bus.
//
// Every guest access goes through a capability and is checked here: tag,
// seal, permission, bounds, alignment. Capability loads additionally apply
// CHERIoT's deep attenuation (permit-load-mutable / permit-load-global) and
// the load filter against the revocation bits. Partially overwriting a
// capability in memory clears its tag.
//
// Because every protection property is enforced on every simulated access,
// this is the simulator's hottest code. The scalar load/store paths run
// through the inlined AccessFastPath below: raw-function-pointer preemption
// hook, word-packed tag/revocation bitmaps (src/base/bitmap.h), and a cached
// [mmio_min, mmio_max) envelope so the common SRAM access never scans the
// MMIO table. The cycle-model-invariance rule (DESIGN.md "Simulator fast
// path") applies: simulated cycles, counters and trap behaviour here are
// pinned by tests/invariance_test.cpp.
#ifndef SRC_MEM_MEMORY_H_
#define SRC_MEM_MEMORY_H_

#include <array>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/base/anon_mapping.h"
#include "src/base/bitmap.h"
#include "src/base/clock.h"
#include "src/base/costs.h"
#include "src/base/types.h"
#include "src/cap/capability.h"
#include "src/mem/trap.h"

namespace cheriot {

namespace snap {
class Writer;
}  // namespace snap

// Tracks the revocation bit for each heap granule (stored in a dedicated
// SRAM region on the real chip, §2.1). Word-packed so the load filter probes
// one bit and free()/heap_free_all mark 64 granules per store.
class RevocationMap {
 public:
  RevocationMap(Address base, Address size)
      : base_(base), bits_((size + kGranuleBytes - 1) / kGranuleBytes) {}

  bool Covers(Address addr) const {
    return addr >= base_ && (addr - base_) / kGranuleBytes < bits_.size();
  }
  bool Test(Address addr) const {
    return Covers(addr) && bits_.Test((addr - base_) / kGranuleBytes);
  }
  // Marks the granules covering [addr, addr + len). The end is computed once
  // in 64 bits and clamped to the top of the map, so a length that would
  // overflow a 32-bit address cannot wrap around and escape the range.
  void SetRange(Address addr, Address len, bool value) {
    const uint64_t top =
        base_ + static_cast<uint64_t>(bits_.size()) * kGranuleBytes;
    uint64_t end = static_cast<uint64_t>(addr) + len;
    if (end > top) {
      end = top;
    }
    uint64_t start = AlignDown(addr, kGranuleBytes);
    if (start < base_) {
      start = base_;
    }
    if (start >= end) {
      return;
    }
    bits_.SetRange(static_cast<size_t>((start - base_) / kGranuleBytes),
                   static_cast<size_t>((end - start + kGranuleBytes - 1) /
                                       kGranuleBytes),
                   value);
  }

  // Snapshot serialisation of the packed revocation words (DESIGN.md §10).
  void SerializeState(snap::Writer& w) const;

 private:
  Address base_;
  Bitmap bits_;
};

// An MMIO device register bank. `is_store` distinguishes reads from writes;
// reads return the register value. Handler dispatch is off the fast path, so
// std::function is fine here; regions must not overlap.
using MmioHandler = std::function<Word(Address offset, bool is_store, Word value)>;

class Memory {
 public:
  // Called before every guest-visible access; the kernel installs the
  // preemption check here (deterministic preemption points, DESIGN.md §4.3).
  // A raw function pointer + context — not std::function — so the hot loop
  // pays one indirect call, with the exact same call sequence and therefore
  // identical preemption points.
  using AccessHook = void (*)(void* ctx);

  // Passive observer of every guest-visible data access, used by the
  // concurrency explorer (src/mc) to harvest per-thread read/write
  // footprints for partial-order reduction. Same raw-pointer shape as
  // AccessHook; invoked after the preemption hook, before the checks.
  // Must not perturb guest-visible state (it sees the access, it does not
  // cost or count it).
  using AccessObserver = void (*)(void* ctx, Address addr, Address size,
                                  bool is_store);

  // Passive observer of MMIO dispatches only, used by the authority-coverage
  // recorder (src/cov) to record which device granules each compartment
  // touches. Invoked on the slow (device-window) path right before the
  // handler runs, so the SRAM fast path never sees it. Same rules as
  // AccessObserver: must not perturb guest-visible state.
  using MmioObserver = void (*)(void* ctx, Address addr, Address size,
                                bool is_store);

  Memory(Address sram_base, Address sram_size, CycleClock* clock);

  Address sram_base() const { return sram_base_; }
  Address sram_size() const { return sram_size_; }
  Address sram_top() const { return sram_base_ + sram_size_; }
  RevocationMap& revocation() { return revocation_; }
  CycleClock& clock() { return *clock_; }

  void SetAccessHook(AccessHook hook, void* ctx) {
    access_hook_ = hook;
    access_hook_ctx_ = ctx;
  }

  void SetAccessObserver(AccessObserver observer, void* ctx) {
    access_observer_ = observer;
    access_observer_ctx_ = ctx;
  }

  void SetMmioObserver(MmioObserver observer, void* ctx) {
    mmio_observer_ = observer;
    mmio_observer_ctx_ = ctx;
  }

  // --- Guest (capability-checked) accesses ---
  // The scalar paths are defined inline at the bottom of this header; they
  // all run through AccessFastPath.
  [[gnu::always_inline]] inline Word LoadWord(const Capability& authority,
                                              Address addr);
  [[gnu::always_inline]] inline void StoreWord(const Capability& authority,
                                               Address addr, Word value);
  [[gnu::always_inline]] inline uint8_t LoadByte(const Capability& authority,
                                                 Address addr);
  [[gnu::always_inline]] inline void StoreByte(const Capability& authority,
                                               Address addr, uint8_t value);
  [[gnu::always_inline]] inline uint16_t LoadHalf(const Capability& authority,
                                                  Address addr);
  [[gnu::always_inline]] inline void StoreHalf(const Capability& authority,
                                               Address addr, uint16_t value);
  Capability LoadCap(const Capability& authority, Address addr);
  void StoreCap(const Capability& authority, Address addr,
                const Capability& value);

  // Bulk helpers (checked once, then byte-costed).
  void ReadBytes(const Capability& authority, Address addr, void* out,
                 Address len);
  void WriteBytes(const Capability& authority, Address addr, const void* in,
                  Address len);
  // Zeroes [addr, addr+len), clearing capability tags; costs
  // cost::kZeroPerGranule per granule (the switcher's stack-clearing cost).
  void ZeroRange(const Capability& authority, Address addr, Address len);

  // --- MMIO ---
  // Regions are kept sorted by base for O(log n) dispatch and must not
  // overlap each other.
  void AddMmioRegion(Address base, Address size, MmioHandler handler);
  bool IsMmio(Address addr) const;

  // --- Hardware-internal (uncosted, unchecked) access ---
  // Used by the revoker sweep, the loader's metadata bookkeeping and tests'
  // white-box assertions. Not reachable from guest code.
  uint8_t* raw(Address addr);
  Word RawLoadWord(Address addr) const;
  void RawStoreWord(Address addr, Word value);
  size_t GranuleCount() const { return tags_.size(); }
  bool GranuleTagged(size_t index) const { return tags_.Test(index); }
  // The capability behind a tagged granule. Meaningless for an untagged one
  // (a stale value, or the null capability if its shadow page was never
  // allocated).
  const Capability& GranuleCap(size_t index) const {
    const std::unique_ptr<ShadowPage>& page = shadow_[index / kShadowPageCaps];
    return page ? (*page)[index % kShadowPageCaps] : kNullShadow;
  }
  void ClearGranuleTag(size_t index) { tags_.Clear(index); }
  // Index of the first tagged granule at or after `from` (Bitmap::npos if
  // none) — lets the revoker sweep skip untagged runs 64 granules at a time.
  size_t FindNextTaggedGranule(size_t from) const {
    return tags_.FindNextSet(from);
  }
  bool TagAt(Address addr) const;

  // Statistics for the ablation bench (bench_cap_overhead).
  uint64_t access_count() const { return access_count_; }
  uint64_t cap_load_count() const { return cap_loads_; }
  uint64_t cap_store_count() const { return cap_stores_; }
  void ResetAccessCounters() {
    access_count_ = 0;
    cap_loads_ = 0;
    cap_stores_ = 0;
  }
  // When false, capability checks are skipped (models the baseline RV32E
  // core for the CoreMark-style ablation). Protection-relevant code must
  // never run in this mode.
  void set_checks_enabled(bool enabled) { checks_enabled_ = enabled; }

  // Snapshot serialisation (DESIGN.md §10). Guest-visible state only: SRAM
  // bytes, tag bitmap + shadow capabilities, revocation bits, access
  // counters. Host-side plumbing (MMIO table, access hook, clock pointer)
  // belongs to the constructed Machine and is never serialised.
  void SerializeState(snap::Writer& w) const;

 private:
  struct MmioRegion {
    Address base;
    Address size;
    MmioHandler handler;
  };

  [[gnu::always_inline]] inline void CheckDataAccess(const Capability& authority,
                                                     Address addr, Address size,
                                                     Permission perm) const;
  // Index of the granule containing addr (SRAM only).
  size_t GranuleIndex(Address addr) const {
    return (addr - sram_base_) / kGranuleBytes;
  }
  void ClearTagsCovering(Address addr, Address len) {
    const size_t first = GranuleIndex(AlignDown(addr, kGranuleBytes));
    const size_t last = GranuleIndex(AlignDown(addr + len - 1, kGranuleBytes));
    tags_.ClearSpan(first, last);
  }
  // Scalar-store variant: len <= kGranuleBytes touches at most two granules,
  // so skip the general span masking.
  void ClearTagsScalar(Address addr, Address len) {
    const size_t first = GranuleIndex(AlignDown(addr, kGranuleBytes));
    const size_t last = GranuleIndex(AlignDown(addr + len - 1, kGranuleBytes));
    tags_.Clear(first);
    if (last != first) {
      tags_.Clear(last);
    }
  }
  // The consolidated hot path: count the access, run the preemption hook,
  // charge cycles, run every capability check, and decode the target.
  // Returns a pointer into SRAM for the common case; nullptr means the
  // access overlaps the MMIO envelope and must take the slow dispatch path.
  // The check/trap order is identical to the pre-fast-path implementation.
  [[gnu::always_inline]] inline uint8_t* AccessFastPath(
      const Capability& authority, Address addr, Address size, Permission perm,
      Cycles cycles) {
    ++access_count_;
    if (access_hook_) {
      access_hook_(access_hook_ctx_);
    }
    if (access_observer_) {
      access_observer_(access_observer_ctx_, addr, size,
                       perm == Permission::kStore);
    }
    clock_->Tick(cycles);
    CheckDataAccess(authority, addr, size, perm);
    const uint64_t end = static_cast<uint64_t>(addr) + size;
    if (addr < mmio_max_ && end > mmio_min_) {
      return nullptr;  // overlaps a device window: dispatch off-path
    }
    if (addr < sram_base_ || end > sram_top()) {
      throw TrapException(TrapCode::kBoundsViolation, addr, "unmapped address");
    }
    return &bytes_[addr - sram_base_];
  }
  // Off-path continuation for accesses overlapping the MMIO envelope: MMIO
  // dispatch, or the identical unmapped-address trap / SRAM fallthrough.
  Word SlowLoad(Address addr, Address size);
  void SlowStore(Address addr, Address size, Word value);
  MmioRegion* FindMmio(Address addr, Address size);
  void HookAndTick(Cycles cycles);

  // The shadow keeps the full capability of every tagged granule, in pages
  // of kShadowPageCaps granules (4 KiB of SRAM) allocated at the first
  // tagged store into them: most boards never store a capability, and the
  // tag bitmap already says which slots mean anything.
  static constexpr size_t kShadowPageCaps = 512;
  using ShadowPage = std::array<Capability, kShadowPageCaps>;
  static constexpr Capability kNullShadow{};
  Capability& ShadowSlot(size_t g);

  Address sram_base_;
  Address sram_size_;
  CycleClock* clock_;
  AnonMapping bytes_;  // zero-filled by the OS, backed only where touched
  Bitmap tags_;        // one bit per granule
  std::vector<std::unique_ptr<ShadowPage>> shadow_;
  RevocationMap revocation_;
  std::vector<MmioRegion> mmio_;  // sorted by base, non-overlapping
  size_t mmio_last_ = 0;          // index of the last region FindMmio hit
  // Cached envelope over all MMIO regions: accesses outside
  // [mmio_min_, mmio_max_) skip region lookup entirely.
  Address mmio_min_ = ~Address{0};
  Address mmio_max_ = 0;
  AccessHook access_hook_ = nullptr;
  void* access_hook_ctx_ = nullptr;
  AccessObserver access_observer_ = nullptr;
  void* access_observer_ctx_ = nullptr;
  MmioObserver mmio_observer_ = nullptr;
  void* mmio_observer_ctx_ = nullptr;
  uint64_t access_count_ = 0;
  uint64_t cap_loads_ = 0;
  uint64_t cap_stores_ = 0;
  bool checks_enabled_ = true;
};

// --- Inline scalar access paths -------------------------------------------

inline void Memory::CheckDataAccess(const Capability& authority, Address addr,
                                    Address size, Permission perm) const {
  if (!checks_enabled_) {
    return;
  }
  if (!authority.tag()) {
    throw TrapException(TrapCode::kTagViolation, addr,
                        "access via untagged capability");
  }
  if (authority.IsSealed()) {
    throw TrapException(TrapCode::kSealViolation, addr,
                        "access via sealed capability");
  }
  if (!authority.permissions().Has(perm)) {
    throw TrapException(perm == Permission::kLoad
                            ? TrapCode::kPermitLoadViolation
                            : TrapCode::kPermitStoreViolation,
                        addr, "missing permission");
  }
  if (!authority.InBounds(addr, size)) {
    throw TrapException(TrapCode::kBoundsViolation, addr,
                        "outside capability bounds");
  }
  // Temporal check: the real core's load filter untagged any stale cap at
  // load time and the revoker sweeps the register file, so by the time a
  // freed object is touched the authority is untagged. We model the combined
  // effect by checking the revocation bit of the authority's *base* at use
  // ("accesses to freed objects trap as soon as free returns", §3.1.3). The
  // allocator's whole-heap capability is exempt (kRevocationExempt).
  if (!authority.permissions().Has(Permission::kRevocationExempt) &&
      revocation_.Test(authority.base())) {
    throw TrapException(TrapCode::kTagViolation, addr,
                        "use of revoked (freed) capability");
  }
  if ((size == 4 && (addr & 3)) || (size == 2 && (addr & 1)) ||
      (size == 8 && (addr & 7))) {
    throw TrapException(TrapCode::kAlignmentFault, addr, "misaligned access");
  }
}

inline Word Memory::LoadWord(const Capability& authority, Address addr) {
  if (const uint8_t* p =
          AccessFastPath(authority, addr, 4, Permission::kLoad,
                         cost::kLoadWord)) {
    Word v;
    std::memcpy(&v, p, 4);
    return v;
  }
  return SlowLoad(addr, 4);
}

inline void Memory::StoreWord(const Capability& authority, Address addr,
                              Word value) {
  if (uint8_t* p = AccessFastPath(authority, addr, 4, Permission::kStore,
                                  cost::kStoreWord)) {
    ClearTagsScalar(addr, 4);
    std::memcpy(p, &value, 4);
    return;
  }
  SlowStore(addr, 4, value);
}

inline uint8_t Memory::LoadByte(const Capability& authority, Address addr) {
  if (const uint8_t* p =
          AccessFastPath(authority, addr, 1, Permission::kLoad,
                         cost::kLoadByte)) {
    return *p;
  }
  return static_cast<uint8_t>(SlowLoad(addr, 1));
}

inline void Memory::StoreByte(const Capability& authority, Address addr,
                              uint8_t value) {
  if (uint8_t* p = AccessFastPath(authority, addr, 1, Permission::kStore,
                                  cost::kStoreByte)) {
    ClearTagsScalar(addr, 1);
    *p = value;
    return;
  }
  SlowStore(addr, 1, value);
}

inline uint16_t Memory::LoadHalf(const Capability& authority, Address addr) {
  if (const uint8_t* p =
          AccessFastPath(authority, addr, 2, Permission::kLoad,
                         cost::kLoadHalf)) {
    uint16_t v;
    std::memcpy(&v, p, 2);
    return v;
  }
  return static_cast<uint16_t>(SlowLoad(addr, 2));
}

inline void Memory::StoreHalf(const Capability& authority, Address addr,
                              uint16_t value) {
  if (uint8_t* p = AccessFastPath(authority, addr, 2, Permission::kStore,
                                  cost::kStoreHalf)) {
    ClearTagsScalar(addr, 2);
    std::memcpy(p, &value, 2);
    return;
  }
  SlowStore(addr, 2, value);
}

}  // namespace cheriot

#endif  // SRC_MEM_MEMORY_H_
