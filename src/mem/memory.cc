#include "src/mem/memory.h"

#include <algorithm>
#include <cstring>

#include "src/base/costs.h"
#include "src/snap/wire.h"

namespace cheriot {

const char* TrapCodeName(TrapCode code) {
  switch (code) {
    case TrapCode::kNone: return "none";
    case TrapCode::kTagViolation: return "tag violation";
    case TrapCode::kSealViolation: return "seal violation";
    case TrapCode::kBoundsViolation: return "bounds violation";
    case TrapCode::kPermitLoadViolation: return "permit-load violation";
    case TrapCode::kPermitStoreViolation: return "permit-store violation";
    case TrapCode::kPermitExecuteViolation: return "permit-execute violation";
    case TrapCode::kStoreLocalViolation: return "store-local violation";
    case TrapCode::kAlignmentFault: return "alignment fault";
    case TrapCode::kIllegalInstruction: return "illegal instruction";
    case TrapCode::kStackOverflow: return "stack overflow";
    case TrapCode::kTrustedStackOverflow: return "trusted-stack overflow";
    case TrapCode::kForcedUnwind: return "forced unwind";
  }
  return "unknown";
}

std::string TrapException::ToHex(Address a) {
  char buf[12];
  std::snprintf(buf, sizeof(buf), "%08x", a);
  return buf;
}

Memory::Memory(Address sram_base, Address sram_size, CycleClock* clock)
    : sram_base_(sram_base),
      sram_size_(sram_size),
      clock_(clock),
      bytes_(sram_size),
      tags_(sram_size / kGranuleBytes),
      shadow_((sram_size / kGranuleBytes + kShadowPageCaps - 1) /
              kShadowPageCaps),
      revocation_(sram_base, sram_size) {}

Capability& Memory::ShadowSlot(size_t g) {
  std::unique_ptr<ShadowPage>& page = shadow_[g / kShadowPageCaps];
  if (!page) {
    page = std::make_unique<ShadowPage>();
  }
  return (*page)[g % kShadowPageCaps];
}

void Memory::HookAndTick(Cycles cycles) {
  ++access_count_;
  if (access_hook_) {
    access_hook_(access_hook_ctx_);
  }
  clock_->Tick(cycles);
}

Memory::MmioRegion* Memory::FindMmio(Address addr, Address size) {
  // Device polling hammers one register bank, so try the last region hit
  // before the binary search.
  if (mmio_last_ < mmio_.size()) {
    MmioRegion& cached = mmio_[mmio_last_];
    if (addr >= cached.base && static_cast<uint64_t>(addr) + size <=
                                   static_cast<uint64_t>(cached.base) +
                                       cached.size) {
      return &cached;
    }
  }
  // Regions are sorted by base and non-overlapping, so only the last region
  // starting at or below addr can contain the access.
  auto it = std::upper_bound(
      mmio_.begin(), mmio_.end(), addr,
      [](Address a, const MmioRegion& r) { return a < r.base; });
  if (it == mmio_.begin()) {
    return nullptr;
  }
  --it;
  if (static_cast<uint64_t>(addr) + size <=
      static_cast<uint64_t>(it->base) + it->size) {
    mmio_last_ = static_cast<size_t>(it - mmio_.begin());
    return &*it;
  }
  return nullptr;
}

bool Memory::IsMmio(Address addr) const {
  auto it = std::upper_bound(
      mmio_.begin(), mmio_.end(), addr,
      [](Address a, const MmioRegion& r) { return a < r.base; });
  if (it == mmio_.begin()) {
    return false;
  }
  --it;
  return addr - it->base < it->size;
}

void Memory::AddMmioRegion(Address base, Address size, MmioHandler handler) {
  auto it = std::upper_bound(
      mmio_.begin(), mmio_.end(), base,
      [](Address b, const MmioRegion& r) { return b < r.base; });
  mmio_.insert(it, {base, size, std::move(handler)});
  mmio_min_ = std::min(mmio_min_, base);
  mmio_max_ = std::max(mmio_max_, base + size);
}

Word Memory::SlowLoad(Address addr, Address size) {
  if (MmioRegion* r = FindMmio(addr, size)) {
    if (mmio_observer_) {
      mmio_observer_(mmio_observer_ctx_, addr, size, /*is_store=*/false);
    }
    return r->handler(addr - r->base, /*is_store=*/false, 0);
  }
  if (addr < sram_base_ || static_cast<uint64_t>(addr) + size > sram_top()) {
    throw TrapException(TrapCode::kBoundsViolation, addr, "unmapped address");
  }
  Word v = 0;
  std::memcpy(&v, &bytes_[addr - sram_base_], size);
  return v;
}

void Memory::SlowStore(Address addr, Address size, Word value) {
  if (MmioRegion* r = FindMmio(addr, size)) {
    if (mmio_observer_) {
      mmio_observer_(mmio_observer_ctx_, addr, size, /*is_store=*/true);
    }
    r->handler(addr - r->base, /*is_store=*/true, value);
    return;
  }
  if (addr < sram_base_ || static_cast<uint64_t>(addr) + size > sram_top()) {
    throw TrapException(TrapCode::kBoundsViolation, addr, "unmapped address");
  }
  ClearTagsCovering(addr, size);
  std::memcpy(&bytes_[addr - sram_base_], &value, size);
}

Capability Memory::LoadCap(const Capability& authority, Address addr) {
  ++cap_loads_;
  HookAndTick(cost::kLoadCap + cost::kLoadFilter);
  if (access_observer_) {
    access_observer_(access_observer_ctx_, addr, 8, /*is_store=*/false);
  }
  CheckDataAccess(authority, addr, 8, Permission::kLoad);
  if (addr < sram_base_ || static_cast<uint64_t>(addr) + 8 > sram_top()) {
    throw TrapException(TrapCode::kBoundsViolation, addr,
                        "capability load outside SRAM");
  }
  const size_t g = GranuleIndex(addr);
  Capability result;
  if (tags_.Test(g)) {
    result = GranuleCap(g);
  } else {
    Word v;
    std::memcpy(&v, &bytes_[addr - sram_base_], 4);
    result = Capability::FromWord(v);
  }
  result = result.AttenuatedForLoadVia(authority);
  // The load filter (§2.1): if the loaded capability's base granule has its
  // revocation bit set, the tag is cleared as the value enters the register.
  if (result.tag() && revocation_.Test(result.base())) {
    result = result.Untagged();
  }
  return result;
}

void Memory::StoreCap(const Capability& authority, Address addr,
                      const Capability& value) {
  ++cap_stores_;
  HookAndTick(cost::kStoreCap);
  if (access_observer_) {
    access_observer_(access_observer_ctx_, addr, 8, /*is_store=*/true);
  }
  CheckDataAccess(authority, addr, 8, Permission::kStore);
  if (addr < sram_base_ || static_cast<uint64_t>(addr) + 8 > sram_top()) {
    throw TrapException(TrapCode::kBoundsViolation, addr,
                        "capability store outside SRAM");
  }
  if (checks_enabled_ && value.tag()) {
    if (!authority.permissions().Has(Permission::kLoadStoreCap)) {
      // Storing through a data-only cap strips the tag (stores raw bytes).
      StoreCap(authority, addr, value.Untagged());
      return;
    }
    if (!value.permissions().Has(Permission::kGlobal) &&
        !authority.permissions().Has(Permission::kStoreLocal)) {
      throw TrapException(TrapCode::kStoreLocalViolation, addr,
                          "storing local capability without permit-store-local");
    }
  }
  ClearTagsCovering(addr, 8);
  // Serialized form: cursor in the low word, a metadata summary in the high
  // word (so guests that read a pointer as an integer see its address).
  Word meta = (static_cast<Word>(value.permissions().bits()) << 8) |
              static_cast<Word>(value.otype());
  Word cursor = value.cursor();
  std::memcpy(&bytes_[addr - sram_base_], &cursor, 4);
  std::memcpy(&bytes_[addr - sram_base_ + 4], &meta, 4);
  const size_t g = GranuleIndex(addr);
  if (value.tag()) {
    tags_.Set(g);
    ShadowSlot(g) = value;
  }
}

void Memory::ReadBytes(const Capability& authority, Address addr, void* out,
                       Address len) {
  if (len == 0) {
    return;
  }
  HookAndTick(cost::kLoadWord * ((len + 3) / 4));
  if (access_observer_) {
    access_observer_(access_observer_ctx_, addr, len, /*is_store=*/false);
  }
  CheckDataAccess(authority, addr, len, Permission::kLoad);
  if (addr < sram_base_ || static_cast<uint64_t>(addr) + len > sram_top()) {
    throw TrapException(TrapCode::kBoundsViolation, addr, "unmapped range");
  }
  std::memcpy(out, &bytes_[addr - sram_base_], len);
}

void Memory::WriteBytes(const Capability& authority, Address addr,
                        const void* in, Address len) {
  if (len == 0) {
    return;
  }
  HookAndTick(cost::kStoreWord * ((len + 3) / 4));
  if (access_observer_) {
    access_observer_(access_observer_ctx_, addr, len, /*is_store=*/true);
  }
  CheckDataAccess(authority, addr, len, Permission::kStore);
  if (addr < sram_base_ || static_cast<uint64_t>(addr) + len > sram_top()) {
    throw TrapException(TrapCode::kBoundsViolation, addr, "unmapped range");
  }
  ClearTagsCovering(addr, len);
  std::memcpy(&bytes_[addr - sram_base_], in, len);
}

void Memory::ZeroRange(const Capability& authority, Address addr,
                       Address len) {
  if (len == 0) {
    return;
  }
  const Address granules =
      (AlignUp(addr + len, kGranuleBytes) - AlignDown(addr, kGranuleBytes)) /
      kGranuleBytes;
  HookAndTick(cost::kZeroPerGranule * granules);
  if (access_observer_) {
    access_observer_(access_observer_ctx_, addr, len, /*is_store=*/true);
  }
  CheckDataAccess(authority, addr, len, Permission::kStore);
  if (addr < sram_base_ || static_cast<uint64_t>(addr) + len > sram_top()) {
    throw TrapException(TrapCode::kBoundsViolation, addr, "unmapped range");
  }
  ClearTagsCovering(addr, len);
  std::memset(&bytes_[addr - sram_base_], 0, len);
}

uint8_t* Memory::raw(Address addr) { return &bytes_[addr - sram_base_]; }

Word Memory::RawLoadWord(Address addr) const {
  Word v;
  std::memcpy(&v, &bytes_[addr - sram_base_], 4);
  return v;
}

void Memory::RawStoreWord(Address addr, Word value) {
  std::memcpy(&bytes_[addr - sram_base_], &value, 4);
}

bool Memory::TagAt(Address addr) const {
  if (addr < sram_base_ || addr >= sram_top()) {
    return false;
  }
  return tags_.Test((addr - sram_base_) / kGranuleBytes);
}

// --- Snapshot (DESIGN.md §10) ---------------------------------------------

namespace {
void SerializeBitmapWords(snap::Writer& w, const Bitmap& b) {
  w.U64(b.size());
  for (uint64_t word : b.words()) {
    w.U64(word);
  }
}
}  // namespace

void RevocationMap::SerializeState(snap::Writer& w) const {
  w.U32(base_);
  SerializeBitmapWords(w, bits_);
}

void Memory::SerializeState(snap::Writer& w) const {
  w.U32(sram_base_);
  w.U32(sram_size_);
  w.Bytes(bytes_.data(), bytes_.size());
  SerializeBitmapWords(w, tags_);
  // Shadow capabilities only for tagged granules: untagged slots are stale
  // garbage that must not leak into the blob (byte-stability) and would
  // dominate its size.
  for (size_t g = tags_.FindNextSet(0); g != Bitmap::npos;
       g = tags_.FindNextSet(g + 1)) {
    w.U64(g);
    w.Cap(GranuleCap(g));
  }
  revocation_.SerializeState(w);
  w.U64(access_count_);
  w.U64(cap_loads_);
  w.U64(cap_stores_);
  w.Bool(checks_enabled_);
}

}  // namespace cheriot
