#include "src/alloc/allocator.h"

#include <algorithm>

#include "src/base/costs.h"
#include "src/base/log.h"
#include "src/kernel/system.h"
#include "src/runtime/compartment_ctx.h"
#include "src/snap/wire.h"

namespace cheriot {

void Allocator::Init() {
  BootInfo& boot = system_->boot();
  heap_root_ = boot.heap_root;
  heap_base_ = AlignUp(boot.heap_base, kGranuleBytes);
  heap_size_ = boot.heap_size - (heap_base_ - boot.heap_base);
  heap_size_ = AlignDown(heap_size_, kGranuleBytes);

  Header first;
  first.size = heap_size_;
  first.prev_size = 0;
  first.state = ChunkState::kFree;
  WriteHeader(heap_base_, first);
  free_chunks_.insert(heap_base_);
}

int Allocator::ServiceCompartmentId() {
  if (service_compartment_ == -2) {
    CompartmentRuntime* rt = system_->boot().FindCompartment("alloc");
    service_compartment_ = rt ? rt->id : -1;
  }
  return service_compartment_;
}

int Allocator::AttributedCompartment() {
  const int thread = system_->current_thread_id();
  if (thread < 0) {
    return -1;
  }
  const GuestThread& t = system_->threads()[thread];
  const auto& stack = t.compartment_stack;
  if (stack.size() >= 2 && stack.back() == ServiceCompartmentId()) {
    return stack[stack.size() - 2];
  }
  return t.current_compartment;
}

Allocator::Header Allocator::ReadHeader(Address chunk) const {
  Memory& mem = system_->machine().memory();
  Header h;
  h.size = mem.LoadWord(heap_root_, chunk);
  h.prev_size = mem.LoadWord(heap_root_, chunk + 4);
  const Word packed = mem.LoadWord(heap_root_, chunk + 8);
  h.state = static_cast<ChunkState>(packed & 0xFF);
  h.quota = static_cast<uint8_t>((packed >> 8) & 0xFF);
  h.claims = static_cast<uint8_t>((packed >> 16) & 0xFF);
  h.flags = static_cast<uint8_t>((packed >> 24) & 0xFF);
  h.epoch = mem.LoadWord(heap_root_, chunk + 12);
  return h;
}

void Allocator::WriteHeader(Address chunk, const Header& h) {
  Memory& mem = system_->machine().memory();
  mem.StoreWord(heap_root_, chunk, h.size);
  mem.StoreWord(heap_root_, chunk + 4, h.prev_size);
  mem.StoreWord(heap_root_, chunk + 8,
                static_cast<Word>(h.state) | (static_cast<Word>(h.quota) << 8) |
                    (static_cast<Word>(h.claims) << 16) |
                    (static_cast<Word>(h.flags) << 24));
  mem.StoreWord(heap_root_, chunk + 12, h.epoch);
}

Capability Allocator::UnsealAllocCap(const Capability& alloc_cap) const {
  Capability unsealed =
      alloc_cap.UnsealedWith(system_->boot().allocator_seal_key);
  if (!unsealed.tag() || unsealed.length() < 16) {
    return Capability();
  }
  Memory& mem = system_->machine().memory();
  if (mem.LoadWord(unsealed, unsealed.base()) != 0x414C4F43u) {  // 'ALOC'
    return Capability();
  }
  return unsealed;
}

Word Allocator::QuotaLimit(const Capability& q) const {
  return system_->machine().memory().LoadWord(q, q.base() + 4);
}
Word Allocator::QuotaUsed(const Capability& q) const {
  return system_->machine().memory().LoadWord(q, q.base() + 8);
}
void Allocator::SetQuotaUsed(const Capability& q, Word used) {
  system_->machine().memory().StoreWord(q, q.base() + 8, used);
}
uint32_t Allocator::QuotaId(const Capability& q) const {
  return system_->machine().memory().LoadWord(q, q.base() + 12);
}

Capability Allocator::MakeHeapCap(Address payload, Word size) const {
  // Heap capabilities are global, deeply loadable/mutable (the holder can
  // always de-privilege before sharing, §3.2.5).
  return heap_root_.WithBounds(payload, size)
      .WithPermissions(PermissionSet::ReadWriteGlobal());
}

Capability Allocator::AllocateInternal(CompartmentCtx& ctx,
                                       const Capability& unsealed_q, Word size,
                                       Word timeout_cycles) {
  Machine& m = system_->machine();
  if (size == 0 || size > heap_size_) {
    return StatusCap(Status::kInvalidArgument);
  }
  const Word payload_size = AlignUp(std::max<Word>(size, 8), kGranuleBytes);
  const Word need = payload_size + kHeaderBytes;

  const Word limit = QuotaLimit(unsealed_q);
  const Word used = QuotaUsed(unsealed_q);
  if (used + need > limit) {
    ++quota_denials_;
    if (!m.observers().empty()) {
      // RawLoadWord, not QuotaId(): observer paths must not add costed
      // accesses or the cycle model would move when observers attach.
      const obs::HeapEvent e{system_->current_thread_id(), ctx.compartment(),
                             AttributedCompartment(),
                             m.memory().RawLoadWord(unsealed_q.base() + 12),
                             need};
      for (obs::Observer* o : m.observers()) {
        o->OnQuotaDenied(e);
      }
    }
    return StatusCap(Status::kNoMemory);
  }

  const Cycles deadline =
      timeout_cycles == ~0u ? ~0ull : system_->Now() + timeout_cycles;

  for (;;) {
    ProcessQuarantine(kQuarantineDequeuePerOp);
    m.Tick(cost::kAllocBookkeeping);

    // First fit over the free list.
    Address fit = 0;
    bool found = false;
    for (Address candidate : free_chunks_) {
      if (ReadHeader(candidate).size >= need) {
        fit = candidate;
        found = true;
        break;
      }
    }
    if (found) {
      const Address chunk = fit;
      Header h = ReadHeader(chunk);
      free_chunks_.erase(chunk);
      // Split if the remainder can hold a viable chunk.
      if (h.size >= need + kMinChunk) {
        const Address rest = chunk + need;
        Header rest_h;
        rest_h.size = h.size - need;
        rest_h.prev_size = need;
        rest_h.state = ChunkState::kFree;
        WriteHeader(rest, rest_h);
        free_chunks_.insert(rest);
        // Fix the next-next chunk's prev_size.
        const Address after = rest + rest_h.size;
        if (after < heap_base_ + heap_size_) {
          Header after_h = ReadHeader(after);
          after_h.prev_size = rest_h.size;
          WriteHeader(after, after_h);
        }
        h.size = need;
      }
      h.state = ChunkState::kUsed;
      h.quota = static_cast<uint8_t>(QuotaId(unsealed_q));
      h.claims = 0;
      h.epoch = 0;
      WriteHeader(chunk, h);
      used_.insert(chunk);
      // Allocation-site provenance (native only; no guest cycles).
      AllocSite site;
      site.compartment = AttributedCompartment();
      site.seq = ++site_seq_;
      site.site_id =
          (static_cast<uint32_t>(site.compartment & 0xFFF) << 20) |
          static_cast<uint32_t>(site.seq & 0xFFFFF);
      site.allocated_at = system_->Now();
      site.payload = PayloadOf(chunk);
      site.size = h.size - kHeaderBytes;
      site.quota = h.quota;
      sites_[chunk] = site;
      live_native_ += h.size;
      SetQuotaUsed(unsealed_q, QuotaUsed(unsealed_q) + h.size);
      if (!m.observers().empty()) {
        const obs::HeapEvent e{system_->current_thread_id(),
                               ctx.compartment(), AttributedCompartment(),
                               h.quota, h.size};
        for (obs::Observer* o : m.observers()) {
          o->OnHeapAlloc(e);
        }
      }
      // Freed memory was zeroed in free(); exclusive allocator access
      // guarantees the zeros persisted (§3.1.3 "Zeroing").
      return MakeHeapCap(PayloadOf(chunk), payload_size);
    }

    // No fit. If quarantine holds memory, wait for the revocation pass and
    // retry; otherwise the heap is simply exhausted.
    if (quarantine_.empty() || system_->Now() >= deadline) {
      return StatusCap(quarantine_.empty() ? Status::kNoMemory
                                           : Status::kTimedOut);
    }
    if (!system_->WaitForRevokerPass(deadline)) {
      return StatusCap(Status::kTimedOut);
    }
    // Drain everything eligible after a completed pass.
    ProcessQuarantine(static_cast<int>(quarantine_.size()));
  }
}

Capability Allocator::HeapAllocate(CompartmentCtx& ctx,
                                   const Capability& alloc_cap, Word size,
                                   Word timeout_cycles) {
  const Capability q = UnsealAllocCap(alloc_cap);
  if (!q.tag()) {
    return StatusCap(Status::kPermissionDenied);
  }
  return AllocateInternal(ctx, q, size, timeout_cycles);
}

void Allocator::ReleaseChunk(Address chunk, const Header& header) {
  Machine& m = system_->machine();
  Memory& mem = m.memory();
  Header h = header;
  const Address payload = PayloadOf(chunk);
  const Word payload_size = h.size - kHeaderBytes;
  // Erase the object (§3.1.3 "Zeroing") and mark every granule revoked: the
  // load filter makes dangling capabilities unusable as soon as free returns.
  mem.ZeroRange(heap_root_, payload, payload_size);
  mem.revocation().SetRange(payload, payload_size, true);
  // Bitmap painting cost: one word store per 32 granules.
  m.Tick(cost::kStoreWord * (payload_size / kGranuleBytes / 32 + 1));
  h.state = ChunkState::kQuarantined;
  h.epoch = system_->machine().revoker().SafeEpochForFreeNow();
  WriteHeader(chunk, h);
  used_.erase(chunk);
  quarantine_.push_back(chunk);
  live_native_ -= std::min(live_native_, header.size);
  quarantined_native_ += header.size;
  if (auto site_it = sites_.find(chunk); site_it != sites_.end()) {
    site_it->second.state = SiteState::kQuarantined;
    // Attribute the free to the alloc service's caller (heap_free is a
    // cross-compartment call), falling back to the executing compartment
    // for kernel/micro-reboot driven releases.
    site_it->second.freed_by = AttributedCompartment();
    site_it->second.freed_at = system_->Now();
  }
  if (!m.observers().empty()) {
    // ReleaseChunk is reached from heap_free, heap_free_all, micro-reboot
    // and deferred ephemeral-claim releases; the executing compartment is
    // whichever one the current thread is in (or -1 from the kernel).
    const int thread = system_->current_thread_id();
    const int comp =
        thread >= 0 ? system_->threads()[thread].current_compartment : -1;
    const obs::HeapEvent e{thread, comp, AttributedCompartment(),
                           header.quota, header.size};
    for (obs::Observer* o : m.observers()) {
      o->OnHeapFree(e);
    }
  }
  system_->machine().revoker().StartSweep();
}

Status Allocator::HeapFree(CompartmentCtx& ctx, const Capability& alloc_cap,
                           const Capability& ptr) {
  Machine& m = system_->machine();
  const Capability q = UnsealAllocCap(alloc_cap);
  if (!q.tag()) {
    return Status::kPermissionDenied;
  }
  if (!ptr.tag() || ptr.IsSealed()) {
    return Status::kInvalidArgument;
  }
  const Address chunk = ptr.base() - kHeaderBytes;
  if (!used_.count(chunk)) {
    return Status::kInvalidArgument;
  }
  Header h = ReadHeader(chunk);
  const uint32_t qid = QuotaId(q);

  auto claims_it = claims_.find(chunk);
  const bool owner = (h.quota == qid) && !(h.flags & 1);
  const bool claimant =
      claims_it != claims_.end() && claims_it->second.count(qid) > 0;
  if (!owner && !claimant) {
    // heap_free requires an allocation capability matching the one used to
    // allocate (or claim) the object (§3.2.2). A second owner-free is a
    // double free.
    return (h.quota == qid) ? Status::kInvalidArgument
                            : Status::kPermissionDenied;
  }

  if (claimant) {
    // Release one claim held under this quota (§3.2.5 TOCTOU defence);
    // freeing with the capability used to claim releases the claim first.
    m.Tick(cost::kClaimWork);
    if (--claims_it->second[qid] == 0) {
      claims_it->second.erase(qid);
    }
    if (claims_it->second.empty()) {
      claims_.erase(claims_it);
    }
    SetQuotaUsed(q, QuotaUsed(q) - h.size);
    h.claims--;
  } else {
    h.flags |= 1;  // owner reference released
    SetQuotaUsed(q, QuotaUsed(q) - h.size);
  }
  WriteHeader(chunk, h);

  // The memory is released only once the owner freed it and all claims are
  // gone (§3.2.2).
  if (!(h.flags & 1) || h.claims > 0) {
    return Status::kOk;
  }
  // Ephemeral claims defer the release until the claiming thread's next
  // compartment call (§3.2.5).
  if (system_->switcher().IsEphemerallyClaimed(PayloadOf(chunk))) {
    pending_free_.insert(chunk);
    return Status::kOk;
  }
  pending_free_.erase(chunk);
  ReleaseChunk(chunk, h);
  ProcessQuarantine(kQuarantineDequeuePerOp);
  m.Tick(cost::kAllocBookkeeping);
  return Status::kOk;
}

void Allocator::RetryPendingFrees() {
  if (pending_free_.empty()) {
    return;
  }
  std::vector<Address> ready;
  for (Address chunk : pending_free_) {
    if (!system_->switcher().IsEphemerallyClaimed(PayloadOf(chunk))) {
      ready.push_back(chunk);
    }
  }
  for (Address chunk : ready) {
    pending_free_.erase(chunk);
    ReleaseChunk(chunk, ReadHeader(chunk));
  }
}

Status Allocator::HeapClaim(CompartmentCtx& ctx, const Capability& alloc_cap,
                            const Capability& ptr) {
  // A claim prevents the allocator from freeing the object until the claim
  // is released; it requires a quota that can account for the object
  // (§3.2.5).
  system_->machine().Tick(cost::kClaimWork);
  const Capability q = UnsealAllocCap(alloc_cap);
  if (!q.tag()) {
    return Status::kPermissionDenied;
  }
  if (!ptr.tag() || ptr.IsSealed()) {
    return Status::kInvalidArgument;
  }
  const Address chunk = ptr.base() - kHeaderBytes;
  if (!used_.count(chunk)) {
    return Status::kInvalidArgument;
  }
  Header h = ReadHeader(chunk);
  const Word limit = QuotaLimit(q);
  if (QuotaUsed(q) + h.size > limit) {
    return Status::kNoMemory;
  }
  SetQuotaUsed(q, QuotaUsed(q) + h.size);
  claims_[chunk][QuotaId(q)]++;
  h.claims++;
  WriteHeader(chunk, h);
  return Status::kOk;
}

bool Allocator::HeapCanFree(CompartmentCtx& ctx, const Capability& alloc_cap,
                            const Capability& ptr) {
  const Capability q = UnsealAllocCap(alloc_cap);
  if (!q.tag() || !ptr.tag() || ptr.IsSealed()) {
    return false;
  }
  const Address chunk = ptr.base() - kHeaderBytes;
  if (!used_.count(chunk)) {
    return false;
  }
  const Header h = ReadHeader(chunk);
  return h.quota == QuotaId(q);
}

Word Allocator::QuotaRemaining(CompartmentCtx& ctx,
                               const Capability& alloc_cap) {
  const Capability q = UnsealAllocCap(alloc_cap);
  if (!q.tag()) {
    return 0;
  }
  const Word limit = QuotaLimit(q);
  const Word used = QuotaUsed(q);
  return used > limit ? 0 : limit - used;
}

Word Allocator::HeapFreeAll(CompartmentCtx& ctx, const Capability& alloc_cap) {
  const Capability q = UnsealAllocCap(alloc_cap);
  if (!q.tag()) {
    return 0;
  }
  const Word released = FreeAllForQuota(QuotaId(q));
  // All owned allocations and claims are gone: the quota is whole again.
  SetQuotaUsed(q, 0);
  return released;
}

Word Allocator::FreeAllForQuota(uint32_t quota_id) {
  Word released = 0;
  // Drop every claim this quota holds on other quotas' chunks.
  for (auto it = claims_.begin(); it != claims_.end();) {
    auto cit = it->second.find(quota_id);
    if (cit != it->second.end()) {
      Header h = ReadHeader(it->first);
      h.claims -= static_cast<uint8_t>(cit->second);
      it->second.erase(cit);
      WriteHeader(it->first, h);
      if ((h.flags & 1) && h.claims == 0 && used_.count(it->first)) {
        ReleaseChunk(it->first, h);
      }
    }
    it = it->second.empty() ? claims_.erase(it) : std::next(it);
  }
  std::vector<Address> victims;
  for (Address chunk : used_) {
    const Header h = ReadHeader(chunk);
    if (h.quota == quota_id && !(h.flags & 1)) {
      victims.push_back(chunk);
    }
  }
  for (Address chunk : victims) {
    Header h = ReadHeader(chunk);
    // Drop all claims held by this quota, then the owner reference.
    auto it = claims_.find(chunk);
    if (it != claims_.end()) {
      auto cit = it->second.find(quota_id);
      if (cit != it->second.end()) {
        h.claims -= static_cast<uint8_t>(cit->second);
        it->second.erase(cit);
      }
      if (it->second.empty()) {
        claims_.erase(it);
      }
    }
    h.flags |= 1;
    WriteHeader(chunk, h);
    if (h.claims == 0) {
      released += h.size;
      ReleaseChunk(chunk, h);
    }
  }
  ProcessQuarantine(kQuarantineDequeuePerOp);
  return released;
}

void Allocator::ProcessQuarantine(int max_items) {
  const uint32_t epoch = system_->machine().revoker().epoch();
  for (int i = 0; i < max_items && !quarantine_.empty(); ++i) {
    const Address chunk = quarantine_.front();
    const Header h = ReadHeader(chunk);
    if (h.epoch > epoch) {
      break;  // not yet swept; FIFO order means nothing behind is ready
    }
    quarantine_.pop_front();
    quarantined_native_ -= std::min(quarantined_native_, h.size);
    if (auto site_it = sites_.find(chunk); site_it != sites_.end()) {
      // The chunk rejoins the free list: retire its site (bounded history)
      // so a late fault through a stale capability can still be attributed.
      site_it->second.state = SiteState::kReused;
      retired_.push_back(site_it->second);
      while (retired_.size() > kRetiredSites) {
        retired_.pop_front();
      }
      sites_.erase(site_it);
    }
    // Clear the revocation bits: the sweep guarantees no stale capabilities
    // survive anywhere in memory.
    system_->machine().memory().revocation().SetRange(
        PayloadOf(chunk), h.size - kHeaderBytes, false);
    system_->machine().Tick(
        cost::kStoreWord * ((h.size - kHeaderBytes) / kGranuleBytes / 32 + 1));
    CoalesceAndFree(chunk);
  }
}

void Allocator::CoalesceAndFree(Address chunk) {
  Header h = ReadHeader(chunk);
  h.state = ChunkState::kFree;
  h.quota = 0;
  h.flags = 0;
  h.epoch = 0;

  // Merge with the next chunk if free.
  Address next = chunk + h.size;
  if (next < heap_base_ + heap_size_) {
    Header nh = ReadHeader(next);
    if (nh.state == ChunkState::kFree && free_chunks_.count(next)) {
      free_chunks_.erase(next);
      h.size += nh.size;
    }
  }
  // Merge with the previous chunk if free.
  if (h.prev_size != 0) {
    const Address prev = chunk - h.prev_size;
    Header ph = ReadHeader(prev);
    if (ph.state == ChunkState::kFree && free_chunks_.count(prev)) {
      free_chunks_.erase(prev);
      ph.size += h.size;
      chunk = prev;
      h = ph;
      h.state = ChunkState::kFree;
    }
  }
  WriteHeader(chunk, h);
  // Fix the following chunk's prev_size.
  const Address after = chunk + h.size;
  if (after < heap_base_ + heap_size_) {
    Header ah = ReadHeader(after);
    ah.prev_size = h.size;
    WriteHeader(after, ah);
  }
  free_chunks_.insert(chunk);
}

// --- Token API backing (§3.2.1) ---

Capability Allocator::TokenKeyNew(CompartmentCtx& ctx) {
  system_->machine().Tick(cost::kNewSealingKey);
  const uint32_t id = system_->token().NextTypeId();
  return Capability::MakeSealingAuthority(id, 1);
}

Capability Allocator::TokenObjNew(CompartmentCtx& ctx,
                                  const Capability& alloc_cap,
                                  const Capability& key, Word size) {
  if (!TokenService::ValidKey(key, Permission::kSeal)) {
    return StatusCap(Status::kPermissionDenied);
  }
  const Capability q = UnsealAllocCap(alloc_cap);
  if (!q.tag()) {
    return StatusCap(Status::kPermissionDenied);
  }
  system_->machine().Tick(cost::kSealedAllocWork);
  const Capability raw = AllocateInternal(ctx, q, size + 8, ~0u);
  if (!raw.tag()) {
    return raw;  // status propagated
  }
  Memory& mem = system_->machine().memory();
  mem.StoreWord(heap_root_, raw.base(), key.cursor());  // virtual type header
  mem.StoreWord(heap_root_, raw.base() + 4, size);
  for (obs::Observer* o : system_->machine().observers()) {
    o->OnSealingUse(AttributedCompartment(), key.cursor(), /*unseal=*/false);
  }
  return system_->token().SealWithHardwareType(raw);
}

Status Allocator::TokenObjDestroy(CompartmentCtx& ctx,
                                  const Capability& alloc_cap,
                                  const Capability& key,
                                  const Capability& sealed_obj) {
  if (!TokenService::ValidKey(key, Permission::kUnseal)) {
    return Status::kPermissionDenied;
  }
  const Capability unsealed = system_->token().UnsealHardwareType(sealed_obj);
  if (!unsealed.tag()) {
    return Status::kInvalidArgument;
  }
  Memory& mem = system_->machine().memory();
  const Word vtype = mem.LoadWord(heap_root_, unsealed.base());
  if (vtype != key.cursor()) {
    return Status::kPermissionDenied;
  }
  for (obs::Observer* o : system_->machine().observers()) {
    o->OnSealingUse(AttributedCompartment(), key.cursor(), /*unseal=*/true);
  }
  // The sealed allocation requires both the matching allocation capability
  // and the sealing key to deallocate (§3.2.3).
  return HeapFree(ctx, alloc_cap, unsealed);
}

// --- Introspection ---

Word Allocator::FreeBytes() const {
  Word total = 0;
  for (Address chunk : free_chunks_) {
    total += ReadHeader(chunk).size;
  }
  return total;
}

Word Allocator::QuarantinedBytes() const {
  Word total = 0;
  for (Address chunk : quarantine_) {
    total += ReadHeader(chunk).size;
  }
  return total;
}

Word Allocator::LargestFreeChunk() const {
  Word best = 0;
  for (Address chunk : free_chunks_) {
    best = std::max(best, ReadHeader(chunk).size);
  }
  return best;
}

const Allocator::AllocSite* Allocator::ProvenanceFor(Address addr) const {
  if (!sites_.empty()) {
    auto it = sites_.upper_bound(addr);
    if (it != sites_.begin()) {
      const AllocSite& s = std::prev(it)->second;
      if (addr >= s.payload && addr < s.payload + s.size) {
        return &s;
      }
    }
  }
  for (auto rit = retired_.rbegin(); rit != retired_.rend(); ++rit) {
    if (addr >= rit->payload && addr < rit->payload + rit->size) {
      return &*rit;
    }
  }
  return nullptr;
}

// --- Snapshot (DESIGN.md §10) ---------------------------------------------

namespace {
void SerializeSite(cheriot::snap::Writer& w, const Allocator::AllocSite& s) {
  w.U32(s.site_id);
  w.I32(s.compartment);
  w.U64(s.seq);
  w.U64(s.allocated_at);
  w.U32(s.payload);
  w.U32(s.size);
  w.U8(s.quota);
  w.U8(static_cast<uint8_t>(s.state));
  w.I32(s.freed_by);
  w.U64(s.freed_at);
}
template <typename Set>
void SerializeAddressSet(cheriot::snap::Writer& w, const Set& set) {
  w.U32(static_cast<uint32_t>(set.size()));
  for (Address a : set) {
    w.U32(a);
  }
}
}  // namespace

void Allocator::SerializeState(snap::Writer& w) const {
  SerializeAddressSet(w, free_chunks_);
  SerializeAddressSet(w, used_);
  w.U32(static_cast<uint32_t>(quarantine_.size()));
  for (Address a : quarantine_) {
    w.U32(a);
  }
  w.U32(static_cast<uint32_t>(claims_.size()));
  for (const auto& [payload, per_quota] : claims_) {
    w.U32(payload);
    w.U32(static_cast<uint32_t>(per_quota.size()));
    for (const auto& [quota, count] : per_quota) {
      w.U32(quota);
      w.U32(count);
    }
  }
  SerializeAddressSet(w, pending_free_);
  w.U32(static_cast<uint32_t>(sites_.size()));
  for (const auto& [chunk, site] : sites_) {
    w.U32(chunk);
    SerializeSite(w, site);
  }
  w.U32(static_cast<uint32_t>(retired_.size()));
  for (const AllocSite& site : retired_) {
    SerializeSite(w, site);
  }
  w.U64(site_seq_);
  w.I32(service_compartment_);
  w.U32(live_native_);
  w.U32(quarantined_native_);
}

}  // namespace cheriot
