#include "src/health/forensics.h"

#include <algorithm>

#include "src/alloc/allocator.h"
#include "src/cap/capability.h"
#include "src/hw/machine.h"
#include "src/kernel/system.h"
#include "src/snap/wire.h"

namespace cheriot::health {

const char* DispositionName(Disposition d) {
  switch (d) {
    case Disposition::kUnwindNoHandler: return "unwind_no_handler";
    case Disposition::kHandlerUnwind: return "handler_unwind";
    case Disposition::kHandlerInstalledContext:
      return "handler_installed_context";
    case Disposition::kHandlerFaulted: return "handler_faulted";
    case Disposition::kForcedUnwind: return "forced_unwind";
  }
  return "unknown";
}

const char* ProvenanceStateName(HeapProvenance::State s) {
  switch (s) {
    case HeapProvenance::State::kLive: return "live";
    case HeapProvenance::State::kQuarantined: return "quarantined";
    case HeapProvenance::State::kReused: return "reused";
  }
  return "unknown";
}

namespace {

DecodedCap Decode(const char* name, const Capability& c) {
  DecodedCap d;
  d.name = name;
  d.tag = c.tag();
  d.sealed = c.IsSealed();
  d.cursor = c.cursor();
  d.base = c.base();
  d.top = c.top();
  d.perms = c.permissions().ToString();
  d.otype = static_cast<int>(c.otype());
  return d;
}

}  // namespace

std::vector<DecodedCap> DecodeRegisterFile(const RegisterFile& regs) {
  std::vector<DecodedCap> out;
  out.reserve(4 + regs.a.size() + regs.t.size());
  out.push_back(Decode("pcc", regs.pcc));
  out.push_back(Decode("ra", regs.ra));
  out.push_back(Decode("csp", regs.csp));
  out.push_back(Decode("cgp", regs.cgp));
  static const char* kANames[] = {"a0", "a1", "a2", "a3", "a4", "a5"};
  for (size_t i = 0; i < regs.a.size(); ++i) {
    out.push_back(Decode(kANames[i], regs.a[i]));
  }
  static const char* kTNames[] = {"t0", "t1"};
  for (size_t i = 0; i < regs.t.size(); ++i) {
    out.push_back(Decode(kTNames[i], regs.t[i]));
  }
  return out;
}

ForensicsRecorder::ForensicsRecorder(ForensicsOptions options,
                                     SceneHook scene_hook)
    : options_(options),
      scene_hook_(std::move(scene_hook)),
      ring_(options.ring_capacity) {}

void ForensicsRecorder::SerializeOptions(snap::Writer& w) const {
  w.U64(options_.ring_capacity);
  w.U64(options_.reboot_history);
  w.Bool(options_.capture_crash_scene);
  w.U64(options_.scene_limit);
}

ForensicsOptions ForensicsRecorder::ReadOptions(snap::Reader& r) {
  ForensicsOptions o;
  o.ring_capacity = r.U64();
  o.reboot_history = r.U64();
  o.capture_crash_scene = r.Bool();
  o.scene_limit = r.U64();
  return o;
}

void ForensicsRecorder::OnAttach(Machine& machine) {
  clock_ = &machine.clock();
  observers_ = &machine.observers();
}

void ForensicsRecorder::OnBootDone(
    System& system, std::shared_ptr<const obs::NameTable> names) {
  threads_ = &system.threads();
  alloc_ = &system.alloc();
  names_ = std::move(names);
}

void ForensicsRecorder::OnCompartmentCall(const GuestThread& t, int caller,
                                          int export_index) {
  thread_hwm_ = std::max(thread_hwm_, static_cast<size_t>(t.id) + 1);
}

CrashRecord ForensicsRecorder::Capture(const obs::TrapEvent& e) const {
  CrashRecord r;
  r.thread = static_cast<int16_t>(e.thread.id);
  r.compartment = e.compartment;
  r.cause = e.cause;
  r.fault_address = e.fault_address;
  r.regs = DecodeRegisterFile(e.regs);
  r.trusted_depth = e.thread.frame_depth;
  if (const Allocator::AllocSite* site =
          alloc_->ProvenanceFor(e.fault_address)) {
    HeapProvenance& p = r.provenance;
    p.known = true;
    p.site_id = site->site_id;
    p.compartment = site->compartment;
    p.seq = site->seq;
    p.allocated_at = site->allocated_at;
    p.size = site->size;
    p.quota = site->quota;
    // Allocator::SiteState and HeapProvenance::State share enumerator values
    // (live=0, quarantined=1, reused=2).
    p.state = static_cast<HeapProvenance::State>(site->state);
    p.freed_by = site->freed_by;
    p.freed_at = site->freed_at;
  }
  return r;
}

void ForensicsRecorder::OnTrap(const obs::TrapEvent& e) {
  pending_[e.thread.id].push_back(Capture(e));
}

void ForensicsRecorder::OnTrapDisposition(const obs::TrapEvent& e,
                                          obs::Disposition d) {
  CrashRecord r;
  if (d == obs::Disposition::kForcedUnwind) {
    r = Capture(e);
  } else {
    std::vector<CrashRecord>& pending = pending_[e.thread.id];
    r = std::move(pending.back());
    pending.pop_back();
  }
  r.disposition = d;
  const uint64_t seq = Record(std::move(r));
  for (obs::Observer* o : *observers_) {
    o->OnCrashRecord(e, seq);
  }
}

void ForensicsRecorder::OnQuotaDenied(const obs::HeapEvent& e) {
  // Attributed to the compartment that *asked* for memory, not the alloc
  // service the heap_allocate export runs in — that is what the
  // quota-exhaustion detector keys on.
  ++quota_exhaustions_;
  ++quota_by_compartment_[e.attributed];
}

void ForensicsRecorder::OnMicroReboot(int compartment, Cycles at) {
  // Reboot-loop detection keys off the guest-cycle timestamps of the last N
  // micro-reboots per compartment.
  ++total_reboots_;
  auto& history = reboots_[compartment];
  history.push_back(at);
  while (history.size() > options_.reboot_history) {
    history.pop_front();
  }
}

uint64_t ForensicsRecorder::Record(CrashRecord record) {
  record.seq = next_seq_++;
  record.at = now();
  record.call_stack =
      (*threads_)[static_cast<size_t>(record.thread)].compartment_stack;
  if (options_.capture_crash_scene && scene_hook_) {
    record.scene = scene_hook_();
  }
  ++recorded_;
  ++by_cause_[static_cast<int>(record.cause)];
  ++by_compartment_[record.compartment];
  ++by_disposition_[static_cast<int>(record.disposition)];
  if (record.disposition == Disposition::kForcedUnwind) {
    ++forced_unwinds_;
  }
  if (record.provenance.known &&
      record.provenance.state != HeapProvenance::State::kLive) {
    ++use_after_free_;
  }
  const uint64_t seq = record.seq;
  const bool has_scene = !record.scene.empty();
  CrashRecord* slot = ring_.Push();
  if (slot == nullptr) {
    return seq;
  }
  *slot = std::move(record);
  // Bounded scene retention: only the scene_limit most recent records keep
  // their (large) scene blob; the structured record itself always stays.
  if (has_scene) {
    scene_seqs_.push_back(seq);
    while (scene_seqs_.size() > options_.scene_limit) {
      const uint64_t old = scene_seqs_.front();
      scene_seqs_.pop_front();
      for (size_t i = 0; i < ring_.size(); ++i) {
        CrashRecord& rec = ring_[i];
        if (rec.seq == old) {
          rec.scene.clear();
          rec.scene.shrink_to_fit();
          break;
        }
      }
    }
  }
  return seq;
}

std::string ForensicsRecorder::CompartmentName(int id) const {
  // Crash records name real compartments only; no pseudo-context names.
  return id < 0 ? "compartment" + std::to_string(id)
                : names_->Compartment(id);
}

std::string ForensicsRecorder::ThreadName(int id) const {
  return names_->Thread(id);
}

void ForensicsRecorder::SerializeState(snap::Writer& w) const {
  w.U64(recorded_);
  w.U64(ring_.dropped());
  w.U64(next_seq_);
  w.U32(static_cast<uint32_t>(ring_.size()));
  for (size_t i = 0; i < ring_.size(); ++i) {
    const CrashRecord& rec = ring_[i];
    w.U64(rec.seq);
    w.U64(rec.at);
    w.U16(static_cast<uint16_t>(rec.thread));
    w.I32(rec.compartment);
    w.U8(static_cast<uint8_t>(rec.cause));
    w.U32(rec.fault_address);
    w.U8(static_cast<uint8_t>(rec.disposition));
    w.U32(static_cast<uint32_t>(rec.regs.size()));
    for (const DecodedCap& c : rec.regs) {
      w.Str(c.name);
      w.Bool(c.tag);
      w.Bool(c.sealed);
      w.U32(c.cursor);
      w.U32(c.base);
      w.U32(c.top);
      w.Str(c.perms);
      w.I32(c.otype);
    }
    w.U32(static_cast<uint32_t>(rec.call_stack.size()));
    for (int c : rec.call_stack) {
      w.I32(c);
    }
    w.U32(rec.trusted_depth);
    const HeapProvenance& p = rec.provenance;
    w.Bool(p.known);
    w.U32(p.site_id);
    w.I32(p.compartment);
    w.U64(p.seq);
    w.U64(p.allocated_at);
    w.U32(p.size);
    w.U32(p.quota);
    w.U8(static_cast<uint8_t>(p.state));
    w.I32(p.freed_by);
    w.U64(p.freed_at);
    // Scene blobs are themselves serialized machine states; including them
    // makes the snapshot verify double as a scene-determinism check.
    w.Blob(rec.scene);
  }
  auto put_map = [&w](const std::map<int, uint64_t>& m) {
    w.U32(static_cast<uint32_t>(m.size()));
    for (const auto& [k, v] : m) {
      w.I32(k);
      w.U64(v);
    }
  };
  put_map(by_cause_);
  put_map(by_compartment_);
  put_map(by_disposition_);
  w.U64(forced_unwinds_);
  w.U64(use_after_free_);
  w.U64(quota_exhaustions_);
  put_map(quota_by_compartment_);
  w.U32(static_cast<uint32_t>(reboots_.size()));
  for (const auto& [comp, times] : reboots_) {
    w.I32(comp);
    w.U32(static_cast<uint32_t>(times.size()));
    for (Cycles t : times) {
      w.U64(t);
    }
  }
  w.U64(total_reboots_);
  obs::SerializeThreadStacks(w, threads_, thread_hwm_);
}

}  // namespace cheriot::health
