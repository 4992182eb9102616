#include "src/health/forensics.h"

#include "src/cap/capability.h"
#include "src/hw/machine.h"
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

ForensicsRecorder::ForensicsRecorder(ForensicsOptions options)
    : options_(options) {}

void ForensicsRecorder::SetCompartmentNames(std::vector<std::string> names) {
  compartment_names_ = std::move(names);
}
void ForensicsRecorder::SetThreadNames(std::vector<std::string> names) {
  thread_names_ = std::move(names);
}

void ForensicsRecorder::OnCompartmentCall(int thread, int callee) {
  if (thread < 0) {
    return;
  }
  if (static_cast<size_t>(thread) >= thread_stacks_.size()) {
    thread_stacks_.resize(static_cast<size_t>(thread) + 1);
  }
  thread_stacks_[static_cast<size_t>(thread)].push_back(callee);
}

void ForensicsRecorder::OnCompartmentReturn(int thread) {
  if (thread < 0 || static_cast<size_t>(thread) >= thread_stacks_.size()) {
    return;
  }
  auto& stack = thread_stacks_[static_cast<size_t>(thread)];
  if (!stack.empty()) {
    stack.pop_back();
  }
}

void ForensicsRecorder::OnQuotaExhausted(int thread, int compartment,
                                         uint32_t quota, Word bytes) {
  (void)thread;
  (void)quota;
  (void)bytes;
  ++quota_exhaustions_;
  ++quota_by_compartment_[compartment];
}

void ForensicsRecorder::OnMicroReboot(int compartment, Cycles at) {
  ++total_reboots_;
  auto& history = reboots_[compartment];
  history.push_back(at);
  while (history.size() > options_.reboot_history) {
    history.pop_front();
  }
}

const std::vector<int>& ForensicsRecorder::CallStack(int thread) {
  if (thread < 0 || static_cast<size_t>(thread) >= thread_stacks_.size()) {
    static const std::vector<int> kEmpty;
    return kEmpty;
  }
  return thread_stacks_[static_cast<size_t>(thread)];
}

uint64_t ForensicsRecorder::Record(CrashRecord record) {
  record.seq = next_seq_++;
  record.at = now();
  record.call_stack = CallStack(record.thread);
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
  if (count_ == ring_.size()) {
    // Grows on demand up to its capacity, like the trace ring; once full,
    // the oldest record makes room.
    if (ring_.size() < options_.ring_capacity) {
      ring_.emplace_back();
    } else if (ring_.empty()) {
      ++dropped_;
      return seq;
    } else {
      start_ = (start_ + 1) % ring_.size();
      --count_;
      ++dropped_;
    }
  }
  ring_[(start_ + count_) % ring_.size()] = std::move(record);
  ++count_;
  // Bounded scene retention: only the scene_limit most recent records keep
  // their (large) scene blob; the structured record itself always stays.
  if (has_scene) {
    scene_seqs_.push_back(seq);
    while (scene_seqs_.size() > options_.scene_limit) {
      const uint64_t old = scene_seqs_.front();
      scene_seqs_.pop_front();
      for (size_t i = 0; i < count_; ++i) {
        CrashRecord& rec = ring_[(start_ + i) % ring_.size()];
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

std::vector<CrashRecord> ForensicsRecorder::Records() const {
  std::vector<CrashRecord> out;
  out.reserve(count_);
  for (size_t i = 0; i < count_; ++i) {
    out.push_back(ring_[(start_ + i) % ring_.size()]);
  }
  return out;
}

std::string ForensicsRecorder::CompartmentName(int id) const {
  if (id >= 0 && static_cast<size_t>(id) < compartment_names_.size()) {
    return compartment_names_[static_cast<size_t>(id)];
  }
  return "compartment" + std::to_string(id);
}

std::string ForensicsRecorder::ThreadName(int id) const {
  if (id >= 0 && static_cast<size_t>(id) < thread_names_.size()) {
    return thread_names_[static_cast<size_t>(id)];
  }
  return "thread" + std::to_string(id);
}

void ForensicsRecorder::SerializeState(snap::Writer& w) const {
  w.U64(recorded_);
  w.U64(dropped_);
  w.U64(next_seq_);
  w.U32(static_cast<uint32_t>(count_));
  for (size_t i = 0; i < count_; ++i) {
    const CrashRecord& rec = ring_[(start_ + i) % ring_.size()];
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
  w.U32(static_cast<uint32_t>(thread_stacks_.size()));
  for (const auto& stack : thread_stacks_) {
    w.U32(static_cast<uint32_t>(stack.size()));
    for (int c : stack) {
      w.I32(c);
    }
  }
}

void Attach(Machine& machine, ForensicsRecorder* recorder) {
  recorder->SetClock(&machine.clock());
  machine.set_forensics(recorder);
}

}  // namespace cheriot::health
