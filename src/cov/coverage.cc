#include "src/cov/coverage.h"

#include <algorithm>

#include "src/hw/machine.h"
#include "src/kernel/system.h"
#include "src/mem/memory.h"
#include "src/snap/wire.h"

namespace cheriot::cov {

namespace {

// Lowercase hex of a granule bitmap, 16 chars per 64-granule word, in word
// order. Byte-stable and trivially OR-able for the fleet-merged export.
std::string BitmapHex(const std::vector<uint64_t>& words) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  out.reserve(words.size() * 16);
  for (uint64_t w : words) {
    for (int shift = 60; shift >= 0; shift -= 4) {
      out.push_back(kHex[(w >> shift) & 0xf]);
    }
  }
  return out;
}

}  // namespace

size_t MmioGrantCov::granules_touched() const {
  size_t n = 0;
  for (uint64_t w : touched) {
    n += static_cast<size_t>(__builtin_popcountll(w));
  }
  return n;
}

CovRecorder::CovRecorder(CovOptions options) : options_(options) {}

void CovRecorder::SerializeOptions(snap::Writer& w) const {
  w.Bool(options_.mmio_granules);
}

CovOptions CovRecorder::ReadOptions(snap::Reader& r) {
  CovOptions o;
  o.mmio_granules = r.Bool();
  return o;
}

void CovRecorder::OnAttach(Machine& machine) { clock_ = &machine.clock(); }

void CovRecorder::OnBootDone(System& system,
                             std::shared_ptr<const obs::NameTable> names) {
  threads_ = &system.threads();
  names_ = std::move(names);
  const BootInfo& boot = system.boot();
  const Memory& memory = system.machine().memory();
  // Invert the virtual-type-id table once for sealing-key names.
  std::map<uint32_t, std::string> type_names;
  for (const auto& [name, id] : boot.virtual_type_ids) {
    type_names[id] = name;
  }
  for (size_t ci = 0; ci < boot.compartments.size(); ++ci) {
    const int comp = static_cast<int>(ci);
    for (const ImportBinding& b : boot.compartments[ci].imports) {
      switch (b.kind) {
        case ImportBinding::Kind::kMmio:
          AddMmioGrant(comp, b.qualified_name, b.cap.base(), b.cap.length(),
                       b.cap.permissions().Has(Permission::kStore));
          break;
        case ImportBinding::Kind::kSealedObject:
          // Allocation capabilities are sealed quota headers: magic 'ALOC',
          // then limit and used words, then the quota id.
          if (memory.RawLoadWord(b.cap.base()) == 0x414C4F43) {
            QuotaGrantCov g;
            g.quota_id = memory.RawLoadWord(b.cap.base() + 12);
            g.compartment = comp;
            g.name = b.qualified_name;
            g.limit = memory.RawLoadWord(b.cap.base() + 4);
            quotas_.push_back(std::move(g));
          }
          break;
        case ImportBinding::Kind::kSealingKey: {
          SealingGrantCov g;
          g.compartment = comp;
          g.type_id = b.cap.cursor();
          auto it = type_names.find(g.type_id);
          g.type_name =
              it != type_names.end() ? it->second : b.qualified_name;
          sealing_.push_back(std::move(g));
          break;
        }
        default:
          break;
      }
    }
  }
}

void CovRecorder::AddMmioGrant(int compartment, std::string device,
                               Address base, Address size, bool writeable) {
  MmioGrantCov g;
  g.compartment = compartment;
  g.device = std::move(device);
  g.base = base;
  g.size = size;
  g.writeable = writeable;
  if (options_.mmio_granules) {
    g.touched.assign((g.granules_total() + 63) / 64, 0);
  }
  mmio_.push_back(std::move(g));
}

void CovRecorder::OnContextSwitch(int from_thread, int to_thread) {
  current_thread_ = to_thread;
}

void CovRecorder::OnCompartmentCall(const GuestThread& t, int caller,
                                    int export_index) {
  thread_hwm_ = std::max(thread_hwm_, static_cast<size_t>(t.id) + 1);
  const int callee = t.current_compartment;
  const uint32_t depth = t.frame_depth;
  const Cycles at = now();
  EdgeStats& e = calls_[{caller, callee, export_index}];
  if (e.count == 0) {
    e.first_cycle = at;
  }
  ++e.count;
  e.last_cycle = at;
  e.peak_depth = std::max(e.peak_depth, depth);
  uint32_t& peak = peak_depth_[{callee, export_index}];
  peak = std::max(peak, depth);
  ++calls_recorded_;
}

void CovRecorder::OnLibraryCall(const GuestThread& t, int library,
                                int export_index) {
  const Cycles at = now();
  EdgeStats& e = libs_[{t.current_compartment, library, export_index}];
  if (e.count == 0) {
    e.first_cycle = at;
  }
  ++e.count;
  e.last_cycle = at;
}

int CovRecorder::CurrentCompartment() const {
  if (current_thread_ < 0) {
    return current_thread_ == obs::kContextIdle ? obs::kContextIdle
                                                : obs::kContextBoot;
  }
  const std::vector<int>& stack =
      (*threads_)[static_cast<size_t>(current_thread_)].compartment_stack;
  return stack.empty() ? obs::kContextKernel : stack.back();
}

void CovRecorder::OnMmioAccess(Address addr, Address size, bool is_store) {
  const int comp = CurrentCompartment();
  const Cycles at = now();
  for (MmioGrantCov& g : mmio_) {
    if (g.compartment != comp || addr < g.base || addr >= g.base + g.size) {
      continue;
    }
    if (g.reads + g.writes == 0) {
      g.first_cycle = at;
    }
    g.last_cycle = at;
    if (is_store) {
      ++g.writes;
    } else {
      ++g.reads;
    }
    if (!g.touched.empty()) {
      const Address end = std::min<Address>(addr + size, g.base + g.size);
      for (Address a = AlignDown(addr, kGranuleBytes); a < end;
           a += kGranuleBytes) {
        const size_t bit = (a - g.base) / kGranuleBytes;
        g.touched[bit / 64] |= 1ull << (bit % 64);
      }
    }
    return;
  }
  // No covering grant for the touching compartment: the access went through
  // a delegated capability or a pseudo context. Recorded so the report can
  // surface authority exercised outside the static grant table.
  ++unattributed_mmio_[{comp, AlignDown(addr, kGranuleBytes)}];
}

void CovRecorder::OnSealingUse(int compartment, uint32_t type_id,
                               bool unseal) {
  for (SealingGrantCov& g : sealing_) {
    if (g.compartment == compartment && g.type_id == type_id) {
      if (unseal) {
        ++g.unseals;
      } else {
        ++g.seals;
      }
      return;
    }
  }
}

void CovRecorder::OnHeapAlloc(const obs::HeapEvent& e) {
  for (QuotaGrantCov& g : quotas_) {
    if (g.quota_id != e.quota) {
      continue;
    }
    ++g.allocations;
    g.live_bytes += e.bytes;
    g.peak_live_bytes = std::max(g.peak_live_bytes, g.live_bytes);
    return;
  }
}

void CovRecorder::OnHeapFree(const obs::HeapEvent& e) {
  for (QuotaGrantCov& g : quotas_) {
    if (g.quota_id != e.quota) {
      continue;
    }
    ++g.frees;
    g.live_bytes -= std::min(g.live_bytes, e.bytes);
    return;
  }
}

void CovRecorder::OnQuotaDenied(const obs::HeapEvent& e) {
  for (QuotaGrantCov& g : quotas_) {
    if (g.quota_id == e.quota) {
      ++g.denials;
      return;
    }
  }
}

std::string CovRecorder::CompartmentName(int id) const {
  return names_->Compartment(id);
}

std::string CovRecorder::ExportName(int compartment, int export_index) const {
  return names_->Export(compartment, export_index);
}

std::string CovRecorder::LibraryName(int id) const {
  return names_->Library(id);
}

std::string CovRecorder::LibraryExportName(int library,
                                           int export_index) const {
  return names_->LibraryExport(library, export_index);
}

json::Value CovRecorder::Json() const {
  json::Object doc;
  doc["board"] = board_index();
  doc["label"] = label();
  doc["now"] = now();
  doc["calls_recorded"] = calls_recorded_;

  json::Array calls;
  for (const auto& [key, e] : calls_) {
    const auto [caller, callee, exp] = key;
    json::Object o;
    o["caller"] = caller == kCallerThreadEntry ? std::string("<entry>")
                                               : CompartmentName(caller);
    o["callee"] = CompartmentName(callee);
    o["export"] = ExportName(callee, exp);
    o["count"] = e.count;
    o["first_cycle"] = e.first_cycle;
    o["last_cycle"] = e.last_cycle;
    o["peak_depth"] = e.peak_depth;
    calls.push_back(std::move(o));
  }
  doc["calls"] = std::move(calls);

  json::Array libcalls;
  for (const auto& [key, e] : libs_) {
    const auto [caller, lib, exp] = key;
    json::Object o;
    o["caller"] = caller == kCallerThreadEntry ? std::string("<entry>")
                                               : CompartmentName(caller);
    o["library"] = LibraryName(lib);
    o["export"] = LibraryExportName(lib, exp);
    o["count"] = e.count;
    o["first_cycle"] = e.first_cycle;
    o["last_cycle"] = e.last_cycle;
    libcalls.push_back(std::move(o));
  }
  doc["library_calls"] = std::move(libcalls);

  json::Array exports;
  for (const auto& [key, depth] : peak_depth_) {
    json::Object o;
    o["compartment"] = CompartmentName(key.first);
    o["export"] = ExportName(key.first, key.second);
    o["peak_depth"] = depth;
    exports.push_back(std::move(o));
  }
  doc["export_peak_depth"] = std::move(exports);

  json::Array mmio;
  for (const MmioGrantCov& g : mmio_) {
    json::Object o;
    o["compartment"] = CompartmentName(g.compartment);
    o["device"] = g.device;
    o["base"] = g.base;
    o["size"] = g.size;
    o["writeable"] = g.writeable;
    o["reads"] = g.reads;
    o["writes"] = g.writes;
    o["first_cycle"] = g.first_cycle;
    o["last_cycle"] = g.last_cycle;
    o["granules_total"] = static_cast<uint64_t>(g.granules_total());
    o["granules_touched"] = static_cast<uint64_t>(g.granules_touched());
    if (!g.touched.empty()) {
      o["touched"] = BitmapHex(g.touched);
    }
    mmio.push_back(std::move(o));
  }
  doc["mmio"] = std::move(mmio);

  json::Array stray;
  for (const auto& [key, count] : unattributed_mmio_) {
    json::Object o;
    o["compartment"] = CompartmentName(key.first);
    o["granule"] = key.second;
    o["count"] = count;
    stray.push_back(std::move(o));
  }
  doc["unattributed_mmio"] = std::move(stray);

  json::Array sealing;
  for (const SealingGrantCov& g : sealing_) {
    json::Object o;
    o["compartment"] = CompartmentName(g.compartment);
    o["type"] = g.type_name;
    o["type_id"] = g.type_id;
    o["seals"] = g.seals;
    o["unseals"] = g.unseals;
    sealing.push_back(std::move(o));
  }
  doc["sealing"] = std::move(sealing);

  json::Array quotas;
  for (const QuotaGrantCov& g : quotas_) {
    json::Object o;
    o["quota_id"] = g.quota_id;
    o["compartment"] = CompartmentName(g.compartment);
    o["name"] = g.name;
    o["limit"] = g.limit;
    o["allocations"] = g.allocations;
    o["frees"] = g.frees;
    o["denials"] = g.denials;
    o["live_bytes"] = g.live_bytes;
    o["peak_live_bytes"] = g.peak_live_bytes;
    quotas.push_back(std::move(o));
  }
  doc["quotas"] = std::move(quotas);

  return json::Value(std::move(doc));
}

void CovRecorder::SerializeState(snap::Writer& w) const {
  w.U64(calls_recorded_);
  auto put_edges = [&w](const std::map<EdgeKey, EdgeStats>& edges) {
    w.U32(static_cast<uint32_t>(edges.size()));
    for (const auto& [key, e] : edges) {
      w.I32(std::get<0>(key));
      w.I32(std::get<1>(key));
      w.I32(std::get<2>(key));
      w.U64(e.count);
      w.U64(e.first_cycle);
      w.U64(e.last_cycle);
      w.U32(e.peak_depth);
    }
  };
  put_edges(calls_);
  put_edges(libs_);
  w.U32(static_cast<uint32_t>(peak_depth_.size()));
  for (const auto& [key, depth] : peak_depth_) {
    w.I32(key.first);
    w.I32(key.second);
    w.U32(depth);
  }
  w.U32(static_cast<uint32_t>(mmio_.size()));
  for (const MmioGrantCov& g : mmio_) {
    w.I32(g.compartment);
    w.Str(g.device);
    w.U32(g.base);
    w.U32(g.size);
    w.Bool(g.writeable);
    w.U64(g.reads);
    w.U64(g.writes);
    w.U64(g.first_cycle);
    w.U64(g.last_cycle);
    w.U32(static_cast<uint32_t>(g.touched.size()));
    for (uint64_t word : g.touched) {
      w.U64(word);
    }
  }
  w.U32(static_cast<uint32_t>(unattributed_mmio_.size()));
  for (const auto& [key, count] : unattributed_mmio_) {
    w.I32(key.first);
    w.U32(key.second);
    w.U64(count);
  }
  w.U32(static_cast<uint32_t>(sealing_.size()));
  for (const SealingGrantCov& g : sealing_) {
    w.I32(g.compartment);
    w.Str(g.type_name);
    w.U32(g.type_id);
    w.U64(g.seals);
    w.U64(g.unseals);
  }
  w.U32(static_cast<uint32_t>(quotas_.size()));
  for (const QuotaGrantCov& g : quotas_) {
    w.U32(g.quota_id);
    w.I32(g.compartment);
    w.Str(g.name);
    w.U32(g.limit);
    w.U64(g.allocations);
    w.U64(g.frees);
    w.U64(g.denials);
    w.U32(g.live_bytes);
    w.U32(g.peak_live_bytes);
  }
  w.I32(current_thread_);
  obs::SerializeThreadStacks(w, threads_, thread_hwm_);
}

}  // namespace cheriot::cov
