#include "src/trace/export.h"

#include <algorithm>
#include <cstdio>
#include <initializer_list>
#include <string_view>

#include "src/mem/trap.h"

// Exhaustiveness guard (satellite of the health PR): exporter switches over
// EventType carry no `default:` and are compiled with switch warnings
// promoted to errors, so adding an event kind without an exporter mapping
// fails the build instead of silently dropping the new kind from traces.
#pragma GCC diagnostic error "-Wswitch"

namespace cheriot::trace {

namespace {

// Pseudo-track ids inside a board's process; chosen far above any plausible
// guest thread id so they never collide.
constexpr int kTidRevoker = 9990;
constexpr int kTidNic = 9991;
constexpr int kTidFabric = 9992;
// The fabric recorder has no board; give it a process id of its own.
constexpr int kPidFabric = 9999;

int PidFor(const TraceRecorder& r) {
  return r.board_index() >= 0 ? r.board_index() : kPidFabric;
}

// Flow-id rendering; mirrors flow::FlowId::Label()/key() without a src/flow
// dependency (the trace layer stores raw integers).
std::string FlowLabel(int32_t origin, uint32_t seq) {
  char buf[32];
  if (origin == -1) {
    std::snprintf(buf, sizeof buf, "gw#%u", seq);
  } else {
    std::snprintf(buf, sizeof buf, "b%d#%u", origin, seq);
  }
  return buf;
}

std::string FlowKey(int32_t origin, uint32_t seq) {
  return std::to_string(
      (static_cast<uint64_t>(static_cast<uint16_t>(origin)) << 32) | seq);
}

// One member of an event's "args" object: an integer or a string. A member
// with a null key is left out.
struct Arg {
  Arg(const char* k, int64_t n) : key(k), number(n) {}
  Arg(const char* k, std::string_view s) : key(k), text(s), is_text(true) {}

  const char* key;
  int64_t number = 0;
  std::string_view text;
  bool is_text = false;
};

// Opens a Chrome event and writes its "args" object, members given in key
// order ("args" sorts first among an event's keys).
void BeginEvent(json::Writer& w, std::initializer_list<Arg> args = {}) {
  w.BeginObject();
  if (args.size() == 0) {
    return;
  }
  w.Key("args");
  w.BeginObject();
  for (const Arg& a : args) {
    if (a.key == nullptr) {
      continue;
    }
    w.Key(a.key);
    if (a.is_text) {
      w.String(a.text);
    } else {
      w.Int(a.number);
    }
  }
  w.EndObject();
}

// Writes the members that sort after bp, cat, dur and id, in json::Object
// key order: name, ph, pid, s (the instant scope; left out when null), tid
// and ts. Then closes the event.
void EndEvent(json::Writer& w, std::string_view name, const char* ph, int pid,
              const char* scope, int tid, Cycles ts) {
  w.Key("name");
  w.String(name);
  w.Key("ph");
  w.String(ph);
  w.Key("pid");
  w.Int(pid);
  if (scope != nullptr) {
    w.Key("s");
    w.String(scope);
  }
  w.Key("tid");
  w.Int(tid);
  w.Key("ts");
  w.Uint(ts);
  w.EndObject();
}

void WriteMeta(json::Writer& w, int pid, int tid, const char* what,
               std::string_view name) {
  BeginEvent(w, {{"name", name}});
  w.Key("name");
  w.String(what);
  w.Key("ph");
  w.String("M");
  w.Key("pid");
  w.Int(pid);
  if (tid >= 0) {
    w.Key("tid");
    w.Int(tid);
  }
  w.EndObject();
}

int64_t I64(uint64_t v) { return static_cast<int64_t>(v); }

// Writes one recorded event as zero or more Chrome trace events.
void WriteChromeEvents(json::Writer& w, const TraceRecorder& r,
                       const Event& e) {
  const int pid = PidFor(r);
  switch (e.type) {
    case EventType::kBootDone:
      BeginEvent(w);
      EndEvent(w, "boot_done", "i", pid, "p", 0, e.at);
      break;
    case EventType::kCompartmentCall:
      BeginEvent(w, {{"caller", r.CompartmentName(e.a)}, {"depth", I64(e.d)}});
      EndEvent(w,
               r.CompartmentName(e.b) + "." +
                   r.ExportName(e.b, static_cast<int>(e.c)),
               "B", pid, nullptr, e.thread, e.at);
      break;
    case EventType::kCompartmentReturn:
      BeginEvent(w);
      EndEvent(w, r.CompartmentName(e.a), "E", pid, nullptr, e.thread, e.at);
      break;
    case EventType::kLibraryCall:
      BeginEvent(w, {{"export", e.b}});
      EndEvent(w, "lib:" + r.LibraryName(e.a), "i", pid, "t", e.thread, e.at);
      break;
    case EventType::kTrap:
      BeginEvent(w, {{"compartment", r.CompartmentName(e.b)}});
      EndEvent(w, "trap:" + std::to_string(e.a), "i", pid, "t", e.thread,
               e.at);
      break;
    case EventType::kContextSwitch:
      BeginEvent(w);
      EndEvent(w, "switch:" + r.ThreadName(e.a) + ">" + r.ThreadName(e.b),
               "i", pid, "t", e.b >= 0 ? e.b : e.a, e.at);
      break;
    case EventType::kThreadWake:
      BeginEvent(w);
      EndEvent(w, "wake", "i", pid, "t", e.a, e.at);
      break;
    case EventType::kThreadBlock:
      BeginEvent(w, {{"futex", I64(e.d)}});
      EndEvent(w, "block", "i", pid, "t", e.a, e.at);
      break;
    case EventType::kThreadSleep:
      BeginEvent(w, {{"wake_at", I64(e.d)}});
      EndEvent(w, "sleep", "i", pid, "t", e.a, e.at);
      break;
    case EventType::kHeapAlloc:
    case EventType::kHeapFree:
      BeginEvent(w, {{"bytes", I64(e.d)}});
      EndEvent(w, "heap_live_bytes", "C", pid, nullptr, 0, e.at);
      break;
    case EventType::kQuotaExhausted:
      BeginEvent(w, {{"compartment", r.CompartmentName(e.a)},
                     {"quota", e.b},
                     {"requested", e.c}});
      EndEvent(w, "quota_exhausted", "i", pid, "t", e.thread, e.at);
      break;
    case EventType::kSweepBegin:
      BeginEvent(w, {{"epoch", I64(e.d)}});
      EndEvent(w, "sweep", "B", pid, nullptr, kTidRevoker, e.at);
      break;
    case EventType::kSweepEnd:
      BeginEvent(w);
      EndEvent(w, "sweep", "E", pid, nullptr, kTidRevoker, e.at);
      BeginEvent(w, {{"granules", e.c}});
      EndEvent(w, "revocation_epoch:" + std::to_string(e.d), "i", pid, "t",
               kTidRevoker, e.at);
      break;
    case EventType::kNicTx:
    case EventType::kNicRx: {
      const bool tx = e.type == EventType::kNicTx;
      const bool has_flow = e.a != kNoFlowOrigin;
      const auto seq = static_cast<uint32_t>(e.d);
      BeginEvent(w, {{"bytes", e.c},
                     {has_flow ? "flow" : nullptr,
                      has_flow ? FlowLabel(e.a, seq) : std::string()}});
      EndEvent(w, tx ? "nic_tx" : "nic_rx", "i", pid, "t", kTidNic, e.at);
      if (has_flow) {
        // Perfetto flow arrow binding this tx to the matching rx on another
        // board's track: an "s" (start) at the transmit and an "f" with
        // bp:"e" (bind to enclosing slice end) at each receive, all sharing
        // the flow key as id.
        BeginEvent(w);
        if (!tx) {
          w.Key("bp");
          w.String("e");
        }
        w.Key("cat");
        w.String("flow");
        w.Key("id");
        w.String(FlowKey(e.a, seq));
        EndEvent(w, "flow", tx ? "s" : "f", pid, nullptr, kTidNic, e.at);
      }
      break;
    }
    case EventType::kFabricFrame: {
      const auto origin = static_cast<int32_t>(
          static_cast<int16_t>(static_cast<uint16_t>(e.d >> 32)));
      const bool has_flow = origin != kNoFlowOrigin;
      BeginEvent(w, {{"bytes", e.c},
                     {"dst_port", e.b},
                     {has_flow ? "flow" : nullptr,
                      has_flow ? FlowLabel(origin, static_cast<uint32_t>(e.d))
                               : std::string()},
                     {"src_port", e.a}});
      EndEvent(w, "fabric_frame", "i", pid, "t", kTidFabric, e.at);
      break;
    }
    case EventType::kFrameDrop: {
      const bool has_flow = e.a != kNoFlowOrigin;
      BeginEvent(w, {{"bytes", e.c},
                     {has_flow ? "flow" : nullptr,
                      has_flow ? FlowLabel(e.a, static_cast<uint32_t>(e.d))
                               : std::string()},
                     {"reason", e.b == 0 ? "nic_loss" : "gateway_tcp"}});
      EndEvent(w, "frame_drop", "i", pid, "t",
               r.board_index() >= 0 ? kTidNic : kTidFabric, e.at);
      break;
    }
    case EventType::kCrashRecord:
      BeginEvent(w, {{"compartment", r.CompartmentName(e.b)},
                     {"fault_address", e.c},
                     {"record_seq", I64(e.d)}});
      EndEvent(w,
               std::string("crash:") + TrapCodeName(static_cast<TrapCode>(e.a)),
               "i", pid, "t", e.thread, e.at);
      break;
    case EventType::kIdleFastForward:
      // Rendered as a completed span ending at the jump target, so the
      // skipped stretch shows up as one solid "idle (ff)" block instead of
      // empty space.
      BeginEvent(w, {{"span_cycles", e.c}});
      w.Key("dur");
      w.Int(e.c);
      EndEvent(w, "idle_fast_forward", "X", pid, nullptr, 0,
               e.at - static_cast<Cycles>(e.c));
      break;
  }
}

void WriteMetadata(json::Writer& w, const TraceRecorder& r) {
  const int pid = PidFor(r);
  WriteMeta(w, pid, -1, "process_name",
            r.label().empty() ? "board" : r.label());
  for (size_t t = 0; t < r.thread_count(); ++t) {
    WriteMeta(w, pid, static_cast<int>(t), "thread_name",
              r.ThreadName(static_cast<int>(t)));
  }
  if (r.board_index() >= 0) {
    WriteMeta(w, pid, kTidRevoker, "thread_name", "revoker");
    WriteMeta(w, pid, kTidNic, "thread_name", "nic");
  } else {
    WriteMeta(w, pid, kTidFabric, "thread_name", "fabric");
  }
}

}  // namespace

std::string ChromeTraceJson::Dump(int indent) const {
  // Interleave by guest cycle: one (at, recorder, index) stamp per recorded
  // event, stably sorted on `at`. Each recorder's order is already
  // deterministic and ties keep recorder order, so the merged stream is
  // byte-identical for any host worker count.
  struct Stamp {
    Cycles at;
    uint32_t recorder;
    uint32_t index;
  };
  std::vector<std::vector<Event>> events;
  std::vector<Stamp> timeline;
  for (const TraceRecorder* r : recorders_) {
    events.push_back(r->Events());
    for (size_t i = 0; i < events.back().size(); ++i) {
      timeline.push_back({events.back()[i].at,
                          static_cast<uint32_t>(events.size() - 1),
                          static_cast<uint32_t>(i)});
    }
  }
  std::stable_sort(timeline.begin(), timeline.end(),
                   [](const Stamp& a, const Stamp& b) { return a.at < b.at; });

  // A fleet-node trace takes ~93 bytes per event compact and ~159 at indent
  // 2; reserving above that keeps the string from reallocating.
  std::string out;
  out.reserve(timeline.size() * (indent < 0 ? 128 : 256));
  json::Writer w(&out, indent);
  w.BeginObject();
  w.Key("displayTimeUnit");
  w.String("ns");
  w.Key("traceEvents");
  w.BeginArray();
  for (const TraceRecorder* r : recorders_) {
    WriteMetadata(w, *r);
  }
  for (const Stamp& s : timeline) {
    WriteChromeEvents(w, *recorders_[s.recorder],
                      events[s.recorder][s.index]);
  }
  w.EndArray();
  w.EndObject();
  return out;
}

ChromeTraceJson MergedChromeTrace(
    const std::vector<TraceRecorder*>& recorders) {
  return ChromeTraceJson({recorders.begin(), recorders.end()});
}

ChromeTraceJson ChromeTrace(const TraceRecorder& recorder) {
  return ChromeTraceJson({&recorder});
}

json::Value MetricsSnapshot(const TraceRecorder& recorder,
                            const std::vector<ThreadStackStats>& threads) {
  json::Object doc;
  doc["schema_version"] = kMetricsSchemaVersion;
  doc["label"] = recorder.label();
  doc["board"] = recorder.board_index();
  doc["now"] = static_cast<uint64_t>(recorder.now());

  json::Object ev;
  ev["emitted"] = recorder.emitted();
  ev["recorded"] = static_cast<uint64_t>(recorder.event_count());
  ev["dropped"] = recorder.dropped();
  json::Object by_type;
  for (size_t t = 0; t < kEventTypeCount; ++t) {
    const auto type = static_cast<EventType>(t);
    if (recorder.events_of_type(type) > 0) {
      by_type[EventTypeName(type)] = recorder.events_of_type(type);
    }
  }
  ev["by_type"] = std::move(by_type);
  doc["events"] = std::move(ev);

  json::Object prof;
  prof["boot_cycles"] = static_cast<uint64_t>(recorder.boot_cycles());
  prof["idle_cycles"] = static_cast<uint64_t>(recorder.idle_cycles());
  prof["attributed_cycles"] =
      static_cast<uint64_t>(recorder.attributed_cycles());
  json::Array comps;
  for (const auto& [id, p] : recorder.Profile()) {
    json::Object c;
    c["id"] = id;
    c["name"] = recorder.CompartmentName(id);
    c["self"] = static_cast<uint64_t>(p.self);
    c["total"] = static_cast<uint64_t>(p.total);
    c["calls"] = p.calls;
    comps.push_back(std::move(c));
  }
  prof["compartments"] = std::move(comps);
  doc["profile"] = std::move(prof);

  doc["heap"] = json::Object{{"live_bytes", recorder.heap_live_bytes()},
                             {"allocs", recorder.heap_allocs()},
                             {"frees", recorder.heap_frees()}};
  doc["revoker"] = json::Object{{"sweeps", recorder.sweeps_completed()},
                                {"granules_scanned",
                                 recorder.granules_scanned()}};
  doc["nic"] = json::Object{{"tx_frames", recorder.nic_tx_frames()},
                            {"tx_bytes", recorder.nic_tx_bytes()},
                            {"rx_frames", recorder.nic_rx_frames()},
                            {"rx_bytes", recorder.nic_rx_bytes()},
                            {"dropped_frames", recorder.frames_dropped()}};

  json::Array ts;
  for (const auto& t : threads) {
    json::Object o;
    o["name"] = t.name;
    o["stack_size"] = t.stack_size;
    o["peak_stack_bytes"] = t.peak_stack_bytes;
    o["compartment_calls"] = t.compartment_calls;
    ts.push_back(std::move(o));
  }
  doc["threads"] = std::move(ts);
  return doc;
}

std::string CollapsedStacksText(const TraceRecorder& recorder) {
  std::string out;
  for (const auto& [key, cycles] : recorder.CollapsedStacks()) {
    std::string line;
    if (key.size() == 1) {
      // Boot/idle pseudo-stacks have no owning thread.
      line = recorder.CompartmentName(key[0]);
    } else {
      line = recorder.ThreadName(key[0]);
      for (size_t i = 1; i < key.size(); ++i) {
        line += ";";
        line += recorder.CompartmentName(key[i]);
      }
    }
    line += ' ';
    line += std::to_string(static_cast<uint64_t>(cycles));
    line += '\n';
    out += line;
  }
  return out;
}

std::string ProfileText(const TraceRecorder& recorder) {
  const Cycles now = recorder.now();
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "# %s: %llu cycles (boot %llu, idle %llu, attributed %llu)\n",
                recorder.label().empty() ? "trace" : recorder.label().c_str(),
                static_cast<unsigned long long>(now),
                static_cast<unsigned long long>(recorder.boot_cycles()),
                static_cast<unsigned long long>(recorder.idle_cycles()),
                static_cast<unsigned long long>(recorder.attributed_cycles()));
  out += buf;
  std::snprintf(buf, sizeof(buf), "%-24s %10s %14s %14s %7s\n", "compartment",
                "calls", "self", "total", "self%");
  out += buf;
  // Rows sorted by self cycles (descending), then id, for stable output.
  const auto profile = recorder.Profile();
  std::vector<std::pair<int, TraceRecorder::CompartmentProfile>> rows(
      profile.begin(), profile.end());
  std::stable_sort(rows.begin(), rows.end(),
                   [](const auto& a, const auto& b) {
                     if (a.second.self != b.second.self) {
                       return a.second.self > b.second.self;
                     }
                     return a.first < b.first;
                   });
  for (const auto& [id, p] : rows) {
    const double pct = now > 0 ? 100.0 * static_cast<double>(p.self) /
                                     static_cast<double>(now)
                               : 0.0;
    std::snprintf(buf, sizeof(buf), "%-24s %10llu %14llu %14llu %6.2f%%\n",
                  recorder.CompartmentName(id).c_str(),
                  static_cast<unsigned long long>(p.calls),
                  static_cast<unsigned long long>(p.self),
                  static_cast<unsigned long long>(p.total), pct);
    out += buf;
  }
  return out;
}

}  // namespace cheriot::trace
