// Exporters for cheriot-trace recordings: Chrome trace-event JSON (loadable
// in Perfetto / chrome://tracing), a versioned byte-stable metrics snapshot,
// collapsed-stack flamegraph text and a human-readable profile table.
//
// Exporters are pure read-side consumers of TraceRecorder: they know nothing
// about the simulator, so a clockless recorder (the fleet fabric's) exports
// the same way a board's does. All output is deterministic byte-for-byte:
// json::Object is an ordered map, arrays follow emission order, and merged
// fleet traces are interleaved by a stable sort on guest cycles.
#ifndef SRC_TRACE_EXPORT_H_
#define SRC_TRACE_EXPORT_H_

#include <string>
#include <utility>
#include <vector>

#include "src/json/json.h"
#include "src/trace/trace.h"

namespace cheriot::trace {

// Per-thread stack statistics for the metrics snapshot. Callers (CLI, tests)
// fill these from System::threads(); the exporter stays sim-independent.
struct ThreadStackStats {
  std::string name;
  uint32_t stack_size = 0;
  uint32_t peak_stack_bytes = 0;
  uint32_t compartment_calls = 0;
};

// A Chrome trace-event document over one or more recorders. It holds only
// the recorders, which must outlive it: Dump streams the events through a
// json::Writer into one string, with no json::Value tree, and writes the
// bytes json::Value::Dump(indent) would for that tree.
class ChromeTraceJson {
 public:
  explicit ChromeTraceJson(std::vector<const TraceRecorder*> recorders)
      : recorders_(std::move(recorders)) {}

  std::string Dump(int indent = 2) const;

 private:
  std::vector<const TraceRecorder*> recorders_;
};

// Chrome trace-event JSON for one recorder. Timestamps are raw guest cycles
// (the viewer's time unit is nominally microseconds; relative durations and
// ordering are what matter). One process per board (pid = board index;
// pid 9999 for the clockless fabric recorder), one track per guest thread,
// pseudo-tracks for the revoker (tid 9990), NIC (tid 9991) and fabric
// (tid 9992). Compartment calls are B/E duration pairs named
// "compartment.export"; traps, wakes and quota exhaustion are instant
// events; heap_live_bytes is a counter series.
ChromeTraceJson ChromeTrace(const TraceRecorder& recorder);

// Fleet-level merge: every recorder's events on its own pid, interleaved by
// guest cycle with a stable tie-break on recorder order, so the merged trace
// is byte-identical for any host worker count.
ChromeTraceJson MergedChromeTrace(
    const std::vector<TraceRecorder*>& recorders);

// Versioned metrics snapshot (kMetricsSchemaVersion). Byte-stable: emit with
// Dump(2) and diff across runs. `threads` supplies per-thread peak-stack
// stats; pass {} for recorders without a System (e.g. the fabric's).
inline constexpr int kMetricsSchemaVersion = 1;
json::Value MetricsSnapshot(const TraceRecorder& recorder,
                            const std::vector<ThreadStackStats>& threads = {});

// Collapsed call stacks, one per line: "thread;comp;...;comp <cycles>" —
// directly consumable by flamegraph.pl / speedscope.
std::string CollapsedStacksText(const TraceRecorder& recorder);

// Human-readable per-compartment table (self/total/calls, share of wall
// cycles), headed by the boot/idle/attribution summary.
std::string ProfileText(const TraceRecorder& recorder);

}  // namespace cheriot::trace

#endif  // SRC_TRACE_EXPORT_H_
