// A learning Ethernet switch connecting simulated boards and the gateway.
// Pure frame plumbing with per-port latency: no protocol knowledge beyond
// the 802.3 header. Single-threaded — the Fleet only calls it at epoch
// barriers, never from board worker threads.
#ifndef SRC_SIM_FABRIC_H_
#define SRC_SIM_FABRIC_H_

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "src/base/types.h"
#include "src/flow/flow.h"
#include "src/hw/shared_frame.h"

namespace cheriot {
namespace trace {
class TraceRecorder;
}  // namespace trace
}  // namespace cheriot

namespace cheriot::snap {
class Writer;
}  // namespace cheriot::snap

namespace cheriot::sim {

class Fabric {
 public:
  using Frame = std::vector<uint8_t>;
  using Mac = std::array<uint8_t, 6>;
  // Called once per delivered frame with its arrival time (transmit time
  // plus the destination port's latency) and its host-side provenance. The
  // frame is the transmitted buffer itself, shared by every receiver of a
  // flood (DESIGN.md §6): a receiver that keeps a SharedFrame copy holds a
  // reference to it, one that takes a Frame gets its own copy.
  using DeliverFn = std::function<void(Cycles due, const SharedFrame& frame,
                                       flow::FlowId flow)>;

  // Attaches a port; returns its id. `latency` is the one-way delay of the
  // link behind this port (0 for the gateway, which sits "in" the switch).
  int AttachPort(Cycles latency, DeliverFn deliver);

  // Switches one frame transmitted on `src_port` at time `at`: learns the
  // source MAC, then delivers to the learned destination port, or floods to
  // every other port for broadcast/unknown destinations. The frame is
  // wrapped once into a SharedFrame that every delivery hands on. `flow`
  // rides alongside the frame (never inside it); defaulted for hand-built
  // frames.
  void Transmit(int src_port, Cycles at, Frame frame, flow::FlowId flow = {});

  // Smallest nonzero port latency (the conservative-lookahead bound for the
  // Fleet's epoch length); 0 if no such port exists yet.
  Cycles MinLinkLatency() const;

  uint64_t frames_switched() const { return frames_switched_; }
  uint64_t frames_flooded() const { return frames_flooded_; }
  size_t macs_learned() const { return mac_table_.size(); }

  // --- Communication groups -------------------------------------------------
  // Union-find over ports, merged on every actual delivery (unicast and each
  // leg of a flood): two ports share a group iff traffic has ever connected
  // them, directly or transitively. Ports that have never exchanged a frame
  // stay singleton. This is observational structure — the audit surface for
  // "who actually talks to whom" that the Fleet reports alongside its epoch
  // statistics. It is NOT used to decouple clocks: a broadcast can reach any
  // port at any barrier, so per-board parking on next-event bounds (which is
  // strictly finer-grained) is what the Fleet uses for correctness.

  // Canonical group representative for `port` (path-compressed).
  int GroupOf(int port) const;
  // Number of distinct groups among attached ports.
  size_t group_count() const;
  // Bumped once per group merge; lets callers cache group-derived state and
  // invalidate only when the partition actually changes.
  uint64_t group_generation() const { return group_generation_; }

  // Flight recorder for switched frames. The fabric has no clock of its own,
  // so events are stamped with the frame's transmit time; the Fleet only
  // calls Transmit at epoch barriers, so emission order is deterministic for
  // any host thread count.
  void set_trace(trace::TraceRecorder* recorder) { trace_ = recorder; }

  // Flow recorder hook (PR 9): every delivered leg is reported as a hop
  // (src port -> dst port, tx time -> due time). Pure observer, host handle
  // — never serialized; re-install after Restore.
  void set_flow(flow::FlowRecorder* recorder) { flow_ = recorder; }

  // Snapshot support (DESIGN.md §10). The port list itself (latencies,
  // deliver closures) is host wiring rebuilt by Fleet::Restore; what
  // serializes is the learned/observed state: the MAC table, the switch
  // counters and the communication partition. The raw union-find parent
  // array is path-compression-order-dependent, so the partition is written
  // in canonical form — Find(port) per port, which under the lower-id-wins
  // union rule is always the group's minimum member.
  void SerializeState(snap::Writer& w) const;

 private:
  struct Port {
    Cycles latency = 0;
    DeliverFn deliver;
  };

  void DeliverTo(int port, Cycles at, const SharedFrame& frame,
                 flow::FlowId flow);
  int Find(int port) const;
  void Union(int a, int b);

  std::vector<Port> ports_;
  std::map<Mac, int> mac_table_;
  trace::TraceRecorder* trace_ = nullptr;
  flow::FlowRecorder* flow_ = nullptr;
  uint64_t frames_switched_ = 0;
  uint64_t frames_flooded_ = 0;
  // Union-find parent per port; mutable for path compression in const reads.
  mutable std::vector<int> group_parent_;
  uint64_t group_generation_ = 0;
};

}  // namespace cheriot::sim

#endif  // SRC_SIM_FABRIC_H_
