#include "src/sim/fabric.h"

#include <algorithm>
#include <cstring>

#include "src/snap/wire.h"
#include "src/trace/trace.h"

namespace cheriot::sim {

namespace {
constexpr Fabric::Mac kBroadcast = {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF};
}  // namespace

int Fabric::AttachPort(Cycles latency, DeliverFn deliver) {
  ports_.push_back({latency, std::move(deliver)});
  const int id = static_cast<int>(ports_.size()) - 1;
  group_parent_.push_back(id);  // every port starts in its own group
  return id;
}

int Fabric::Find(int port) const {
  int root = port;
  while (group_parent_[static_cast<size_t>(root)] != root) {
    root = group_parent_[static_cast<size_t>(root)];
  }
  while (group_parent_[static_cast<size_t>(port)] != root) {
    int next = group_parent_[static_cast<size_t>(port)];
    group_parent_[static_cast<size_t>(port)] = root;
    port = next;
  }
  return root;
}

void Fabric::Union(int a, int b) {
  const int ra = Find(a);
  const int rb = Find(b);
  if (ra == rb) {
    return;
  }
  // Deterministic tie-break: the lower port id becomes the representative.
  if (ra < rb) {
    group_parent_[static_cast<size_t>(rb)] = ra;
  } else {
    group_parent_[static_cast<size_t>(ra)] = rb;
  }
  ++group_generation_;
}

int Fabric::GroupOf(int port) const { return Find(port); }

size_t Fabric::group_count() const {
  size_t groups = 0;
  for (int port = 0; port < static_cast<int>(ports_.size()); ++port) {
    if (Find(port) == port) {
      ++groups;
    }
  }
  return groups;
}

Cycles Fabric::MinLinkLatency() const {
  Cycles best = 0;
  for (const auto& port : ports_) {
    if (port.latency > 0 && (best == 0 || port.latency < best)) {
      best = port.latency;
    }
  }
  return best;
}

void Fabric::DeliverTo(int port, Cycles at, const SharedFrame& frame,
                       flow::FlowId flow) {
  const Port& p = ports_[static_cast<size_t>(port)];
  if (p.deliver) {
    p.deliver(at + p.latency, frame, flow);
  }
}

void Fabric::Transmit(int src_port, Cycles at, Frame frame,
                      flow::FlowId flow) {
  if (frame.size() < 12) {
    return;
  }
  Mac dst;
  Mac src;
  std::memcpy(dst.data(), frame.data(), 6);
  std::memcpy(src.data(), frame.data() + 6, 6);
  mac_table_[src] = src_port;
  ++frames_switched_;
  // One buffer for every receiver: each delivery below hands on this handle.
  const SharedFrame shared(std::move(frame));

  if (dst != kBroadcast) {
    auto it = mac_table_.find(dst);
    if (it != mac_table_.end()) {
      if (it->second != src_port) {
        if (trace_ != nullptr) {
          trace_->OnFabricFrame(at, src_port, it->second, shared.size(),
                                flow.origin, flow.seq);
        }
        if (flow_ != nullptr) {
          const Cycles due =
              at + ports_[static_cast<size_t>(it->second)].latency;
          flow_->OnHop(flow, src_port, it->second, at, due, shared.size());
        }
        Union(src_port, it->second);
        DeliverTo(it->second, at, shared, flow);
      }
      return;
    }
  }
  // Broadcast or unlearned unicast: flood.
  ++frames_flooded_;
  if (trace_ != nullptr) {
    trace_->OnFabricFrame(at, src_port, -1, shared.size(), flow.origin,
                          flow.seq);
  }
  for (int port = 0; port < static_cast<int>(ports_.size()); ++port) {
    if (port != src_port) {
      if (flow_ != nullptr) {
        const Cycles due = at + ports_[static_cast<size_t>(port)].latency;
        flow_->OnHop(flow, src_port, port, at, due, shared.size());
      }
      Union(src_port, port);
      DeliverTo(port, at, shared, flow);
    }
  }
}

void Fabric::SerializeState(snap::Writer& w) const {
  w.U32(static_cast<uint32_t>(ports_.size()));
  w.U32(static_cast<uint32_t>(mac_table_.size()));
  for (const auto& [mac, port] : mac_table_) {
    for (uint8_t b : mac) {
      w.U8(b);
    }
    w.I32(port);
  }
  w.U64(frames_switched_);
  w.U64(frames_flooded_);
  w.U64(group_generation_);
  // Canonical partition: lower-id-wins unions make Find(port) the minimum
  // member of the port's group, independent of merge/compression order.
  for (int port = 0; port < static_cast<int>(ports_.size()); ++port) {
    w.I32(Find(port));
  }
}

}  // namespace cheriot::sim
