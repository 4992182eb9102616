// The benchmark's own copy of the fleet-node firmware (src/sim/fleet_app.cc),
// cut to what the fleet workloads need and fed only seed-generated inputs:
//   - bring-up mode: take a DHCP lease, then wake at a telemetry cadence and
//     read the interface address, with no TLS or MQTT at all;
//   - publish mode: DHCP, DNS, TLS-lite and MQTT connect, wait for the
//     broker's "go" notification, then publish a burst of messages whose
//     count and payload lengths come from the seed, each call returning
//     before the next is issued (closed loop).
#ifndef PERFBENCH_NODE_APP_H_
#define PERFBENCH_NODE_APP_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/base/types.h"
#include "src/firmware/image.h"

namespace perfbench {

// Host-visible progress of one board, written by the guest app.
struct NodeState {
  bool leased = false;       // DHCP lease held
  uint32_t ip = 0;
  bool connected = false;    // MQTT session up and subscribed
  bool go = false;           // broker's start notification received
  int published = 0;         // publish calls that returned 0
  int publish_failures = 0;  // publish calls that returned nonzero
  bool done = false;         // burst finished
  uint64_t wakes = 0;        // telemetry wake-ups (bring-up mode)
  bool failed = false;       // bring-up or connect failed
};

struct NodeOptions {
  int index = 0;
  bool publish_mode = false;
  // Bring-up mode: simulated cycles between telemetry wake-ups.
  cheriot::Cycles cadence = 0;
  // Publish mode: one entry per message, its payload length in bytes.
  std::vector<uint16_t> payload_lengths;
};

cheriot::FirmwareImage BuildNodeImage(std::shared_ptr<NodeState> state,
                                      const NodeOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_NODE_APP_H_
