// The simulated "outside world" behind the Ethernet device: a gateway host
// providing ARP, DHCP, DNS, NTP and an MQTT broker behind TLS-lite. This is
// the substitution for the paper's real network testbed (DESIGN.md §1): it
// runs natively (it is the environment, not the system under test).
//
// Two layers:
//   - Gateway: the transport-agnostic service engine. It consumes frames
//     stamped with their transmit time and emits reply frames through a
//     caller-supplied hook; the *transport* (NetWorld link or sim::Fabric)
//     owns latency. It serves any number of clients: DHCP leases come from
//     an address pool keyed by client MAC, TCP connections are keyed by
//     (client IP, client port), and IPv4 packets between two leased clients
//     are forwarded (so fleet boards can ping each other through it).
//   - NetWorld: the single-board adapter that wires a Gateway to one
//     Machine's Ethernet device: guest transmits go to the gateway, and its
//     replies go on the device's wire one fixed link latency later. The
//     device owns the wire (delivery, flow ids, NIC observer events), so a
//     NetWorld machine and a fleet board share one frame-arrival path.
#ifndef SRC_NET_WORLD_H_
#define SRC_NET_WORLD_H_

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/flow/flow.h"
#include "src/hw/machine.h"
#include "src/net/crypto.h"
#include "src/net/packet.h"

namespace cheriot::net {

// Well-known addresses of the simulated network.
inline constexpr Ipv4 kWorldIp = 0x0A000001;        // 10.0.0.1 (gateway/host)
inline constexpr Ipv4 kDeviceIp = 0x0A000002;       // 10.0.0.2 (first lease)
inline constexpr uint16_t kDnsPort = 53;
inline constexpr uint16_t kDhcpPort = 67;
inline constexpr uint16_t kNtpPort = 123;
inline constexpr uint16_t kEchoPort = 7;            // plain TCP echo service
inline constexpr uint16_t kMqttTlsPort = 8883;
inline constexpr MacAddress kWorldMac = {2, 0, 0, 0, 0, 1};
inline constexpr MacAddress kDeviceMac = {2, 0, 0, 0, 0, 2};

// --- Compact wire protocols (simulation-grade, see DESIGN.md) ---
// DHCP-lite (UDP 67): [1]=discover -> [2, ip]; [3, ip]=request -> [5, ip,
//   gateway_ip, dns_ip]=ack.
// DNS-lite (UDP 53): [qid u16][name...] -> [qid u16][ip u32] (0 = NXDOMAIN).
// NTP-lite (UDP 123): [0x4E] -> [unix_seconds u32].
// TLS-lite record: [type u8][len u16][body]; type 1 = hello, 2 = data.
// MQTT-lite message: [op u8][len u16][body]; 1=CONNECT 2=CONNACK
//   3=SUBSCRIBE 4=SUBACK 5=PUBLISH([topic_len u8][topic][payload])
//   6=PINGREQ 7=PINGRESP.
inline constexpr uint8_t kTlsRecordHello = 1;
inline constexpr uint8_t kTlsRecordData = 2;
inline constexpr uint8_t kMqttConnect = 1;
inline constexpr uint8_t kMqttConnAck = 2;
inline constexpr uint8_t kMqttSubscribe = 3;
inline constexpr uint8_t kMqttSubAck = 4;
inline constexpr uint8_t kMqttPublish = 5;
inline constexpr uint8_t kMqttPingReq = 6;
inline constexpr uint8_t kMqttPingResp = 7;

struct WorldOptions {
  Cycles link_latency = 3'300;        // ~100 us at 33 MHz
  // Names the DNS-lite server resolves.
  std::map<std::string, Ipv4> dns_table = {
      {"mqtt.example.com", kWorldIp},
      {"ntp.example.com", kWorldIp},
  };
  uint32_t ntp_unix_base = 1'751'500'800;  // 2025-07-03
  // Drop every Nth guest TCP data segment per connection (0 = lossless) to
  // exercise the guest's retransmission path.
  int drop_every_nth_tcp = 0;
  // Broker-side fan-out of guest publishes: re-deliver each guest PUBLISH to
  // every *other* established MQTT client subscribed to its topic. Off by
  // default (historically the broker only counted guest publishes), so
  // existing images keep their exact frame schedules.
  bool mqtt_fanout = false;
};

// The gateway's DHCP pool: MAC -> IP leases handed out in arrival order
// starting at kDeviceIp (so the historical single-board address still holds).
class AddressPool {
 public:
  // Returns the client's lease, creating one on first contact.
  Ipv4 Lease(const MacAddress& mac);
  std::optional<Ipv4> IpOf(const MacAddress& mac) const;
  std::optional<MacAddress> MacOf(Ipv4 ip) const;
  size_t lease_count() const { return by_mac_.size(); }

 private:
  std::map<MacAddress, Ipv4> by_mac_;
  std::map<Ipv4, MacAddress> by_ip_;
  Ipv4 next_ = kDeviceIp;
};

class Gateway {
 public:
  explicit Gateway(WorldOptions options = {});

  // Reply/forward transport: the gateway hands every outbound frame (already
  // ethernet-addressed) to this hook with its freshly assigned host-side
  // flow id; the transport adds its own latency.
  using EmitFn = std::function<void(Bytes frame, flow::FlowId flow)>;
  void set_emit(EmitFn emit) { emit_ = std::move(emit); }

  // Flow recorder hook (PR 9): gateway receipt, causal emit parentage and
  // MQTT publish fan-out spans are reported here. Pure observer, host handle
  // — never serialized.
  void set_flow(flow::FlowRecorder* recorder) { flow_ = recorder; }

  // Fault-injected TCP drops are reported here (at, dropped payload bytes,
  // flow id of the carrying frame) so the transport can emit a kFrameDrop
  // trace event into whichever recorder it owns.
  using DropTraceFn = std::function<void(Cycles at, size_t bytes,
                                         flow::FlowId flow)>;
  void set_drop_trace(DropTraceFn fn) { drop_trace_ = std::move(fn); }

  // Processes one client frame transmitted at simulated time `now`. `flow`
  // is the frame's host-side provenance (defaulted for hand-built frames);
  // replies emitted while processing it are parented to it.
  void OnFrame(Cycles now, const Bytes& frame, flow::FlowId flow = {});

  // --- Test/bench control surface ---
  // Queues an MQTT publish from the broker to every subscribed client.
  void PublishMqtt(Cycles now, const std::string& topic, const Bytes& payload);
  // Sends an ICMP echo request to a client (it should reply).
  void SendPing(Cycles now, Ipv4 dst, uint16_t id, uint16_t seq,
                size_t payload_len = 32);
  // Sends the malformed "ping of death" (claimed length > actual) that the
  // feature-flagged parser bug mishandles (§5.3.3).
  void SendPingOfDeath(Cycles now, Ipv4 dst = kDeviceIp);

  // --- Observability (aggregate + per-client) ---
  uint32_t ping_replies_seen() const { return ping_replies_; }
  uint32_t ping_replies_from(Ipv4 ip) const;
  uint32_t mqtt_publishes_received() const { return mqtt_rx_publishes_; }
  uint32_t mqtt_publishes_from(Ipv4 ip) const;
  uint32_t tcp_connections_accepted() const { return tcp_accepts_; }
  uint32_t dhcp_acks_sent() const { return dhcp_acks_; }
  uint32_t tcp_segments_dropped() const { return tcp_segments_dropped_; }
  uint32_t frames_forwarded() const { return frames_forwarded_; }
  bool mqtt_client_connected() const { return mqtt_clients_connected() > 0; }
  size_t mqtt_clients_connected() const;
  const std::vector<std::string>& mqtt_subscriptions() const {
    return subscriptions_;
  }
  uint32_t frames_from_guest() const { return frames_rx_; }
  const AddressPool& pool() const { return pool_; }

 private:
  struct TcpConn {
    enum class State { kSynReceived, kEstablished, kClosed };
    State state = State::kSynReceived;
    Ipv4 peer_ip = 0;
    MacAddress peer_mac{};
    uint16_t peer_port = 0;
    uint16_t local_port = 0;
    uint32_t snd_nxt = 0;   // next sequence we send
    uint32_t rcv_nxt = 0;   // next sequence we expect
    uint32_t data_segments = 0;  // per-connection loss-injection counter
    Bytes inbound;          // reassembled application bytes
    // TLS-lite server state (MQTT port only).
    bool tls_established = false;
    crypto::Key key_c2s{};
    crypto::Key key_s2c{};
    crypto::HmacKey mac;
    uint32_t tls_rx_counter = 0;
    uint32_t tls_tx_counter = 0;
    bool mqtt_connected = false;
    std::vector<std::string> topics;  // this client's subscriptions
  };
  using ConnKey = std::pair<Ipv4, uint16_t>;  // (client IP, client port)

  void Emit(Bytes frame);
  void Forward(const ParsedFrame& p, const Bytes& frame);
  void HandleArp(const ParsedFrame& p);
  void HandleIcmp(const ParsedFrame& p);
  void HandleUdp(const ParsedFrame& p);
  void HandleTcp(const ParsedFrame& p);
  void TcpSend(TcpConn& conn, uint8_t flags, const Bytes& payload);
  void AppBytes(TcpConn& conn, const Bytes& data);
  void TlsServerInput(TcpConn& conn);
  void SendTlsRecord(TcpConn& conn, uint8_t type, Bytes body);
  void MqttServerMessage(TcpConn& conn, uint8_t op, const Bytes& body);
  void SendUdpReply(const ParsedFrame& request, const Bytes& payload);

  WorldOptions options_;
  EmitFn emit_;
  flow::FlowRecorder* flow_ = nullptr;
  DropTraceFn drop_trace_;
  uint32_t emit_seq_ = 0;       // gateway flow-id sequence; always ticks
  flow::FlowId rx_flow_;        // provenance of the frame being processed
  AddressPool pool_;
  Cycles now_ = 0;  // time of the frame being processed (for NTP)
  std::map<ConnKey, TcpConn> conns_;
  std::vector<std::string> subscriptions_;
  uint32_t ping_replies_ = 0;
  uint32_t mqtt_rx_publishes_ = 0;
  uint32_t tcp_accepts_ = 0;
  uint32_t dhcp_acks_ = 0;
  uint32_t frames_rx_ = 0;
  uint32_t frames_forwarded_ = 0;
  uint32_t tcp_segments_dropped_ = 0;
  std::map<Ipv4, uint32_t> pings_by_ip_;
  std::map<Ipv4, uint32_t> publishes_by_ip_;
  uint64_t entropy_ = 0xC0FFEE12345678ull;
};

// Single-board adapter: one Gateway wired straight to one Machine's Ethernet
// device over a fixed-latency link.
class NetWorld {
 public:
  NetWorld(Machine& machine, WorldOptions options = {});

  void PublishMqtt(const std::string& topic, const Bytes& payload);
  void SendPing(uint16_t id, uint16_t seq, size_t payload_len = 32);
  void SendPingOfDeath();

  uint32_t ping_replies_seen() const { return gateway_.ping_replies_seen(); }
  uint32_t mqtt_publishes_received() const {
    return gateway_.mqtt_publishes_received();
  }
  uint32_t tcp_connections_accepted() const {
    return gateway_.tcp_connections_accepted();
  }
  uint32_t dhcp_acks_sent() const { return gateway_.dhcp_acks_sent(); }
  uint32_t tcp_segments_dropped() const {
    return gateway_.tcp_segments_dropped();
  }
  bool mqtt_client_connected() const {
    return gateway_.mqtt_client_connected();
  }
  const std::vector<std::string>& mqtt_subscriptions() const {
    return gateway_.mqtt_subscriptions();
  }
  uint32_t frames_from_guest() const { return gateway_.frames_from_guest(); }
  Gateway& gateway() { return gateway_; }

 private:
  Machine& machine_;
  WorldOptions options_;
  Gateway gateway_;
};

}  // namespace cheriot::net

#endif  // SRC_NET_WORLD_H_
