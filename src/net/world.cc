#include "src/net/world.h"

#include <algorithm>
#include <cstring>

#include "src/base/costs.h"
#include "src/base/log.h"

namespace cheriot::net {

// --- AddressPool -----------------------------------------------------------

Ipv4 AddressPool::Lease(const MacAddress& mac) {
  auto it = by_mac_.find(mac);
  if (it != by_mac_.end()) {
    return it->second;
  }
  const Ipv4 ip = next_++;
  by_mac_[mac] = ip;
  by_ip_[ip] = mac;
  return ip;
}

std::optional<Ipv4> AddressPool::IpOf(const MacAddress& mac) const {
  auto it = by_mac_.find(mac);
  if (it == by_mac_.end()) {
    return std::nullopt;
  }
  return it->second;
}

std::optional<MacAddress> AddressPool::MacOf(Ipv4 ip) const {
  auto it = by_ip_.find(ip);
  if (it == by_ip_.end()) {
    return std::nullopt;
  }
  return it->second;
}

// --- Gateway ---------------------------------------------------------------

Gateway::Gateway(WorldOptions options) : options_(std::move(options)) {}

void Gateway::Emit(Bytes frame) {
  // Every emitted frame gets gateway provenance unconditionally (the
  // sequence ticks whether or not a recorder watches), parented to the frame
  // being processed — that parent edge is what stitches request->reply and
  // publish->fan-out causality across boards.
  const flow::FlowId id{flow::FlowId::kGateway, emit_seq_++};
  if (flow_ != nullptr) {
    flow_->OnGatewayEmit(id, rx_flow_, now_, frame.size());
  }
  if (emit_) {
    emit_(std::move(frame), id);
  }
}

void Gateway::OnFrame(Cycles now, const Bytes& frame, flow::FlowId flow) {
  now_ = now;
  rx_flow_ = flow;
  if (flow_ != nullptr) {
    flow_->OnGatewayRx(flow, now);
  }
  ++frames_rx_;
  const ParsedFrame p = ParseFrame(frame);
  if (!p.valid) {
    return;
  }
  if (p.is_arp) {
    HandleArp(p);
    return;
  }
  if (p.is_ipv4 && p.ip.dst != kWorldIp && p.ip.dst != 0xFFFFFFFF &&
      pool_.MacOf(p.ip.dst).has_value()) {
    // Routed traffic between two leased clients (e.g. board-to-board ping):
    // the gateway rewrites the ethernet header and passes the packet on.
    Forward(p, frame);
    return;
  }
  if (p.is_icmp) {
    HandleIcmp(p);
  } else if (p.is_udp) {
    HandleUdp(p);
  } else if (p.is_tcp) {
    HandleTcp(p);
  }
}

void Gateway::Forward(const ParsedFrame& p, const Bytes& frame) {
  const MacAddress dst_mac = *pool_.MacOf(p.ip.dst);
  Bytes out = frame;
  std::memcpy(out.data(), dst_mac.data(), 6);
  std::memcpy(out.data() + 6, kWorldMac.data(), 6);
  ++frames_forwarded_;
  Emit(std::move(out));
}

void Gateway::HandleArp(const ParsedFrame& p) {
  if (p.arp_is_request && p.arp_target_ip == kWorldIp) {
    Emit(BuildArpReply(kWorldMac, kWorldIp, p.arp_sender_mac,
                       p.arp_sender_ip));
  }
}

void Gateway::HandleIcmp(const ParsedFrame& p) {
  if (p.ip.dst != kWorldIp) {
    return;
  }
  if (p.icmp_type == 8) {  // echo request from a client: reply
    Emit(BuildIpv4(kWorldMac, p.eth.src, kWorldIp, p.ip.src, kIpProtoIcmp,
                   BuildIcmpEcho(0, p.icmp_id, p.icmp_seq, p.icmp_payload)));
  } else if (p.icmp_type == 0) {  // echo reply (to our SendPing)
    ++ping_replies_;
    ++pings_by_ip_[p.ip.src];
  }
}

uint32_t Gateway::ping_replies_from(Ipv4 ip) const {
  auto it = pings_by_ip_.find(ip);
  return it == pings_by_ip_.end() ? 0 : it->second;
}

uint32_t Gateway::mqtt_publishes_from(Ipv4 ip) const {
  auto it = publishes_by_ip_.find(ip);
  return it == publishes_by_ip_.end() ? 0 : it->second;
}

void Gateway::SendUdpReply(const ParsedFrame& request, const Bytes& payload) {
  Bytes udp = BuildUdp(request.udp.dst_port, request.udp.src_port, payload);
  // DHCP requests arrive from 0.0.0.0; address those to the client's lease.
  Ipv4 dst_ip = request.ip.src;
  if (dst_ip == 0) {
    dst_ip = pool_.IpOf(request.eth.src).value_or(kDeviceIp);
  }
  Emit(BuildIpv4(kWorldMac, request.eth.src, kWorldIp, dst_ip, kIpProtoUdp,
                 udp));
}

void Gateway::HandleUdp(const ParsedFrame& p) {
  const Bytes& body = p.payload;
  switch (p.udp.dst_port) {
    case kDhcpPort: {
      if (body.empty()) {
        return;
      }
      if (body[0] == 1) {  // DISCOVER -> OFFER
        const Ipv4 lease = pool_.Lease(p.eth.src);
        Bytes reply = {2};
        for (int i = 3; i >= 0; --i) {
          reply.push_back(static_cast<uint8_t>(lease >> (8 * i)));
        }
        SendUdpReply(p, reply);
      } else if (body[0] == 3) {  // REQUEST -> ACK
        const Ipv4 lease = pool_.Lease(p.eth.src);
        Bytes reply = {5};
        for (Ipv4 ip : {lease, kWorldIp, kWorldIp}) {  // ip, gw, dns
          for (int i = 3; i >= 0; --i) {
            reply.push_back(static_cast<uint8_t>(ip >> (8 * i)));
          }
        }
        ++dhcp_acks_;
        SendUdpReply(p, reply);
      }
      return;
    }
    case kDnsPort: {
      if (body.size() < 2) {
        return;
      }
      const std::string name(body.begin() + 2, body.end());
      Ipv4 ip = 0;
      auto it = options_.dns_table.find(name);
      if (it != options_.dns_table.end()) {
        ip = it->second;
      }
      Bytes reply = {body[0], body[1]};
      for (int i = 3; i >= 0; --i) {
        reply.push_back(static_cast<uint8_t>(ip >> (8 * i)));
      }
      SendUdpReply(p, reply);
      return;
    }
    case kNtpPort: {
      const uint32_t seconds =
          options_.ntp_unix_base +
          static_cast<uint32_t>(now_ / cost::kCoreHz);
      Bytes reply;
      for (int i = 3; i >= 0; --i) {
        reply.push_back(static_cast<uint8_t>(seconds >> (8 * i)));
      }
      SendUdpReply(p, reply);
      return;
    }
    default:
      return;
  }
}

void Gateway::TcpSend(TcpConn& conn, uint8_t flags, const Bytes& payload) {
  TcpHeader h;
  h.src_port = conn.local_port;
  h.dst_port = conn.peer_port;
  h.seq = conn.snd_nxt;
  h.ack = conn.rcv_nxt;
  h.flags = flags;
  Emit(BuildIpv4(kWorldMac, conn.peer_mac, kWorldIp, conn.peer_ip, kIpProtoTcp,
                 BuildTcp(h, payload)));
  conn.snd_nxt += payload.size();
  if (flags & (kTcpSyn | kTcpFin)) {
    conn.snd_nxt += 1;
  }
}

void Gateway::HandleTcp(const ParsedFrame& p) {
  if (p.ip.dst != kWorldIp) {
    return;
  }
  const ConnKey key{p.ip.src, p.tcp.src_port};
  auto it = conns_.find(key);

  if (p.tcp.flags & kTcpSyn) {
    if (p.tcp.dst_port != kMqttTlsPort && p.tcp.dst_port != kEchoPort) {
      // Port closed: RST.
      TcpConn rst;
      rst.peer_ip = p.ip.src;
      rst.peer_mac = p.eth.src;
      rst.local_port = p.tcp.dst_port;
      rst.peer_port = p.tcp.src_port;
      rst.rcv_nxt = p.tcp.seq + 1;
      TcpSend(rst, kTcpRst | kTcpAck, {});
      return;
    }
    TcpConn conn;
    conn.peer_ip = p.ip.src;
    conn.peer_mac = p.eth.src;
    conn.local_port = p.tcp.dst_port;
    conn.peer_port = p.tcp.src_port;
    conn.rcv_nxt = p.tcp.seq + 1;
    conn.snd_nxt = 0x10000 + p.tcp.src_port;  // deterministic ISN
    TcpSend(conn, kTcpSyn | kTcpAck, {});
    conn.state = TcpConn::State::kSynReceived;
    conns_[key] = conn;
    ++tcp_accepts_;
    return;
  }
  if (it == conns_.end()) {
    return;
  }
  TcpConn& conn = it->second;
  if (p.tcp.flags & kTcpRst) {
    conns_.erase(it);
    return;
  }
  if (conn.state == TcpConn::State::kSynReceived && (p.tcp.flags & kTcpAck)) {
    conn.state = TcpConn::State::kEstablished;
  }
  if (!p.payload.empty()) {
    // Loss injection is per connection so one lossy flow cannot perturb the
    // drop pattern of another, and it drops exactly the Nth, 2Nth, ... data
    // segment of each flow.
    ++conn.data_segments;
    if (options_.drop_every_nth_tcp > 0 &&
        conn.data_segments %
                static_cast<uint32_t>(options_.drop_every_nth_tcp) ==
            0) {
      ++tcp_segments_dropped_;
      // The injected loss is observable, not silent: a kFrameDrop trace
      // event via the transport's hook and a flow drop record.
      if (flow_ != nullptr) {
        flow_->OnDrop(rx_flow_, flow::kDropGatewayTcp, now_);
      }
      if (drop_trace_) {
        drop_trace_(now_, p.payload.size(), rx_flow_);
      }
      return;  // simulated loss; guest must retransmit
    }
    if (p.tcp.seq == conn.rcv_nxt) {
      conn.rcv_nxt += p.payload.size();
      TcpSend(conn, kTcpAck, {});
      AppBytes(conn, p.payload);
    } else {
      // Out-of-order (e.g. duplicate after a drop): re-ACK what we have.
      TcpSend(conn, kTcpAck, {});
    }
  }
  if (p.tcp.flags & kTcpFin) {
    conn.rcv_nxt += 1;
    TcpSend(conn, kTcpAck | kTcpFin, {});
    conn.state = TcpConn::State::kClosed;
  }
}

void Gateway::AppBytes(TcpConn& conn, const Bytes& data) {
  if (conn.local_port == kEchoPort) {
    TcpSend(conn, kTcpAck | kTcpPsh, data);
    return;
  }
  conn.inbound.insert(conn.inbound.end(), data.begin(), data.end());
  TlsServerInput(conn);
}

void Gateway::SendTlsRecord(TcpConn& conn, uint8_t type, Bytes body) {
  if (type == kTlsRecordData && conn.tls_established) {
    // Encrypt + MAC (server-to-client key).
    Bytes wire;
    wire.push_back(static_cast<uint8_t>(conn.tls_tx_counter >> 8));
    wire.push_back(static_cast<uint8_t>(conn.tls_tx_counter));
    crypto::ChaCha20Xor(conn.key_s2c, conn.tls_tx_counter, 0, body.data(),
                        body.size());
    wire.insert(wire.end(), body.begin(), body.end());
    const auto mac = conn.mac.Mac(wire.data(), wire.size());
    wire.insert(wire.end(), mac.begin(), mac.begin() + 16);
    ++conn.tls_tx_counter;
    body = std::move(wire);
  }
  Bytes record;
  record.push_back(type);
  record.push_back(static_cast<uint8_t>(body.size() >> 8));
  record.push_back(static_cast<uint8_t>(body.size()));
  record.insert(record.end(), body.begin(), body.end());
  TcpSend(conn, kTcpAck | kTcpPsh, record);
}

void Gateway::TlsServerInput(TcpConn& conn) {
  for (;;) {
    if (conn.inbound.size() < 3) {
      return;
    }
    const uint8_t type = conn.inbound[0];
    const size_t len = (static_cast<size_t>(conn.inbound[1]) << 8) |
                       conn.inbound[2];
    if (conn.inbound.size() < 3 + len) {
      return;
    }
    Bytes body(conn.inbound.begin() + 3, conn.inbound.begin() + 3 + len);
    conn.inbound.erase(conn.inbound.begin(), conn.inbound.begin() + 3 + len);

    if (type == kTlsRecordHello && !conn.tls_established) {
      // ClientHello: random(32) || dh_pub(8).
      if (body.size() < 40) {
        continue;
      }
      crypto::Digest client_random;
      std::memcpy(client_random.data(), body.data(), 32);
      uint64_t client_pub = 0;
      for (int i = 0; i < 8; ++i) {
        client_pub |= static_cast<uint64_t>(body[32 + i]) << (8 * i);
      }
      entropy_ = entropy_ * 6364136223846793005ull + 1442695040888963407ull;
      const auto kp = crypto::DhGenerate(entropy_);
      const uint64_t shared = crypto::DhShared(kp.secret, client_pub);
      crypto::Digest server_random =
          crypto::Sha256(reinterpret_cast<const uint8_t*>(&entropy_), 8);
      const crypto::Digest salt =
          crypto::HandshakeSalt(client_random, server_random);
      conn.key_c2s = crypto::DeriveKey(shared, salt, "c2s");
      conn.key_s2c = crypto::DeriveKey(shared, salt, "s2c");
      conn.mac = crypto::HmacKey(crypto::DeriveKey(shared, salt, "mac"));
      // ServerHello: server_random(32) || dh_pub(8) || verify(16).
      Bytes hello(server_random.begin(), server_random.end());
      for (int i = 0; i < 8; ++i) {
        hello.push_back(static_cast<uint8_t>(kp.public_value >> (8 * i)));
      }
      const auto verify = conn.mac.Mac(salt.data(), salt.size());
      hello.insert(hello.end(), verify.begin(), verify.begin() + 16);
      conn.tls_established = true;  // keys live from here
      conn.tls_tx_counter = 0;
      conn.tls_rx_counter = 0;
      SendTlsRecord(conn, kTlsRecordHello, std::move(hello));
      continue;
    }
    if (type == kTlsRecordData && conn.tls_established) {
      // [ctr u16][ciphertext][mac16]
      if (body.size() < 18) {
        continue;
      }
      const size_t cipher_len = body.size() - 18;
      const auto mac = conn.mac.Mac(body.data(), 2 + cipher_len);
      if (std::memcmp(mac.data(), body.data() + 2 + cipher_len, 16) != 0) {
        LOG_WARN("world: TLS MAC mismatch, dropping record");
        continue;
      }
      const uint32_t ctr = (static_cast<uint32_t>(body[0]) << 8) | body[1];
      Bytes plain(body.begin() + 2, body.begin() + 2 + cipher_len);
      crypto::ChaCha20Xor(conn.key_c2s, ctr, 0, plain.data(), plain.size());
      // MQTT-lite message(s).
      size_t pos = 0;
      while (pos + 3 <= plain.size()) {
        const uint8_t op = plain[pos];
        const size_t mlen = (static_cast<size_t>(plain[pos + 1]) << 8) |
                            plain[pos + 2];
        if (pos + 3 + mlen > plain.size()) {
          break;
        }
        MqttServerMessage(conn, op,
                          Bytes(plain.begin() + pos + 3,
                                plain.begin() + pos + 3 + mlen));
        pos += 3 + mlen;
      }
    }
  }
}

void Gateway::MqttServerMessage(TcpConn& conn, uint8_t op, const Bytes& body) {
  auto reply = [&](uint8_t rop, const Bytes& rbody) {
    Bytes msg;
    msg.push_back(rop);
    msg.push_back(static_cast<uint8_t>(rbody.size() >> 8));
    msg.push_back(static_cast<uint8_t>(rbody.size()));
    msg.insert(msg.end(), rbody.begin(), rbody.end());
    SendTlsRecord(conn, kTlsRecordData, std::move(msg));
  };
  switch (op) {
    case kMqttConnect:
      conn.mqtt_connected = true;
      reply(kMqttConnAck, {});
      break;
    case kMqttSubscribe:
      subscriptions_.push_back(std::string(body.begin(), body.end()));
      conn.topics.push_back(std::string(body.begin(), body.end()));
      reply(kMqttSubAck, {});
      break;
    case kMqttPublish: {
      ++mqtt_rx_publishes_;
      ++publishes_by_ip_[conn.peer_ip];
      // PUBLISH body: [topic_len u8][topic][payload].
      std::string topic;
      if (!body.empty() && body.size() >= 1 + static_cast<size_t>(body[0])) {
        topic.assign(body.begin() + 1, body.begin() + 1 + body[0]);
      }
      // Publish span: every frame emitted between Begin and End is one
      // broker->subscriber fan-out leg, parented to the carrying frame.
      if (flow_ != nullptr) {
        flow_->BeginPublish(topic, rx_flow_, now_);
      }
      if (options_.mqtt_fanout && !topic.empty()) {
        for (auto& [skey, sub] : conns_) {
          if (&sub == &conn || !sub.mqtt_connected ||
              sub.state != TcpConn::State::kEstablished) {
            continue;
          }
          if (std::find(sub.topics.begin(), sub.topics.end(), topic) ==
              sub.topics.end()) {
            continue;
          }
          Bytes msg;
          msg.push_back(kMqttPublish);
          msg.push_back(static_cast<uint8_t>(body.size() >> 8));
          msg.push_back(static_cast<uint8_t>(body.size()));
          msg.insert(msg.end(), body.begin(), body.end());
          SendTlsRecord(sub, kTlsRecordData, std::move(msg));
        }
      }
      if (flow_ != nullptr) {
        flow_->EndPublish();
      }
      break;
    }
    case kMqttPingReq:
      reply(kMqttPingResp, {});
      break;
    default:
      break;
  }
}

size_t Gateway::mqtt_clients_connected() const {
  size_t n = 0;
  for (const auto& [key, conn] : conns_) {
    if (conn.mqtt_connected && conn.state == TcpConn::State::kEstablished) {
      ++n;
    }
  }
  return n;
}

void Gateway::PublishMqtt(Cycles now, const std::string& topic,
                          const Bytes& payload) {
  now_ = now;
  rx_flow_ = {};  // control-surface publish: no carrying guest frame
  if (flow_ != nullptr) {
    flow_->BeginPublish(topic, rx_flow_, now_);
  }
  for (auto& [key, conn] : conns_) {
    if (!conn.mqtt_connected || conn.state != TcpConn::State::kEstablished) {
      continue;
    }
    Bytes body;
    body.push_back(static_cast<uint8_t>(topic.size()));
    body.insert(body.end(), topic.begin(), topic.end());
    body.insert(body.end(), payload.begin(), payload.end());
    Bytes msg;
    msg.push_back(kMqttPublish);
    msg.push_back(static_cast<uint8_t>(body.size() >> 8));
    msg.push_back(static_cast<uint8_t>(body.size()));
    msg.insert(msg.end(), body.begin(), body.end());
    SendTlsRecord(conn, kTlsRecordData, std::move(msg));
  }
  if (flow_ != nullptr) {
    flow_->EndPublish();
  }
}

void Gateway::SendPing(Cycles now, Ipv4 dst, uint16_t id, uint16_t seq,
                       size_t payload_len) {
  now_ = now;
  rx_flow_ = {};
  Bytes payload(payload_len, 0xA5);
  const MacAddress dst_mac = pool_.MacOf(dst).value_or(kDeviceMac);
  Emit(BuildIpv4(kWorldMac, dst_mac, kWorldIp, dst, kIpProtoIcmp,
                 BuildIcmpEcho(8, id, seq, payload)));
}

void Gateway::SendPingOfDeath(Cycles now, Ipv4 dst) {
  now_ = now;
  rx_flow_ = {};
  // Claims 1400 bytes of echo payload while carrying only 8: the buggy
  // parser copies the claimed length and runs off the end of its buffer.
  Bytes payload(8, 0xEE);
  const MacAddress dst_mac = pool_.MacOf(dst).value_or(kDeviceMac);
  Emit(BuildIpv4(kWorldMac, dst_mac, kWorldIp, dst, kIpProtoIcmp,
                 BuildIcmpEcho(8, 0xDEAD, 1, payload,
                               /*claimed_len_override=*/1400)));
}

// --- NetWorld --------------------------------------------------------------

NetWorld::NetWorld(Machine& machine, WorldOptions options)
    : machine_(machine), options_(options), gateway_(options) {
  // The gateway processes guest frames synchronously inside the TX-commit
  // MMIO store, so "emit time" equals the frame's transmit time and every
  // reply lands exactly one link latency after the guest's transmit — the
  // same round-trip a fleet board sees through the fabric.
  gateway_.set_emit([this](Bytes frame, flow::FlowId flow) {
    machine_.ethernet().InjectAt(
        machine_.clock().now() + options_.link_latency, std::move(frame),
        flow);
  });
  // Injected gateway losses reach the machine's observers as frame drops —
  // the drop hook is a pure observation on a path the gateway already
  // executes, so the cycle model is untouched.
  gateway_.set_drop_trace([this](Cycles, size_t bytes, flow::FlowId id) {
    for (obs::Observer* o : machine_.observers()) {
      o->OnFrameDrop(flow::kDropGatewayTcp, bytes, id);
    }
  });
  machine_.ethernet().on_transmit = [this](Bytes frame, flow::FlowId flow) {
    gateway_.OnFrame(machine_.clock().now(), frame, flow);
  };
}

void NetWorld::PublishMqtt(const std::string& topic, const Bytes& payload) {
  gateway_.PublishMqtt(machine_.clock().now(), topic, payload);
}

void NetWorld::SendPing(uint16_t id, uint16_t seq, size_t payload_len) {
  gateway_.SendPing(machine_.clock().now(), kDeviceIp, id, seq, payload_len);
}

void NetWorld::SendPingOfDeath() {
  gateway_.SendPingOfDeath(machine_.clock().now(), kDeviceIp);
}

}  // namespace cheriot::net
