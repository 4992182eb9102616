#include "src/net/packet.h"

#include <cstdio>
#include <cstring>

namespace cheriot::net {

std::string IpToString(Ipv4 ip) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u", (ip >> 24) & 0xFF,
                (ip >> 16) & 0xFF, (ip >> 8) & 0xFF, ip & 0xFF);
  return buf;
}

Ipv4 IpFromParts(uint8_t a, uint8_t b, uint8_t c, uint8_t d) {
  return (static_cast<Ipv4>(a) << 24) | (static_cast<Ipv4>(b) << 16) |
         (static_cast<Ipv4>(c) << 8) | d;
}

uint8_t PacketReader::U8() {
  if (pos_ + 1 > size()) {
    ok_ = false;
    return 0;
  }
  return base()[pos_++];
}

uint16_t PacketReader::U16() {
  const uint16_t hi = U8();
  return static_cast<uint16_t>((hi << 8) | U8());
}

uint32_t PacketReader::U32() {
  const uint32_t hi = U16();
  return (hi << 16) | U16();
}

MacAddress PacketReader::Mac() {
  MacAddress mac{};
  // Indexed, not range-for: GCC 12 at -O3 reports the inlined range-for as a
  // -Wstringop-overflow write past the array.
  for (size_t i = 0; i < mac.size(); ++i) {
    mac[i] = U8();
  }
  return mac;
}

Bytes PacketReader::Raw(size_t len) {
  if (pos_ + len > size()) {
    ok_ = false;
    return {};
  }
  Bytes out(base() + pos_, base() + pos_ + len);
  pos_ += len;
  return out;
}

void PacketReader::Skip(size_t len) {
  if (pos_ + len > size()) {
    ok_ = false;
    pos_ = size();
  } else {
    pos_ += len;
  }
}

uint16_t Checksum(const uint8_t* data, size_t len, uint32_t seed) {
  uint32_t sum = seed;
  for (size_t i = 0; i + 1 < len; i += 2) {
    sum += (static_cast<uint32_t>(data[i]) << 8) | data[i + 1];
  }
  if (len & 1) {
    sum += static_cast<uint32_t>(data[len - 1]) << 8;
  }
  while (sum >> 16) {
    sum = (sum & 0xFFFF) + (sum >> 16);
  }
  return static_cast<uint16_t>(~sum);
}

namespace {
void WriteEthernet(PacketWriter* w, const MacAddress& dst,
                   const MacAddress& src, uint16_t ethertype) {
  w->Mac(dst);
  w->Mac(src);
  w->U16(ethertype);
}

constexpr MacAddress kBroadcast = {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF};
}  // namespace

Bytes BuildArpRequest(const MacAddress& src_mac, Ipv4 src_ip, Ipv4 target_ip) {
  PacketWriter w;
  WriteEthernet(&w, kBroadcast, src_mac, kEtherTypeArp);
  w.U16(1);       // HW type: Ethernet
  w.U16(0x0800);  // protocol: IPv4
  w.U8(6);
  w.U8(4);
  w.U16(1);  // request
  w.Mac(src_mac);
  w.U32(src_ip);
  w.Mac(MacAddress{});
  w.U32(target_ip);
  return w.Take();
}

Bytes BuildArpReply(const MacAddress& src_mac, Ipv4 src_ip,
                    const MacAddress& dst_mac, Ipv4 dst_ip) {
  PacketWriter w;
  WriteEthernet(&w, dst_mac, src_mac, kEtherTypeArp);
  w.U16(1);
  w.U16(0x0800);
  w.U8(6);
  w.U8(4);
  w.U16(2);  // reply
  w.Mac(src_mac);
  w.U32(src_ip);
  w.Mac(dst_mac);
  w.U32(dst_ip);
  return w.Take();
}

Bytes BuildIpv4(const MacAddress& src_mac, const MacAddress& dst_mac,
                Ipv4 src_ip, Ipv4 dst_ip, uint8_t protocol,
                const Bytes& l4_payload) {
  PacketWriter w;
  WriteEthernet(&w, dst_mac, src_mac, kEtherTypeIpv4);
  const size_t ip_start = w.size();
  w.U8(0x45);  // version 4, IHL 5
  w.U8(0);     // DSCP
  w.U16(static_cast<uint16_t>(20 + l4_payload.size()));
  w.U16(0);  // identification
  w.U16(0);  // flags/fragment
  w.U8(64);  // TTL
  w.U8(protocol);
  w.U16(0);  // checksum placeholder
  w.U32(src_ip);
  w.U32(dst_ip);
  const uint16_t csum = Checksum(w.At(ip_start), 20);
  w.At(ip_start + 10)[0] = static_cast<uint8_t>(csum >> 8);
  w.At(ip_start + 10)[1] = static_cast<uint8_t>(csum);
  w.Raw(l4_payload.data(), l4_payload.size());
  return w.Take();
}

Bytes BuildIcmpEcho(uint8_t type, uint16_t id, uint16_t seq,
                    const Bytes& payload, uint16_t claimed_len_override) {
  PacketWriter w;
  w.U8(type);  // 8 = request, 0 = reply
  w.U8(0);
  w.U16(0);  // checksum placeholder
  w.U16(id);
  w.U16(seq);
  // Non-standard but convenient: a 2-byte payload-length field inside the
  // echo data, which the buggy parser trusts (§5.3.3 "ping of death").
  w.U16(claimed_len_override != 0 ? claimed_len_override
                                  : static_cast<uint16_t>(payload.size()));
  w.Raw(payload.data(), payload.size());
  Bytes out = w.Take();
  const uint16_t csum = Checksum(out.data(), out.size());
  out[2] = static_cast<uint8_t>(csum >> 8);
  out[3] = static_cast<uint8_t>(csum);
  return out;
}

Bytes BuildUdp(uint16_t src_port, uint16_t dst_port, const Bytes& payload) {
  PacketWriter w;
  w.U16(src_port);
  w.U16(dst_port);
  w.U16(static_cast<uint16_t>(8 + payload.size()));
  w.U16(0);  // checksum optional in IPv4
  w.Raw(payload.data(), payload.size());
  return w.Take();
}

Bytes BuildTcp(const TcpHeader& header, const Bytes& payload) {
  PacketWriter w;
  w.U16(header.src_port);
  w.U16(header.dst_port);
  w.U32(header.seq);
  w.U32(header.ack);
  w.U8(0x50);  // data offset 5 words
  w.U8(header.flags);
  w.U16(header.window);
  w.U16(0);  // checksum (elided; the simulated link is integrity-checked)
  w.U16(0);  // urgent
  w.Raw(payload.data(), payload.size());
  return w.Take();
}

ParsedFrame ParseFrame(const Bytes& frame) {
  ParsedFrame out;
  PacketReader r(frame);
  out.eth.dst = r.Mac();
  out.eth.src = r.Mac();
  out.eth.ethertype = r.U16();
  if (!r.ok()) {
    return out;
  }
  if (out.eth.ethertype == kEtherTypeArp) {
    out.is_arp = true;
    r.Skip(6);  // hw/proto types and sizes
    const uint16_t op = r.U16();
    out.arp_is_request = (op == 1);
    out.arp_sender_mac = r.Mac();
    out.arp_sender_ip = r.U32();
    r.Mac();
    out.arp_target_ip = r.U32();
    out.valid = r.ok();
    return out;
  }
  if (out.eth.ethertype != kEtherTypeIpv4) {
    return out;
  }
  out.is_ipv4 = true;
  const uint8_t version_ihl = r.U8();
  const size_t ihl = (version_ihl & 0xF) * 4;
  r.U8();
  out.ip.total_length = r.U16();
  r.U32();  // id/frag
  out.ip.ttl = r.U8();
  out.ip.protocol = r.U8();
  r.U16();  // checksum
  out.ip.src = r.U32();
  out.ip.dst = r.U32();
  if (ihl > 20) {
    r.Skip(ihl - 20);
  }
  if (!r.ok()) {
    return out;
  }
  if (out.ip.protocol == kIpProtoIcmp) {
    out.is_icmp = true;
    out.icmp_type = r.U8();
    r.U8();
    r.U16();  // checksum
    out.icmp_id = r.U16();
    out.icmp_seq = r.U16();
    out.icmp_claimed_len = r.U16();
    out.icmp_payload = r.Raw(r.remaining());
    out.valid = r.ok();
    return out;
  }
  if (out.ip.protocol == kIpProtoUdp) {
    out.is_udp = true;
    out.udp.src_port = r.U16();
    out.udp.dst_port = r.U16();
    const uint16_t len = r.U16();
    r.U16();  // checksum
    out.payload = r.Raw(len >= 8 ? len - 8 : 0);
    out.valid = r.ok();
    return out;
  }
  if (out.ip.protocol == kIpProtoTcp) {
    out.is_tcp = true;
    out.tcp.src_port = r.U16();
    out.tcp.dst_port = r.U16();
    out.tcp.seq = r.U32();
    out.tcp.ack = r.U32();
    const uint8_t offset = r.U8() >> 4;
    out.tcp.flags = r.U8();
    out.tcp.window = r.U16();
    r.U32();  // checksum + urgent
    if (offset > 5) {
      r.Skip(static_cast<size_t>(offset - 5) * 4);
    }
    out.payload = r.Raw(r.remaining());
    out.valid = r.ok();
    return out;
  }
  return out;
}

}  // namespace cheriot::net
