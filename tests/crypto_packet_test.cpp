// Unit tests for the network substrate: crypto primitives against known
// vectors, packet builders/parsers, and the reader's over-read safety.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/net/crypto.h"
#include "src/net/packet.h"
#include "src/net/world.h"

namespace cheriot::net {
namespace {

std::string Hex(const uint8_t* data, size_t len) {
  std::string out;
  char buf[4];
  for (size_t i = 0; i < len; ++i) {
    std::snprintf(buf, sizeof(buf), "%02x", data[i]);
    out += buf;
  }
  return out;
}

// --- SHA-256 (FIPS 180-2 test vectors) ---

TEST(Crypto, Sha256EmptyString) {
  const auto d = crypto::Sha256(nullptr, 0);
  EXPECT_EQ(Hex(d.data(), 32),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Crypto, Sha256Abc) {
  const uint8_t msg[] = "abc";
  const auto d = crypto::Sha256(msg, 3);
  EXPECT_EQ(Hex(d.data(), 32),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Crypto, Sha256TwoBlocks) {
  const char* msg =
      "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
  const auto d =
      crypto::Sha256(reinterpret_cast<const uint8_t*>(msg), std::strlen(msg));
  EXPECT_EQ(Hex(d.data(), 32),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Crypto, Sha256MillionAs) {
  std::vector<uint8_t> msg(1'000'000, 'a');
  const auto d = crypto::Sha256(msg);
  EXPECT_EQ(Hex(d.data(), 32),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

// --- HMAC-SHA256 (RFC 4231 test case 2) ---

TEST(Crypto, HmacRfc4231Case2) {
  const uint8_t key[] = "Jefe";
  const uint8_t data[] = "what do ya want for nothing?";
  const auto mac = crypto::HmacSha256(key, 4, data, 28);
  EXPECT_EQ(Hex(mac.data(), 32),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

// The precomputed-pad form equals the byte-key form at every message length
// around the padding edges (55/56 and 119/120 bytes change the inner hash's
// block count), for a session-sized key and for short and over-long keys.
TEST(Crypto, HmacKeyMatchesHmacSha256) {
  std::vector<uint8_t> msg(300);
  for (size_t i = 0; i < msg.size(); ++i) {
    msg[i] = static_cast<uint8_t>(i * 37 + 11);
  }
  crypto::Key session;
  for (size_t i = 0; i < session.size(); ++i) {
    session[i] = static_cast<uint8_t>(0xA5 ^ i);
  }
  const crypto::HmacKey key(session);
  for (size_t len = 0; len <= msg.size(); ++len) {
    EXPECT_EQ(key.Mac(msg.data(), len),
              crypto::HmacSha256(session.data(), session.size(), msg.data(),
                                 len))
        << "length " << len;
  }
  const uint8_t jefe[] = "Jefe";
  const uint8_t data[] = "what do ya want for nothing?";
  const auto mac = crypto::HmacKey(jefe, 4).Mac(data, 28);
  EXPECT_EQ(Hex(mac.data(), 32),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
  const std::vector<uint8_t> long_key(100, 0xAA);
  EXPECT_EQ(crypto::HmacKey(long_key.data(), long_key.size()).Mac(data, 28),
            crypto::HmacSha256(long_key.data(), long_key.size(), data, 28));
}

// --- ChaCha20: symmetric and length-robust ---

TEST(Crypto, ChaCha20RoundTrip) {
  crypto::Key key{};
  for (int i = 0; i < 32; ++i) {
    key[i] = static_cast<uint8_t>(i);
  }
  std::vector<uint8_t> data(300);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 7);
  }
  const std::vector<uint8_t> original = data;
  crypto::ChaCha20Xor(key, /*nonce=*/42, /*counter=*/0, data.data(),
                      data.size());
  EXPECT_NE(data, original);
  crypto::ChaCha20Xor(key, 42, 0, data.data(), data.size());
  EXPECT_EQ(data, original);
}

TEST(Crypto, ChaCha20DifferentNoncesDiffer) {
  crypto::Key key{};
  std::vector<uint8_t> a(64, 0);
  std::vector<uint8_t> b(64, 0);
  crypto::ChaCha20Xor(key, 1, 0, a.data(), a.size());
  crypto::ChaCha20Xor(key, 2, 0, b.data(), b.size());
  EXPECT_NE(a, b);
}

// --- Toy DH ---

TEST(Crypto, DhAgreement) {
  const auto alice = crypto::DhGenerate(0x1234567890ABCDEFull);
  const auto bob = crypto::DhGenerate(0xFEDCBA0987654321ull);
  EXPECT_NE(alice.public_value, bob.public_value);
  EXPECT_EQ(crypto::DhShared(alice.secret, bob.public_value),
            crypto::DhShared(bob.secret, alice.public_value));
}

TEST(Crypto, DeriveKeyDependsOnAllInputs) {
  crypto::Digest salt_a{};
  crypto::Digest salt_b{};
  salt_b[0] = 1;
  const auto k1 = crypto::DeriveKey(1, salt_a, "c2s");
  const auto k2 = crypto::DeriveKey(1, salt_a, "s2c");
  const auto k3 = crypto::DeriveKey(2, salt_a, "c2s");
  const auto k4 = crypto::DeriveKey(1, salt_b, "c2s");
  EXPECT_NE(k1, k2);
  EXPECT_NE(k1, k3);
  EXPECT_NE(k1, k4);
}

// --- Packet builders and parser ---

TEST(Packet, ArpRoundTrip) {
  const Bytes frame = BuildArpRequest(kDeviceMac, kDeviceIp, kWorldIp);
  const ParsedFrame p = ParseFrame(frame);
  ASSERT_TRUE(p.valid);
  EXPECT_TRUE(p.is_arp);
  EXPECT_TRUE(p.arp_is_request);
  EXPECT_EQ(p.arp_sender_ip, kDeviceIp);
  EXPECT_EQ(p.arp_target_ip, kWorldIp);
  EXPECT_EQ(p.arp_sender_mac, kDeviceMac);
}

TEST(Packet, UdpRoundTrip) {
  const Bytes payload = {'h', 'i'};
  const Bytes frame = BuildIpv4(kDeviceMac, kWorldMac, kDeviceIp, kWorldIp,
                                kIpProtoUdp, BuildUdp(1000, 53, payload));
  const ParsedFrame p = ParseFrame(frame);
  ASSERT_TRUE(p.valid);
  EXPECT_TRUE(p.is_udp);
  EXPECT_EQ(p.ip.src, kDeviceIp);
  EXPECT_EQ(p.ip.dst, kWorldIp);
  EXPECT_EQ(p.udp.src_port, 1000);
  EXPECT_EQ(p.udp.dst_port, 53);
  EXPECT_EQ(p.payload, payload);
}

TEST(Packet, TcpRoundTrip) {
  TcpHeader h;
  h.src_port = 49152;
  h.dst_port = 8883;
  h.seq = 0x11223344;
  h.ack = 0x55667788;
  h.flags = kTcpAck | kTcpPsh;
  const Bytes payload = {1, 2, 3, 4, 5};
  const Bytes frame = BuildIpv4(kDeviceMac, kWorldMac, kDeviceIp, kWorldIp,
                                kIpProtoTcp, BuildTcp(h, payload));
  const ParsedFrame p = ParseFrame(frame);
  ASSERT_TRUE(p.valid);
  EXPECT_TRUE(p.is_tcp);
  EXPECT_EQ(p.tcp.src_port, 49152);
  EXPECT_EQ(p.tcp.dst_port, 8883);
  EXPECT_EQ(p.tcp.seq, 0x11223344u);
  EXPECT_EQ(p.tcp.ack, 0x55667788u);
  EXPECT_EQ(p.tcp.flags, kTcpAck | kTcpPsh);
  EXPECT_EQ(p.payload, payload);
}

TEST(Packet, IcmpCarriesClaimedLength) {
  const Bytes payload(16, 0xAB);
  const Bytes echo = BuildIcmpEcho(8, 7, 9, payload);
  const Bytes frame = BuildIpv4(kWorldMac, kDeviceMac, kWorldIp, kDeviceIp,
                                kIpProtoIcmp, echo);
  const ParsedFrame p = ParseFrame(frame);
  ASSERT_TRUE(p.valid);
  EXPECT_TRUE(p.is_icmp);
  EXPECT_EQ(p.icmp_type, 8);
  EXPECT_EQ(p.icmp_id, 7);
  EXPECT_EQ(p.icmp_seq, 9);
  EXPECT_EQ(p.icmp_claimed_len, 16);
  EXPECT_EQ(p.icmp_payload, payload);
  // The ping-of-death variant claims more than it carries.
  const Bytes pod = BuildIcmpEcho(8, 7, 9, payload, /*claimed=*/1400);
  const ParsedFrame pp = ParseFrame(
      BuildIpv4(kWorldMac, kDeviceMac, kWorldIp, kDeviceIp, kIpProtoIcmp, pod));
  EXPECT_EQ(pp.icmp_claimed_len, 1400);
  EXPECT_EQ(pp.icmp_payload.size(), 16u);
}

TEST(Packet, Ipv4HeaderChecksumValid) {
  const Bytes frame = BuildIpv4(kDeviceMac, kWorldMac, kDeviceIp, kWorldIp,
                                kIpProtoUdp, BuildUdp(1, 2, {}));
  // Verify the checksum over the 20-byte IP header sums to zero.
  EXPECT_EQ(Checksum(frame.data() + 14, 20), 0);
}

TEST(Packet, TruncatedFramesAreInvalid) {
  const Bytes frame = BuildIpv4(kDeviceMac, kWorldMac, kDeviceIp, kWorldIp,
                                kIpProtoUdp, BuildUdp(1000, 53, {'x'}));
  for (size_t len : {0u, 5u, 14u, 20u, 33u}) {
    const Bytes truncated(frame.begin(), frame.begin() + len);
    EXPECT_FALSE(ParseFrame(truncated).valid) << "len=" << len;
  }
}

TEST(Packet, ReaderNeverOverReads) {
  const Bytes tiny = {1, 2, 3};
  PacketReader r(tiny);
  r.U16();
  r.U32();  // over-read
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.Raw(100).size(), 0u);
}

TEST(Packet, UnknownEtherTypeIgnored) {
  PacketWriter w;
  w.Mac(kWorldMac);
  w.Mac(kDeviceMac);
  w.U16(0x86DD);  // IPv6: not supported
  w.U32(0);
  EXPECT_FALSE(ParseFrame(w.Take()).valid);
}

TEST(Packet, IpToStringFormats) {
  EXPECT_EQ(IpToString(IpFromParts(10, 0, 0, 2)), "10.0.0.2");
  EXPECT_EQ(IpFromParts(10, 0, 0, 2), kDeviceIp);
}

}  // namespace
}  // namespace cheriot::net
