#include "src/net/crypto.h"

#include <algorithm>
#include <cstring>

namespace cheriot::net::crypto {

namespace {

inline uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }
inline uint32_t Rotl(uint32_t x, int n) { return (x << n) | (x >> (32 - n)); }

constexpr uint32_t kSha256K[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::array<uint32_t, 8> kSha256Init = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

void Sha256Block(uint32_t state[8], const uint8_t block[64]) {
  uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<uint32_t>(block[4 * i]) << 24) |
           (static_cast<uint32_t>(block[4 * i + 1]) << 16) |
           (static_cast<uint32_t>(block[4 * i + 2]) << 8) |
           block[4 * i + 3];
  }
  for (int i = 16; i < 64; ++i) {
    const uint32_t s0 = Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const uint32_t s1 = Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }
  uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
  for (int i = 0; i < 64; ++i) {
    const uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
    const uint32_t ch = (e & f) ^ (~e & g);
    const uint32_t t1 = h + s1 + ch + kSha256K[i] + w[i];
    const uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
    const uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const uint32_t t2 = s0 + maj;
    h = g; g = f; f = e; e = d + t1;
    d = c; c = b; b = a; a = t1 + t2;
  }
  state[0] += a; state[1] += b; state[2] += c; state[3] += d;
  state[4] += e; state[5] += f; state[6] += g; state[7] += h;
}

// Finishes a hash from chaining state `state`, which has already absorbed
// `prefix_bytes` (whole blocks): absorbs `data`, pads with the total length
// and returns the digest.
Digest Sha256Finish(std::array<uint32_t, 8> state, const uint8_t* data,
                    size_t len, uint64_t prefix_bytes) {
  size_t full = len / 64;
  for (size_t i = 0; i < full; ++i) {
    Sha256Block(state.data(), data + 64 * i);
  }
  uint8_t tail[128] = {};
  const size_t rem = len - full * 64;
  if (rem > 0) {
    std::memcpy(tail, data + full * 64, rem);
  }
  tail[rem] = 0x80;
  const size_t tail_len = (rem + 9 <= 64) ? 64 : 128;
  const uint64_t bits = (prefix_bytes + len) * 8;
  for (int i = 0; i < 8; ++i) {
    tail[tail_len - 1 - i] = static_cast<uint8_t>(bits >> (8 * i));
  }
  Sha256Block(state.data(), tail);
  if (tail_len == 128) {
    Sha256Block(state.data(), tail + 64);
  }
  Digest out;
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<uint8_t>(state[i] >> 24);
    out[4 * i + 1] = static_cast<uint8_t>(state[i] >> 16);
    out[4 * i + 2] = static_cast<uint8_t>(state[i] >> 8);
    out[4 * i + 3] = static_cast<uint8_t>(state[i]);
  }
  return out;
}

}  // namespace

Digest Sha256(const uint8_t* data, size_t len) {
  return Sha256Finish(kSha256Init, data, len, 0);
}

Digest Sha256(const std::vector<uint8_t>& data) {
  return Sha256(data.data(), data.size());
}

Digest HmacSha256(const uint8_t* key, size_t key_len, const uint8_t* data,
                  size_t len) {
  uint8_t k[64] = {};
  if (key_len > 64) {
    const Digest kd = Sha256(key, key_len);
    std::memcpy(k, kd.data(), kd.size());
  } else {
    std::memcpy(k, key, key_len);
  }
  std::vector<uint8_t> inner(64 + len);
  for (int i = 0; i < 64; ++i) {
    inner[i] = k[i] ^ 0x36;
  }
  std::memcpy(inner.data() + 64, data, len);
  const Digest inner_digest = Sha256(inner);
  std::vector<uint8_t> outer(64 + 32);
  for (int i = 0; i < 64; ++i) {
    outer[i] = k[i] ^ 0x5c;
  }
  std::memcpy(outer.data() + 64, inner_digest.data(), 32);
  return Sha256(outer);
}

HmacKey::HmacKey(const uint8_t* key, size_t key_len)
    : inner_(kSha256Init), outer_(kSha256Init) {
  uint8_t k[64] = {};
  if (key_len > 64) {
    const Digest kd = Sha256(key, key_len);
    std::memcpy(k, kd.data(), kd.size());
  } else if (key_len > 0) {
    std::memcpy(k, key, key_len);
  }
  uint8_t pad[64];
  for (int i = 0; i < 64; ++i) {
    pad[i] = k[i] ^ 0x36;
  }
  Sha256Block(inner_.data(), pad);
  for (int i = 0; i < 64; ++i) {
    pad[i] = k[i] ^ 0x5c;
  }
  Sha256Block(outer_.data(), pad);
}

Digest HmacKey::Mac(const uint8_t* data, size_t len) const {
  const Digest inner = Sha256Finish(inner_, data, len, 64);
  return Sha256Finish(outer_, inner.data(), inner.size(), 64);
}

namespace {
inline void QuarterRound(uint32_t& a, uint32_t& b, uint32_t& c, uint32_t& d) {
  a += b; d ^= a; d = Rotl(d, 16);
  c += d; b ^= c; b = Rotl(b, 12);
  a += b; d ^= a; d = Rotl(d, 8);
  c += d; b ^= c; b = Rotl(b, 7);
}
}  // namespace

void ChaCha20Xor(const Key& key, uint64_t nonce, uint32_t counter,
                 uint8_t* data, size_t len) {
  uint32_t init[16];
  init[0] = 0x61707865; init[1] = 0x3320646e;
  init[2] = 0x79622d32; init[3] = 0x6b206574;
  for (int i = 0; i < 8; ++i) {
    init[4 + i] = static_cast<uint32_t>(key[4 * i]) |
                  (static_cast<uint32_t>(key[4 * i + 1]) << 8) |
                  (static_cast<uint32_t>(key[4 * i + 2]) << 16) |
                  (static_cast<uint32_t>(key[4 * i + 3]) << 24);
  }
  size_t offset = 0;
  while (offset < len) {
    init[12] = counter++;
    init[13] = 0;
    init[14] = static_cast<uint32_t>(nonce);
    init[15] = static_cast<uint32_t>(nonce >> 32);
    uint32_t x[16];
    std::memcpy(x, init, sizeof(x));
    for (int round = 0; round < 10; ++round) {
      QuarterRound(x[0], x[4], x[8], x[12]);
      QuarterRound(x[1], x[5], x[9], x[13]);
      QuarterRound(x[2], x[6], x[10], x[14]);
      QuarterRound(x[3], x[7], x[11], x[15]);
      QuarterRound(x[0], x[5], x[10], x[15]);
      QuarterRound(x[1], x[6], x[11], x[12]);
      QuarterRound(x[2], x[7], x[8], x[13]);
      QuarterRound(x[3], x[4], x[9], x[14]);
    }
    uint8_t stream[64];
    for (int i = 0; i < 16; ++i) {
      const uint32_t v = x[i] + init[i];
      stream[4 * i] = static_cast<uint8_t>(v);
      stream[4 * i + 1] = static_cast<uint8_t>(v >> 8);
      stream[4 * i + 2] = static_cast<uint8_t>(v >> 16);
      stream[4 * i + 3] = static_cast<uint8_t>(v >> 24);
    }
    const size_t n = std::min<size_t>(64, len - offset);
    for (size_t i = 0; i < n; ++i) {
      data[offset + i] ^= stream[i];
    }
    offset += n;
  }
}

namespace {
// 2^61 - 1 (Mersenne prime) with generator 3: toy group, simulation only.
constexpr uint64_t kDhPrime = (1ull << 61) - 1;
constexpr uint64_t kDhGenerator = 3;

uint64_t MulMod(uint64_t a, uint64_t b, uint64_t m) {
  return static_cast<uint64_t>(
      (static_cast<unsigned __int128>(a) * b) % m);
}

uint64_t PowMod(uint64_t base, uint64_t exp, uint64_t m) {
  uint64_t result = 1;
  base %= m;
  while (exp > 0) {
    if (exp & 1) {
      result = MulMod(result, base, m);
    }
    base = MulMod(base, base, m);
    exp >>= 1;
  }
  return result;
}
}  // namespace

DhKeyPair DhGenerate(uint64_t entropy) {
  DhKeyPair kp;
  kp.secret = (entropy | 1) % kDhPrime;
  kp.public_value = PowMod(kDhGenerator, kp.secret, kDhPrime);
  return kp;
}

uint64_t DhShared(uint64_t secret, uint64_t peer_public) {
  return PowMod(peer_public, secret, kDhPrime);
}

Digest HandshakeSalt(const Digest& client_random, const Digest& server_random) {
  std::array<uint8_t, 64> input;
  std::copy(client_random.begin(), client_random.end(), input.begin());
  std::copy(server_random.begin(), server_random.end(), input.begin() + 32);
  return Sha256(input.data(), input.size());
}

Key DeriveKey(uint64_t shared, const Digest& salt, const char* label) {
  std::vector<uint8_t> input;
  for (int i = 0; i < 8; ++i) {
    input.push_back(static_cast<uint8_t>(shared >> (8 * i)));
  }
  for (const char* p = label; *p; ++p) {
    input.push_back(static_cast<uint8_t>(*p));
  }
  const Digest d =
      HmacSha256(salt.data(), salt.size(), input.data(), input.size());
  Key key;
  std::memcpy(key.data(), d.data(), key.size());
  return key;
}

}  // namespace cheriot::net::crypto
