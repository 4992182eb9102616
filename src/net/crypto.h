// Simulation-grade cryptography for the TLS-lite stack: real SHA-256,
// HMAC-SHA256 and ChaCha20 implementations, plus a deliberately toy
// Diffie-Hellman key exchange standing in for X25519 (the paper's BearSSL
// substitution, DESIGN.md §1).
//
// !! NOT FOR PRODUCTION USE: the DH group is tiny and the record protocol is
// a teaching vehicle for exercising the compartment graph, not real TLS.
#ifndef SRC_NET_CRYPTO_H_
#define SRC_NET_CRYPTO_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace cheriot::net::crypto {

using Digest = std::array<uint8_t, 32>;
using Key = std::array<uint8_t, 32>;

Digest Sha256(const uint8_t* data, size_t len);
Digest Sha256(const std::vector<uint8_t>& data);

Digest HmacSha256(const uint8_t* key, size_t key_len, const uint8_t* data,
                  size_t len);

// HMAC-SHA256 under one key with its two pad blocks hashed once, up front: a
// TLS session MACs every record under the same key, so each record then
// costs the message's blocks plus one, not plus three. Mac() equals
// HmacSha256 with the same key.
class HmacKey {
 public:
  HmacKey() : HmacKey(nullptr, 0) {}
  HmacKey(const uint8_t* key, size_t key_len);
  explicit HmacKey(const Key& key) : HmacKey(key.data(), key.size()) {}

  Digest Mac(const uint8_t* data, size_t len) const;

 private:
  // SHA-256 chaining states after the (key ^ ipad) and (key ^ opad) blocks.
  std::array<uint32_t, 8> inner_;
  std::array<uint32_t, 8> outer_;
};

// Encrypts/decrypts in place (stream cipher; symmetric).
void ChaCha20Xor(const Key& key, uint64_t nonce, uint32_t counter,
                 uint8_t* data, size_t len);

// Toy DH over a 61-bit prime group (simulation only).
struct DhKeyPair {
  uint64_t secret;
  uint64_t public_value;
};
DhKeyPair DhGenerate(uint64_t entropy);
uint64_t DhShared(uint64_t secret, uint64_t peer_public);

// The handshake's key-derivation salt: SHA256(client_random || server_random).
Digest HandshakeSalt(const Digest& client_random, const Digest& server_random);

// HKDF-ish key derivation: key = HMAC(salt, shared || label).
Key DeriveKey(uint64_t shared, const Digest& salt, const char* label);

// Number of 64-byte blocks a buffer occupies (for cycle accounting).
inline uint64_t BlocksFor(size_t bytes) { return (bytes + 63) / 64; }

}  // namespace cheriot::net::crypto

#endif  // SRC_NET_CRYPTO_H_
