// TLS-lite compartment (the BearSSL substitution): client handshake (toy DH
// + HKDF), ChaCha20 + HMAC-SHA256 record protection, sessions as opaque
// token-sealed handles allocated against the caller's quota. Crypto compute
// is charged to the simulated clock so the Fig. 7 "App. Setup" phase shows
// the handshake-bound 92% CPU load.
#include <array>
#include <cstring>
#include <deque>

#include "src/base/costs.h"
#include "src/hw/devices.h"
#include "src/net/crypto.h"
#include "src/net/netstack.h"
#include "src/net/world.h"
#include "src/runtime/compartment_ctx.h"
#include "src/runtime/hardening.h"
#include "src/sync/sync.h"

namespace cheriot::net {

namespace {

constexpr int kMaxSessions = 4;

struct TlsSession {
  bool live = false;
  uint32_t generation = 0;
  Capability socket;  // TCP socket handle (tcpip compartment)
  crypto::Key key_c2s{};
  crypto::Key key_s2c{};
  crypto::HmacKey mac;
  uint32_t tx_counter = 0;
  uint32_t rx_counter = 0;
  std::deque<uint8_t> plaintext;  // decrypted application bytes
  Bytes raw;                      // undecoded record bytes
};

struct TlsState {
  std::array<TlsSession, kMaxSessions> sessions;
  uint32_t next_generation = 1;
  uint32_t handshakes = 0;
};

TlsSession* FromHandle(CompartmentCtx& ctx, TlsState& state,
                       const Capability& handle) {
  const Capability payload =
      ctx.TokenUnseal(ctx.SealingKey("tls.session"), handle);
  if (!payload.tag()) {
    return nullptr;
  }
  const Word index = ctx.LoadWord(payload, 0);
  const Word generation = ctx.LoadWord(payload, 4);
  if (index >= kMaxSessions || !state.sessions[index].live ||
      state.sessions[index].generation != generation) {
    return nullptr;
  }
  return &state.sessions[index];
}

// Reads more raw bytes from the socket into the session buffer.
Status Refill(CompartmentCtx& ctx, TlsSession& s, Word timeout) {
  auto buf = ctx.AllocStack(512);
  const Capability r = ctx.Call(
      "tcpip.socket_recv", {s.socket, buf.cap(), WordCap(512), WordCap(timeout)});
  const auto n = static_cast<int32_t>(r.word());
  if (n < 0) {
    return static_cast<Status>(n);
  }
  if (n == 0) {
    return Status::kNotFound;  // connection closed
  }
  Bytes chunk(static_cast<size_t>(n));
  ctx.ReadBytes(buf.cap(), 0, chunk.data(), static_cast<Address>(n));
  s.raw.insert(s.raw.end(), chunk.begin(), chunk.end());
  return Status::kOk;
}

// Extracts one full record from s.raw; returns false if incomplete.
bool TakeRecord(TlsSession& s, uint8_t* type, Bytes* body) {
  if (s.raw.size() < 3) {
    return false;
  }
  const size_t len = (static_cast<size_t>(s.raw[1]) << 8) | s.raw[2];
  if (s.raw.size() < 3 + len) {
    return false;
  }
  *type = s.raw[0];
  body->assign(s.raw.begin() + 3, s.raw.begin() + 3 + len);
  s.raw.erase(s.raw.begin(), s.raw.begin() + 3 + len);
  return true;
}

Status SendRecord(CompartmentCtx& ctx, TlsSession& s, uint8_t type,
                  Bytes body) {
  if (type == kTlsRecordData) {
    // Charge the cipher + MAC compute to the simulated clock.
    ctx.Burn(crypto::BlocksFor(body.size()) * cost::kChaCha20PerBlock +
             2 * crypto::BlocksFor(body.size() + 64) * cost::kSha256PerBlock);
    Bytes wire;
    wire.push_back(static_cast<uint8_t>(s.tx_counter >> 8));
    wire.push_back(static_cast<uint8_t>(s.tx_counter));
    crypto::ChaCha20Xor(s.key_c2s, s.tx_counter, 0, body.data(), body.size());
    wire.insert(wire.end(), body.begin(), body.end());
    const auto mac = s.mac.Mac(wire.data(), wire.size());
    wire.insert(wire.end(), mac.begin(), mac.begin() + 16);
    ++s.tx_counter;
    body = std::move(wire);
  }
  Bytes record;
  record.push_back(type);
  record.push_back(static_cast<uint8_t>(body.size() >> 8));
  record.push_back(static_cast<uint8_t>(body.size()));
  record.insert(record.end(), body.begin(), body.end());
  auto buf = ctx.AllocStack(static_cast<Address>(record.size() + 8));
  ctx.WriteBytes(buf.cap(), 0, record.data(),
                 static_cast<Address>(record.size()));
  const Capability view =
      hardening::ReadOnly(buf.cap(), static_cast<Address>(record.size()));
  return static_cast<Status>(static_cast<int32_t>(
      ctx.Call("tcpip.socket_send",
               {s.socket, view, WordCap(static_cast<Word>(record.size()))})
          .word()));
}

// Decrypts a data record into the plaintext queue.
Status AcceptDataRecord(CompartmentCtx& ctx, TlsSession& s, const Bytes& body) {
  if (body.size() < 18) {
    return Status::kInvalidArgument;
  }
  ctx.Burn(crypto::BlocksFor(body.size()) * cost::kChaCha20PerBlock +
           2 * crypto::BlocksFor(body.size() + 64) * cost::kSha256PerBlock);
  const size_t cipher_len = body.size() - 18;
  const auto mac = s.mac.Mac(body.data(), 2 + cipher_len);
  if (std::memcmp(mac.data(), body.data() + 2 + cipher_len, 16) != 0) {
    return Status::kPermissionDenied;  // record forged/corrupted
  }
  const uint32_t ctr = (static_cast<uint32_t>(body[0]) << 8) | body[1];
  Bytes plain(body.begin() + 2, body.begin() + 2 + cipher_len);
  crypto::ChaCha20Xor(s.key_s2c, ctr, 0, plain.data(), plain.size());
  for (uint8_t b : plain) {
    s.plaintext.push_back(b);
  }
  return Status::kOk;
}

}  // namespace

void AddTlsCompartment(ImageBuilder& image, const NetStackOptions& options) {
  if (image.FindCompartment("tls") != nullptr) {
    return;
  }
  auto comp = image.Compartment("tls");
  comp.CodeSize(56 * 1024, /*wrapper=*/static_cast<uint32_t>(56 * 1024 * 0.08))
      .Globals(2400)  // Table 2: 2.4 KB
      .AllocCap("tls_quota", options.tls_quota)
      .OwnSealingType("tls.session")
      .ImportCompartment("tcpip.socket_connect_tcp")
      .ImportCompartment("tcpip.socket_send")
      .ImportCompartment("tcpip.socket_recv")
      .ImportCompartment("tcpip.socket_close")
      .ImportCompartment("alloc.token_obj_new")
      .ImportCompartment("alloc.token_obj_destroy")
      .ImportMmio("entropy", kEntropyMmioBase, kMmioRegionSize, false)
      .State([] { return std::make_shared<TlsState>(); });
  sync::UseScheduler(image, "tls");
  sync::UseAllocator(image, "tls");

  comp.Export(
      "connect",
      [](CompartmentCtx& ctx, const std::vector<Capability>& args) {
        auto& state = ctx.State<TlsState>();
        const Capability caller_quota = args[0];
        const Word ip = args[1].word();
        const Word port = args[2].word();
        const Word timeout = args.size() > 3 ? args[3].word() : 330'000'000;
        int index = -1;
        for (int i = 0; i < kMaxSessions; ++i) {
          if (!state.sessions[i].live) {
            index = i;
            break;
          }
        }
        if (index < 0) {
          return StatusCap(Status::kNoMemory);
        }
        // TCP connect with the caller's quota (delegation all the way down).
        const Capability sock = ctx.Call(
            "tcpip.socket_connect_tcp",
            {caller_quota, WordCap(ip), WordCap(port), WordCap(timeout)});
        if (!sock.tag()) {
          return sock;
        }
        TlsSession& s = state.sessions[index];
        s = TlsSession{};
        s.live = true;
        s.generation = state.next_generation++;
        s.socket = sock;

        // --- Handshake ---
        // Client randomness from the entropy device.
        const Capability entropy = ctx.Mmio("entropy");
        uint64_t seed = ctx.LoadWord(entropy, 0);
        seed = (seed << 32) | ctx.LoadWord(entropy, 0);
        const auto kp = crypto::DhGenerate(seed);
        crypto::Digest client_random =
            crypto::Sha256(reinterpret_cast<const uint8_t*>(&seed), 8);
        // Key exchange cost dominates the handshake (§5.3.3: 92% CPU).
        ctx.Burn(cost::kKeyExchange);

        Bytes hello(client_random.begin(), client_random.end());
        for (int i = 0; i < 8; ++i) {
          hello.push_back(static_cast<uint8_t>(kp.public_value >> (8 * i)));
        }
        Status st = SendRecord(ctx, s, kTlsRecordHello, std::move(hello));
        if (st != Status::kOk) {
          s.live = false;
          return StatusCap(st);
        }
        // Await ServerHello.
        uint8_t type = 0;
        Bytes body;
        const Cycles deadline = ctx.Now() + timeout;
        while (!TakeRecord(s, &type, &body)) {
          if (ctx.Now() >= deadline ||
              Refill(ctx, s, 33'000'000) != Status::kOk) {
            s.live = false;
            return StatusCap(Status::kTimedOut);
          }
        }
        if (type != kTlsRecordHello || body.size() < 56) {
          s.live = false;
          return StatusCap(Status::kPermissionDenied);
        }
        crypto::Digest server_random;
        std::memcpy(server_random.data(), body.data(), 32);
        uint64_t server_pub = 0;
        for (int i = 0; i < 8; ++i) {
          server_pub |= static_cast<uint64_t>(body[32 + i]) << (8 * i);
        }
        const uint64_t shared = crypto::DhShared(kp.secret, server_pub);
        const crypto::Digest salt =
            crypto::HandshakeSalt(client_random, server_random);
        s.key_c2s = crypto::DeriveKey(shared, salt, "c2s");
        s.key_s2c = crypto::DeriveKey(shared, salt, "s2c");
        s.mac = crypto::HmacKey(crypto::DeriveKey(shared, salt, "mac"));
        // Verify the server's transcript MAC.
        const auto verify = s.mac.Mac(salt.data(), salt.size());
        if (std::memcmp(verify.data(), body.data() + 40, 16) != 0) {
          s.live = false;
          return StatusCap(Status::kPermissionDenied);
        }
        ++state.handshakes;
        // Issue the opaque session handle with the caller's quota.
        const Capability key = ctx.SealingKey("tls.session");
        const Capability handle = ctx.TokenObjNew(caller_quota, key, 8);
        if (!handle.tag()) {
          s.live = false;
          return handle;
        }
        const Capability payload = ctx.TokenUnseal(key, handle);
        ctx.StoreWord(payload, 0, static_cast<Word>(index));
        ctx.StoreWord(payload, 4, s.generation);
        return handle;
      },
      4096, InterruptPosture::kEnabled);

  comp.Export(
      "send",
      [](CompartmentCtx& ctx, const std::vector<Capability>& args) {
        auto& state = ctx.State<TlsState>();
        TlsSession* s = FromHandle(ctx, state, args[0]);
        const Capability buf = args[1];
        const Word len = args[2].word();
        if (s == nullptr ||
            !hardening::CheckPointer(buf, len,
                                     PermissionSet({Permission::kLoad}))) {
          return StatusCap(Status::kInvalidArgument);
        }
        Bytes data(len);
        ctx.ReadBytes(buf, 0, data.data(), len);
        return StatusCap(SendRecord(ctx, *s, kTlsRecordData, std::move(data)));
      },
      4096, InterruptPosture::kEnabled);

  comp.Export(
      "recv",
      [](CompartmentCtx& ctx, const std::vector<Capability>& args) {
        auto& state = ctx.State<TlsState>();
        TlsSession* s = FromHandle(ctx, state, args[0]);
        const Capability buf = args[1];
        const Word maxlen = args[2].word();
        const Word timeout = args.size() > 3 ? args[3].word() : ~0u;
        if (s == nullptr ||
            !hardening::CheckPointer(
                buf, maxlen,
                PermissionSet({Permission::kLoad, Permission::kStore}))) {
          return StatusCap(Status::kInvalidArgument);
        }
        const Cycles deadline = timeout == ~0u ? ~0ull : ctx.Now() + timeout;
        while (s->plaintext.empty()) {
          uint8_t type = 0;
          Bytes body;
          if (TakeRecord(*s, &type, &body)) {
            if (type == kTlsRecordData) {
              AcceptDataRecord(ctx, *s, body);
            }
            continue;
          }
          if (ctx.Now() >= deadline) {
            return StatusCap(Status::kTimedOut);
          }
          const Word budget = deadline == ~0ull
                                  ? ~0u
                                  : static_cast<Word>(std::min<Cycles>(
                                        deadline - ctx.Now(), 0xFFFFFFFEu));
          const Status st = Refill(ctx, *s, budget);
          if (st == Status::kTimedOut) {
            return StatusCap(Status::kTimedOut);
          }
          if (st != Status::kOk) {
            return StatusCap(st);
          }
        }
        Word n = 0;
        Bytes out;
        while (n < maxlen && !s->plaintext.empty()) {
          out.push_back(s->plaintext.front());
          s->plaintext.pop_front();
          ++n;
        }
        ctx.WriteBytes(buf, 0, out.data(), n);
        return WordCap(n);
      },
      4096, InterruptPosture::kEnabled);

  comp.Export(
      "close",
      [](CompartmentCtx& ctx, const std::vector<Capability>& args) {
        auto& state = ctx.State<TlsState>();
        const Capability caller_quota = args[0];
        TlsSession* s = FromHandle(ctx, state, args[1]);
        if (s == nullptr) {
          return StatusCap(Status::kInvalidArgument);
        }
        ctx.Call("tcpip.socket_close", {caller_quota, s->socket});
        s->live = false;
        return StatusCap(ctx.TokenObjDestroy(
            caller_quota, ctx.SealingKey("tls.session"), args[1]));
      },
      2048, InterruptPosture::kEnabled);
}

}  // namespace cheriot::net
