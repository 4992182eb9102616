// The TCP/IP compartment: ARP, IPv4, ICMP echo, UDP, a stop-and-wait TCP
// with retransmission, and a DHCP-lite client. Connection state is exported
// as opaque token-sealed handles allocated against the *caller's* quota
// (§3.2.1, §3.2.3). The inbound parser contains a feature-flagged "ping of
// death" bug used by the §5.3.3 case study: with the bug enabled a malformed
// ICMP packet makes the parser read past its frame buffer, the CHERI bounds
// check traps, and the compartment's error handler micro-reboots the stack.
#include "src/net/netstack.h"

#include <array>
#include <deque>

#include "src/base/log.h"
#include "src/hw/devices.h"
#include "src/net/packet.h"
#include "src/net/world.h"  // well-known addresses of the simulated network
#include "src/runtime/compartment_ctx.h"
#include "src/runtime/hardening.h"
#include "src/sync/sync.h"

namespace cheriot::net {

namespace {

constexpr Word kFrameBufBytes = 1536;
constexpr int kMaxSockets = 8;
constexpr Word kSegmentBytes = 1024;
constexpr Cycles kRtoCycles = 330'000;  // 10 ms
constexpr int kMaxRetries = 8;

// Globals layout: +0 ready-futex, +4 icmp-reply futex, +64.. socket futexes.
constexpr int kReadyFutex = 0;
constexpr int kIcmpFutex = 4;
constexpr int SocketFutexOffset(int i) { return 64 + 4 * i; }

struct Socket {
  bool live = false;
  uint8_t proto = 0;
  uint16_t local_port = 0;
  Ipv4 remote_ip = 0;
  uint16_t remote_port = 0;
  enum class Tcp { kClosed, kSynSent, kEstablished, kFinished } tcp_state =
      Tcp::kClosed;
  uint32_t snd_nxt = 0;
  uint32_t rcv_nxt = 0;
  uint32_t generation = 0;
  std::deque<uint8_t> rx;       // TCP byte stream
  std::deque<Bytes> rx_dgrams;  // UDP datagrams
  // Stop-and-wait retransmission state.
  Bytes unacked;
  uint32_t una_seq = 0;
  Cycles rto_at = 0;
  int retries = 0;
};

// Host-native compartment state (created by the state_factory, never
// serialized). Snapshot/restore contract (DESIGN.md §10): the durable truth
// about the worker's event-driven sleep is GUEST state — the thread's futex
// address and wake_at deadline in the scheduler's wait queues (KERN/SCHD
// sections) — while this struct, including the rto_at deadlines the worker
// derives its next wake from, is rebuilt on restore: restore boots a fresh
// board and re-executes the logged inputs, re-deriving every socket and
// retransmit deadline deterministically. The restore verify re-serializes
// the scheduler sections and byte-compares them, so a rebuilt native
// deadline that disagreed with the serialized guest wake_at would fail the
// restore rather than silently drift.
struct TcpIpState {
  bool started = false;
  bool ready = false;
  // Our MAC, read from the adaptor at bring-up (fleet boards differ).
  MacAddress mac = kDeviceMac;
  Ipv4 ip = 0;
  Ipv4 gateway = 0;
  Ipv4 dns = 0;
  bool have_gw_mac = false;
  MacAddress gw_mac{};
  std::array<Socket, kMaxSockets> sockets;
  uint16_t next_port = 49152;
  uint32_t next_generation = 1;
  uint32_t icmp_replies_sent = 0;
  uint32_t icmp_replies_seen = 0;
  bool pod_bug = false;
  Capability tx_buf;
  Capability rx_buf;
};

void BumpFutex(CompartmentCtx& ctx, int offset) {
  const Capability g = ctx.globals();
  ctx.StoreWord(g, offset, ctx.LoadWord(g, offset) + 1);
  ctx.FutexWake(g.AddOffset(offset), 1 << 30);
}

// Waits until pred() holds or the deadline passes, sleeping on the futex
// word at `offset` between checks.
template <typename Pred>
bool WaitOn(CompartmentCtx& ctx, int offset, Cycles timeout, Pred pred) {
  const Cycles deadline =
      timeout == ~0u ? ~0ull : ctx.Now() + timeout;
  while (!pred()) {
    if (ctx.Now() >= deadline) {
      return false;
    }
    const Word seen = ctx.LoadWord(ctx.globals(), offset);
    if (pred()) {
      return true;
    }
    const Cycles budget = deadline == ~0ull
                              ? ~0u
                              : static_cast<Cycles>(deadline - ctx.Now());
    ctx.FutexWait(ctx.globals().AddOffset(offset), seen,
                  static_cast<Word>(std::min<Cycles>(budget, 0xFFFFFFFEu)));
  }
  return true;
}

void EnsureBuffers(CompartmentCtx& ctx, TcpIpState& state) {
  if (state.tx_buf.tag() && state.rx_buf.tag()) {
    return;
  }
  const Capability quota = ctx.SealedImport("tcpip_quota");
  state.tx_buf = ctx.HeapAllocate(quota, kFrameBufBytes);
  state.rx_buf = ctx.HeapAllocate(quota, kFrameBufBytes);
}

void SendFrame(CompartmentCtx& ctx, TcpIpState& state, const Bytes& frame) {
  EnsureBuffers(ctx, state);
  ctx.WriteBytes(state.tx_buf, 0, frame.data(),
                 static_cast<Address>(frame.size()));
  // De-privilege before crossing the trust boundary (§3.2.5).
  const Capability view = hardening::ReadOnly(
      state.tx_buf, static_cast<Address>(frame.size()));
  ctx.Call("firewall.send_frame",
           {view, WordCap(static_cast<Word>(frame.size()))});
}

void SendIp(CompartmentCtx& ctx, TcpIpState& state, Ipv4 dst, uint8_t proto,
            const Bytes& l4) {
  SendFrame(ctx, state,
            BuildIpv4(state.mac, state.gw_mac, state.ip, dst, proto, l4));
}

Socket* SocketFromHandle(CompartmentCtx& ctx, TcpIpState& state,
                         const Capability& handle, int* index_out) {
  const Capability payload =
      ctx.TokenUnseal(ctx.SealingKey("tcpip.socket"), handle);
  if (!payload.tag()) {
    return nullptr;
  }
  const Word index = ctx.LoadWord(payload, 0);
  const Word generation = ctx.LoadWord(payload, 4);
  if (index >= kMaxSockets || !state.sockets[index].live ||
      state.sockets[index].generation != generation) {
    return nullptr;
  }
  if (index_out != nullptr) {
    *index_out = static_cast<int>(index);
  }
  return &state.sockets[index];
}

Capability MakeHandle(CompartmentCtx& ctx, const Capability& caller_quota,
                      int index, uint32_t generation) {
  const Capability key = ctx.SealingKey("tcpip.socket");
  const Capability handle = ctx.TokenObjNew(caller_quota, key, 8);
  if (!handle.tag()) {
    return handle;
  }
  const Capability payload = ctx.TokenUnseal(key, handle);
  ctx.StoreWord(payload, 0, static_cast<Word>(index));
  ctx.StoreWord(payload, 4, generation);
  return handle;
}

int AllocSocket(TcpIpState& state) {
  for (int i = 0; i < kMaxSockets; ++i) {
    if (!state.sockets[i].live) {
      state.sockets[i] = Socket{};
      state.sockets[i].live = true;
      state.sockets[i].generation = state.next_generation++;
      return i;
    }
  }
  return -1;
}

void TcpTransmit(CompartmentCtx& ctx, TcpIpState& state, Socket& s,
                 uint8_t flags, const Bytes& payload) {
  TcpHeader h;
  h.src_port = s.local_port;
  h.dst_port = s.remote_port;
  h.seq = s.snd_nxt;
  h.ack = s.rcv_nxt;
  h.flags = flags;
  SendIp(ctx, state, s.remote_ip, kIpProtoTcp, BuildTcp(h, payload));
  if (!payload.empty() || (flags & (kTcpSyn | kTcpFin))) {
    s.unacked = payload;
    s.una_seq = s.snd_nxt;
    s.rto_at = ctx.Now() + kRtoCycles;
    s.retries = 0;
    // The worker sleeps event-driven on the ethernet IRQ futex; kick it so
    // its next sleep honours this segment's retransmit deadline.
    ctx.FutexWake(ctx.InterruptFutex(IrqLine::kEthernet), 1);
  }
  s.snd_nxt += payload.size();
  if (flags & (kTcpSyn | kTcpFin)) {
    s.snd_nxt += 1;
  }
}

// Parses and dispatches one received frame. `view` is bounded to the frame
// length — the interface-hardening step the buggy path violates.
void ProcessFrame(CompartmentCtx& ctx, TcpIpState& state,
                  const Capability& view, Word len) {
  Bytes frame(len);
  ctx.ReadBytes(view, 0, frame.data(), len);
  const ParsedFrame p = ParseFrame(frame);
  if (!p.valid) {
    return;
  }

  if (p.is_arp && !p.arp_is_request && p.arp_sender_ip == state.gateway) {
    state.gw_mac = p.arp_sender_mac;
    state.have_gw_mac = true;
    BumpFutex(ctx, kReadyFutex);
    return;
  }

  if (p.is_icmp && p.icmp_type == 8 && p.ip.dst == state.ip) {
    // Echo request: build the reply payload from the frame buffer.
    constexpr Word kIcmpPayloadOffset = 14 + 20 + 10;
    Bytes payload;
    if (state.pod_bug) {
      // BUG (feature-flagged, §5.3.3): trust the attacker-controlled length
      // field. On a malformed packet this reads past the frame view; the
      // capability bounds check turns it into a clean trap instead of an
      // info leak.
      payload.resize(p.icmp_claimed_len);
      ctx.ReadBytes(view, kIcmpPayloadOffset, payload.data(),
                    p.icmp_claimed_len);
    } else {
      // Hardened parser: validate the length against the actual frame.
      if (p.icmp_claimed_len != p.icmp_payload.size()) {
        return;  // malformed; drop
      }
      payload = p.icmp_payload;
    }
    SendIp(ctx, state, p.ip.src, kIpProtoIcmp,
           BuildIcmpEcho(0, p.icmp_id, p.icmp_seq, payload));
    ++state.icmp_replies_sent;
    return;
  }
  if (p.is_icmp && p.icmp_type == 0) {
    ++state.icmp_replies_seen;
    BumpFutex(ctx, kIcmpFutex);
    return;
  }

  if (p.is_udp) {
    for (int i = 0; i < kMaxSockets; ++i) {
      Socket& s = state.sockets[i];
      if (s.live && s.proto == kIpProtoUdp &&
          s.local_port == p.udp.dst_port) {
        if (s.rx_dgrams.size() < 16) {
          s.rx_dgrams.push_back(p.payload);
        }
        BumpFutex(ctx, SocketFutexOffset(i));
        return;
      }
    }
    return;
  }

  if (p.is_tcp) {
    for (int i = 0; i < kMaxSockets; ++i) {
      Socket& s = state.sockets[i];
      if (!s.live || s.proto != kIpProtoTcp ||
          s.local_port != p.tcp.dst_port || s.remote_port != p.tcp.src_port) {
        continue;
      }
      if (p.tcp.flags & kTcpRst) {
        s.tcp_state = Socket::Tcp::kClosed;
        BumpFutex(ctx, SocketFutexOffset(i));
        return;
      }
      if (s.tcp_state == Socket::Tcp::kSynSent &&
          (p.tcp.flags & kTcpSyn) && (p.tcp.flags & kTcpAck)) {
        s.rcv_nxt = p.tcp.seq + 1;
        s.unacked.clear();
        TcpHeader ack;
        ack.src_port = s.local_port;
        ack.dst_port = s.remote_port;
        ack.seq = s.snd_nxt;
        ack.ack = s.rcv_nxt;
        ack.flags = kTcpAck;
        SendIp(ctx, state, s.remote_ip, kIpProtoTcp, BuildTcp(ack, {}));
        s.tcp_state = Socket::Tcp::kEstablished;
        BumpFutex(ctx, SocketFutexOffset(i));
        return;
      }
      if (p.tcp.flags & kTcpAck) {
        const uint32_t expected =
            s.una_seq + static_cast<uint32_t>(s.unacked.size()) +
            ((s.tcp_state == Socket::Tcp::kSynSent ||
              s.tcp_state == Socket::Tcp::kFinished)
                 ? 1
                 : 0);
        if (!s.unacked.empty() && p.tcp.ack >= expected) {
          s.unacked.clear();
          BumpFutex(ctx, SocketFutexOffset(i));
        } else if (s.unacked.empty()) {
          BumpFutex(ctx, SocketFutexOffset(i));
        }
      }
      if (!p.payload.empty() && p.tcp.seq == s.rcv_nxt) {
        s.rcv_nxt += p.payload.size();
        for (uint8_t byte : p.payload) {
          s.rx.push_back(byte);
        }
        TcpHeader ack;
        ack.src_port = s.local_port;
        ack.dst_port = s.remote_port;
        ack.seq = s.snd_nxt;
        ack.ack = s.rcv_nxt;
        ack.flags = kTcpAck;
        SendIp(ctx, state, s.remote_ip, kIpProtoTcp, BuildTcp(ack, {}));
        BumpFutex(ctx, SocketFutexOffset(i));
      }
      if (p.tcp.flags & kTcpFin) {
        s.tcp_state = Socket::Tcp::kFinished;
        BumpFutex(ctx, SocketFutexOffset(i));
      }
      return;
    }
    return;
  }
}

// Drains the device through the firewall; returns frames processed.
int PollFrames(CompartmentCtx& ctx, TcpIpState& state) {
  EnsureBuffers(ctx, state);
  int processed = 0;
  for (;;) {
    const Capability rx_view = state.rx_buf.WithBounds(
        state.rx_buf.base(), kFrameBufBytes);
    const Word len =
        ctx.Call("firewall.recv_frame", {rx_view, WordCap(kFrameBufBytes)})
            .word();
    if (len == 0 || static_cast<int32_t>(len) < 0 || len > kFrameBufBytes) {
      return processed;
    }
    // Interface hardening: parse through a view bounded to the frame.
    ProcessFrame(ctx, state, state.rx_buf.WithBounds(state.rx_buf.base(), len),
                 len);
    ++processed;
  }
}

// Retransmit pass for the stop-and-wait TCP.
void CheckRetransmits(CompartmentCtx& ctx, TcpIpState& state) {
  for (int i = 0; i < kMaxSockets; ++i) {
    Socket& s = state.sockets[i];
    if (!s.live || s.proto != kIpProtoTcp || s.unacked.empty() ||
        ctx.Now() < s.rto_at) {
      continue;
    }
    if (++s.retries > kMaxRetries) {
      s.tcp_state = Socket::Tcp::kClosed;
      s.unacked.clear();
      BumpFutex(ctx, SocketFutexOffset(i));
      continue;
    }
    TcpHeader h;
    h.src_port = s.local_port;
    h.dst_port = s.remote_port;
    h.seq = s.una_seq;
    h.ack = s.rcv_nxt;
    h.flags = s.tcp_state == Socket::Tcp::kSynSent
                  ? kTcpSyn
                  : static_cast<uint8_t>(kTcpAck | kTcpPsh);
    SendIp(ctx, state, s.remote_ip, kIpProtoTcp, BuildTcp(h, s.unacked));
    s.rto_at = ctx.Now() + kRtoCycles * (1 + s.retries);
  }
}

// DHCP-lite + ARP bring-up. Runs on the worker thread.
Status StartNetwork(CompartmentCtx& ctx, TcpIpState& state) {
  EnsureBuffers(ctx, state);
  if (!state.tx_buf.tag() || !state.rx_buf.tag()) {
    return Status::kNoMemory;
  }
  state.started = true;
  // Learn our own identity from the adaptor before talking to anyone.
  const Word mac_lo = ctx.Call("firewall.get_mac_lo", {}).word();
  const Word mac_hi = ctx.Call("firewall.get_mac_hi", {}).word();
  for (int i = 0; i < 4; ++i) {
    state.mac[i] = static_cast<uint8_t>(mac_lo >> (8 * i));
  }
  state.mac[4] = static_cast<uint8_t>(mac_hi);
  state.mac[5] = static_cast<uint8_t>(mac_hi >> 8);
  // Broadcast DHCP discover/request (gateway MAC unknown: broadcast).
  state.gw_mac = {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF};
  const Cycles deadline = ctx.Now() + 5 * cost::kCoreHz;
  int phase = 0;  // 0 = discover, 1 = request, 2 = arp, 3 = done
  Ipv4 offered = 0;
  while (ctx.Now() < deadline && phase < 3) {
    if (phase == 0) {
      SendFrame(ctx, state,
                BuildIpv4(state.mac, state.gw_mac, 0, 0xFFFFFFFF, kIpProtoUdp,
                          BuildUdp(68, kDhcpPort, {1})));
    } else if (phase == 1) {
      Bytes req = {3};
      for (int i = 3; i >= 0; --i) {
        req.push_back(static_cast<uint8_t>(offered >> (8 * i)));
      }
      SendFrame(ctx, state,
                BuildIpv4(state.mac, state.gw_mac, 0, 0xFFFFFFFF, kIpProtoUdp,
                          BuildUdp(68, kDhcpPort, req)));
    } else {
      SendFrame(ctx, state,
                BuildArpRequest(state.mac, state.ip, state.gateway));
    }
    // Poll for the reply (the DHCP-lite exchange has no sockets yet).
    const Cycles wait_until = ctx.Now() + 330'000;  // 10 ms
    while (ctx.Now() < wait_until) {
      EnsureBuffers(ctx, state);
      const Word len = ctx.Call("firewall.recv_frame",
                                {state.rx_buf, WordCap(kFrameBufBytes)})
                           .word();
      if (len == 0 || static_cast<int32_t>(len) < 0) {
        ctx.SleepCycles(3'300);
        continue;
      }
      Bytes frame(len);
      ctx.ReadBytes(state.rx_buf, 0, frame.data(), len);
      const ParsedFrame p = ParseFrame(frame);
      if (phase == 0 && p.valid && p.is_udp && !p.payload.empty() &&
          p.payload[0] == 2 && p.payload.size() >= 5) {
        offered = (static_cast<Ipv4>(p.payload[1]) << 24) |
                  (static_cast<Ipv4>(p.payload[2]) << 16) |
                  (static_cast<Ipv4>(p.payload[3]) << 8) | p.payload[4];
        phase = 1;
        break;
      }
      if (phase == 1 && p.valid && p.is_udp && !p.payload.empty() &&
          p.payload[0] == 5 && p.payload.size() >= 13) {
        auto ip_at = [&](int off) {
          return (static_cast<Ipv4>(p.payload[off]) << 24) |
                 (static_cast<Ipv4>(p.payload[off + 1]) << 16) |
                 (static_cast<Ipv4>(p.payload[off + 2]) << 8) |
                 p.payload[off + 3];
        };
        state.ip = ip_at(1);
        state.gateway = ip_at(5);
        state.dns = ip_at(9);
        phase = 2;
        break;
      }
      if (phase == 2 && p.valid && p.is_arp && !p.arp_is_request &&
          p.arp_sender_ip == state.gateway) {
        state.gw_mac = p.arp_sender_mac;
        state.have_gw_mac = true;
        phase = 3;
        break;
      }
    }
  }
  if (phase < 3) {
    return Status::kTimedOut;
  }
  state.ready = true;
  BumpFutex(ctx, kReadyFutex);
  return Status::kOk;
}

}  // namespace

void AddTcpIpCompartment(ImageBuilder& image, const NetStackOptions& options) {
  if (image.FindCompartment("tcpip") != nullptr) {
    return;
  }
  AddFirewallCompartment(image);
  auto comp = image.Compartment("tcpip");
  comp.CodeSize(38 * 1024, /*wrapper=*/static_cast<uint32_t>(38 * 1024 * 0.23))
      .Globals(1100)  // Table 2: 1.1 KB
      .AllocCap("tcpip_quota", options.tcpip_quota)
      .OwnSealingType("tcpip.socket")
      .ImportCompartment("firewall.send_frame")
      .ImportCompartment("firewall.recv_frame")
      .ImportCompartment("firewall.get_mac_lo")
      .ImportCompartment("firewall.get_mac_hi")
      .ImportCompartment("sched.interrupt_futex_get")
      .State([options] {
        auto state = std::make_shared<TcpIpState>();
        state->pod_bug = options.ping_of_death_bug;
        return state;
      });
  sync::UseScheduler(image, "tcpip");
  sync::UseAllocator(image, "tcpip");
  image.Compartment("tcpip")
      .ImportCompartment("alloc.token_obj_new")
      .ImportCompartment("alloc.token_obj_destroy");

  if (options.microreboot_on_fault) {
    comp.ErrorHandler([](CompartmentCtx& ctx, TrapInfo& info) {
      ctx.DebugLog("tcpip fault (%s); micro-rebooting",
                   TrapCodeName(info.cause));
      ctx.MicroRebootSelf();
      return ErrorRecovery::kForceUnwind;
    });
  }

  // --- Worker: drains frames, runs timers. Runs under the supervisor. ---
  comp.Export(
      "worker_run",
      [](CompartmentCtx& ctx, const std::vector<Capability>&) {
        auto& state = ctx.State<TcpIpState>();
        if (!state.started) {
          const Status s = StartNetwork(ctx, state);
          if (s != Status::kOk) {
            state.started = false;
            return StatusCap(s);
          }
        }
        const Capability irq_futex =
            ctx.InterruptFutex(IrqLine::kEthernet);
        for (;;) {
          const Word seen = ctx.LoadWord(irq_futex, 0);
          PollFrames(ctx, state);
          CheckRetransmits(ctx, state);
          // Event-driven sleep: frame arrivals wake the ethernet IRQ futex,
          // so the timeout only has to cover the earliest TCP retransmit
          // deadline. With nothing unacked a 1 s safety tick replaces the
          // old fixed 10 ms heartbeat, which on an idle stack was pure
          // wasted wakeups — and the dominant barrier source in idle
          // fleets (DESIGN.md §6.1).
          Cycles wake = ctx.Now() + 33'000'000;
          for (int i = 0; i < kMaxSockets; ++i) {
            const Socket& s = state.sockets[i];
            if (s.live && s.proto == kIpProtoTcp && !s.unacked.empty()) {
              wake = std::min(wake, s.rto_at);
            }
          }
          const Cycles now = ctx.Now();
          const Word budget =
              wake > now ? static_cast<Word>(
                               std::min<Cycles>(wake - now, 0xFFFFFFFEu))
                         : 1;
          ctx.FutexWait(irq_futex, seen, budget);
        }
      },
      1024, InterruptPosture::kEnabled);

  // --- NetAPI ---
  comp.Export(
      "wait_ready",
      [](CompartmentCtx& ctx, const std::vector<Capability>& args) {
        auto& state = ctx.State<TcpIpState>();
        const Word timeout = args.empty() ? ~0u : args[0].word();
        const bool ok =
            WaitOn(ctx, kReadyFutex, timeout, [&] { return state.ready; });
        return StatusCap(ok ? Status::kOk : Status::kTimedOut);
      },
      512, InterruptPosture::kDisabled);

  comp.Export(
      "ifconfig",
      [](CompartmentCtx& ctx, const std::vector<Capability>&) {
        return WordCap(ctx.State<TcpIpState>().ip);
      },
      128, InterruptPosture::kDisabled);

  comp.Export(
      "stats",
      [](CompartmentCtx& ctx, const std::vector<Capability>&) {
        auto& state = ctx.State<TcpIpState>();
        return WordCap(state.icmp_replies_sent);
      },
      128, InterruptPosture::kDisabled);

  comp.Export(
      "ping",
      [](CompartmentCtx& ctx, const std::vector<Capability>& args) {
        auto& state = ctx.State<TcpIpState>();
        if (!state.ready) {
          return StatusCap(Status::kWouldBlock);
        }
        const Ipv4 dst = args[0].word();
        const Word timeout = args.size() > 1 ? args[1].word() : 33'000'000;
        const uint32_t before = state.icmp_replies_seen;
        SendIp(ctx, state, dst, kIpProtoIcmp,
               BuildIcmpEcho(8, 0x77, 1, Bytes(16, 0x42)));
        const bool ok = WaitOn(ctx, kIcmpFutex, timeout, [&] {
          return state.icmp_replies_seen > before;
        });
        return StatusCap(ok ? Status::kOk : Status::kTimedOut);
      },
      768, InterruptPosture::kDisabled);

  comp.Export(
      "socket_connect_tcp",
      [](CompartmentCtx& ctx, const std::vector<Capability>& args) {
        auto& state = ctx.State<TcpIpState>();
        const Capability caller_quota = args[0];
        const Ipv4 dst = args[1].word();
        const uint16_t port = static_cast<uint16_t>(args[2].word());
        const Word timeout =
            args.size() > 3 ? args[3].word() : 33'000'000;
        if (!state.ready) {
          return StatusCap(Status::kWouldBlock);
        }
        const int index = AllocSocket(state);
        if (index < 0) {
          return StatusCap(Status::kNoMemory);
        }
        Socket& s = state.sockets[index];
        s.proto = kIpProtoTcp;
        s.local_port = state.next_port++;
        s.remote_ip = dst;
        s.remote_port = port;
        s.snd_nxt = 0x1000 + s.local_port;
        s.tcp_state = Socket::Tcp::kSynSent;
        TcpTransmit(ctx, state, s, kTcpSyn, {});
        const bool ok = WaitOn(ctx, SocketFutexOffset(index), timeout, [&] {
          return s.tcp_state != Socket::Tcp::kSynSent;
        });
        if (!ok || s.tcp_state != Socket::Tcp::kEstablished) {
          s.live = false;
          return StatusCap(ok ? Status::kNotFound : Status::kTimedOut);
        }
        // The handle is allocated with the caller's quota (§3.2.3).
        const Capability handle =
            MakeHandle(ctx, caller_quota, index, s.generation);
        if (!handle.tag()) {
          s.live = false;
        }
        return handle;
      },
      1024, InterruptPosture::kDisabled);

  comp.Export(
      "socket_send",
      [](CompartmentCtx& ctx, const std::vector<Capability>& args) {
        auto& state = ctx.State<TcpIpState>();
        int index = -1;
        Socket* s = SocketFromHandle(ctx, state, args[0], &index);
        const Capability buf = args[1];
        const Word len = args[2].word();
        if (s == nullptr || s->proto != kIpProtoTcp) {
          return StatusCap(Status::kInvalidArgument);
        }
        if (!hardening::CheckPointer(buf, len,
                                     PermissionSet({Permission::kLoad}))) {
          return StatusCap(Status::kInvalidArgument);
        }
        if (s->tcp_state != Socket::Tcp::kEstablished) {
          return StatusCap(Status::kNotFound);
        }
        Bytes data(len);
        ctx.ReadBytes(buf, 0, data.data(), len);
        size_t off = 0;
        while (off < data.size()) {
          const size_t n = std::min<size_t>(kSegmentBytes, data.size() - off);
          TcpTransmit(ctx, state, *s, kTcpAck | kTcpPsh,
                      Bytes(data.begin() + off, data.begin() + off + n));
          // Stop-and-wait: block until the segment is acknowledged (the
          // worker thread processes the ACK and wakes us).
          const bool acked =
              WaitOn(ctx, SocketFutexOffset(index), 33'000'000,
                     [&] { return s->unacked.empty() ||
                                  s->tcp_state == Socket::Tcp::kClosed; });
          if (!acked || s->tcp_state == Socket::Tcp::kClosed) {
            return StatusCap(Status::kTimedOut);
          }
          off += n;
        }
        return StatusCap(Status::kOk);
      },
      1024, InterruptPosture::kDisabled);

  comp.Export(
      "socket_recv",
      [](CompartmentCtx& ctx, const std::vector<Capability>& args) {
        auto& state = ctx.State<TcpIpState>();
        int index = -1;
        Socket* s = SocketFromHandle(ctx, state, args[0], &index);
        const Capability buf = args[1];
        const Word maxlen = args[2].word();
        const Word timeout = args.size() > 3 ? args[3].word() : ~0u;
        if (s == nullptr ||
            !hardening::CheckPointer(
                buf, maxlen,
                PermissionSet({Permission::kLoad, Permission::kStore}))) {
          return StatusCap(Status::kInvalidArgument);
        }
        const bool got = WaitOn(ctx, SocketFutexOffset(index), timeout, [&] {
          return !s->rx.empty() || s->tcp_state == Socket::Tcp::kClosed ||
                 s->tcp_state == Socket::Tcp::kFinished;
        });
        if (!got) {
          return StatusCap(Status::kTimedOut);
        }
        if (s->rx.empty()) {
          return WordCap(0);  // orderly shutdown
        }
        Word n = 0;
        Bytes out;
        while (n < maxlen && !s->rx.empty()) {
          out.push_back(s->rx.front());
          s->rx.pop_front();
          ++n;
        }
        ctx.WriteBytes(buf, 0, out.data(), n);
        return WordCap(n);
      },
      1024, InterruptPosture::kDisabled);

  comp.Export(
      "socket_close",
      [](CompartmentCtx& ctx, const std::vector<Capability>& args) {
        auto& state = ctx.State<TcpIpState>();
        const Capability caller_quota = args[0];
        int index = -1;
        Socket* s = SocketFromHandle(ctx, state, args[1], &index);
        if (s == nullptr) {
          return StatusCap(Status::kInvalidArgument);
        }
        if (s->proto == kIpProtoTcp &&
            s->tcp_state == Socket::Tcp::kEstablished) {
          TcpTransmit(ctx, state, *s, kTcpFin | kTcpAck, {});
        }
        s->live = false;
        // Destroying the handle needs both the caller's allocation
        // capability and our sealing key (§3.2.3).
        return StatusCap(ctx.TokenObjDestroy(
            caller_quota, ctx.SealingKey("tcpip.socket"), args[1]));
      },
      768, InterruptPosture::kDisabled);

  comp.Export(
      "socket_udp_new",
      [](CompartmentCtx& ctx, const std::vector<Capability>& args) {
        auto& state = ctx.State<TcpIpState>();
        if (!state.ready) {
          return StatusCap(Status::kWouldBlock);
        }
        const Capability caller_quota = args[0];
        const Ipv4 remote = args[1].word();
        const uint16_t port = static_cast<uint16_t>(args[2].word());
        const int index = AllocSocket(state);
        if (index < 0) {
          return StatusCap(Status::kNoMemory);
        }
        Socket& s = state.sockets[index];
        s.proto = kIpProtoUdp;
        s.local_port = state.next_port++;
        s.remote_ip = remote;
        s.remote_port = port;
        const Capability handle =
            MakeHandle(ctx, caller_quota, index, s.generation);
        if (!handle.tag()) {
          s.live = false;
        }
        return handle;
      },
      768, InterruptPosture::kDisabled);

  comp.Export(
      "udp_send",
      [](CompartmentCtx& ctx, const std::vector<Capability>& args) {
        auto& state = ctx.State<TcpIpState>();
        Socket* s = SocketFromHandle(ctx, state, args[0], nullptr);
        const Capability buf = args[1];
        const Word len = args[2].word();
        if (s == nullptr || s->proto != kIpProtoUdp ||
            !hardening::CheckPointer(buf, len,
                                     PermissionSet({Permission::kLoad}))) {
          return StatusCap(Status::kInvalidArgument);
        }
        Bytes data(len);
        ctx.ReadBytes(buf, 0, data.data(), len);
        SendIp(ctx, state, s->remote_ip, kIpProtoUdp,
               BuildUdp(s->local_port, s->remote_port, data));
        return StatusCap(Status::kOk);
      },
      768, InterruptPosture::kDisabled);

  comp.Export(
      "udp_recv",
      [](CompartmentCtx& ctx, const std::vector<Capability>& args) {
        auto& state = ctx.State<TcpIpState>();
        int index = -1;
        Socket* s = SocketFromHandle(ctx, state, args[0], &index);
        const Capability buf = args[1];
        const Word maxlen = args[2].word();
        const Word timeout = args.size() > 3 ? args[3].word() : ~0u;
        if (s == nullptr || s->proto != kIpProtoUdp ||
            !hardening::CheckPointer(
                buf, maxlen,
                PermissionSet({Permission::kLoad, Permission::kStore}))) {
          return StatusCap(Status::kInvalidArgument);
        }
        const bool got = WaitOn(ctx, SocketFutexOffset(index), timeout,
                                [&] { return !s->rx_dgrams.empty(); });
        if (!got) {
          return StatusCap(Status::kTimedOut);
        }
        Bytes dgram = s->rx_dgrams.front();
        s->rx_dgrams.pop_front();
        const Word n = std::min<Word>(maxlen, static_cast<Word>(dgram.size()));
        ctx.WriteBytes(buf, 0, dgram.data(), n);
        return WordCap(n);
      },
      768, InterruptPosture::kDisabled);

  comp.Export(
      "dns_server",
      [](CompartmentCtx& ctx, const std::vector<Capability>&) {
        return WordCap(ctx.State<TcpIpState>().dns);
      },
      128, InterruptPosture::kDisabled);

  // --- Supervisor: keeps the worker alive across micro-reboots. ---
  if (image.FindCompartment("net_supervisor") == nullptr) {
    image.Compartment("net_supervisor")
        .CodeSize(512)
        .Globals(16)
        .ImportCompartment("tcpip.worker_run")
        .Export("run",
                [](CompartmentCtx& ctx, const std::vector<Capability>&) {
                  for (;;) {
                    ctx.Call("tcpip.worker_run", {});
                    // The stack faulted and micro-rebooted (or refused the
                    // call while rebooting): back off briefly and restart.
                    ctx.SleepCycles(33'000);
                  }
                  return StatusCap(Status::kOk);  // unreachable
                });
    sync::UseScheduler(image, "net_supervisor");
    image.Thread("net.worker", options.worker_priority, 8 * 1024, 8,
                 "net_supervisor.run");
  }
}

}  // namespace cheriot::net
