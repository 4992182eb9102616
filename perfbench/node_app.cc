#include "perfbench/node_app.h"

#include <algorithm>
#include <string>

#include "src/base/costs.h"
#include "src/net/netstack.h"
#include "src/net/world.h"
#include "src/runtime/compartment_ctx.h"
#include "src/sync/sync.h"

namespace perfbench {

using namespace cheriot;

namespace {

constexpr Cycles kSecond = cost::kCoreHz;

Capability Connect(CompartmentCtx& ctx, const Capability& quota, int index) {
  auto name_buf = ctx.AllocStack(32);
  const char kBroker[] = "mqtt.example.com";
  ctx.WriteBytes(name_buf.cap(), 0, kBroker, sizeof(kBroker) - 1);
  const Word ip =
      ctx.Call("dns.resolve", {name_buf.cap(), WordCap(sizeof(kBroker) - 1)})
          .word();
  if (ip == 0) {
    return Capability();
  }
  // Fixed-width client id so every board's connect costs the same cycles.
  static const char kHex[] = "0123456789abcdef";
  const char id_bytes[5] = {'n', kHex[(index >> 12) & 15], kHex[(index >> 8) & 15],
                            kHex[(index >> 4) & 15], kHex[index & 15]};
  auto id = ctx.AllocStack(8);
  ctx.WriteBytes(id.cap(), 0, id_bytes, 5);
  const Capability session =
      ctx.Call("mqtt.connect", {quota, WordCap(ip), WordCap(net::kMqttTlsPort),
                                id.cap(), WordCap(5)});
  if (!session.tag()) {
    return session;
  }
  auto topic = ctx.AllocStack(8);
  ctx.WriteBytes(topic.cap(), 0, "leds", 4);
  if (static_cast<int32_t>(
          ctx.Call("mqtt.subscribe", {session, topic.cap(), WordCap(4)}).word()) !=
      0) {
    return Capability();
  }
  return session;
}

// Waits for one broker notification; false if the session broke.
bool Poll(CompartmentCtx& ctx, const Capability& session, Cycles timeout,
          bool* got) {
  auto out = ctx.AllocStack(128);
  const auto n = static_cast<int32_t>(
      ctx.Call("mqtt.poll", {session, out.cap(), WordCap(128), WordCap(timeout)})
          .word());
  *got = n > 0;
  return n > 0 || static_cast<Status>(n) == Status::kTimedOut;
}

EntryFn NodeMain(std::shared_ptr<NodeState> state, NodeOptions opts) {
  return [state, opts](CompartmentCtx& ctx, const std::vector<Capability>&) {
    if (static_cast<int32_t>(ctx.Call("tcpip.wait_ready", {WordCap(~0u)}).word()) !=
        0) {
      state->failed = true;
      return StatusCap(Status::kCompartmentFail);
    }
    state->ip = ctx.Call("tcpip.ifconfig", {}).word();
    state->leased = state->ip != 0;

    if (!opts.publish_mode) {
      for (;;) {
        ctx.SleepCycles(opts.cadence);
        ++state->wakes;
        if (ctx.Call("tcpip.ifconfig", {}).word() != state->ip) {
          state->failed = true;
        }
      }
    }

    const Capability quota = ctx.SealedImport("app_quota");
    const Capability session = Connect(ctx, quota, opts.index);
    if (!session.tag()) {
      state->failed = true;
      return StatusCap(Status::kCompartmentFail);
    }
    state->connected = true;

    while (!state->go) {
      bool got = false;
      if (!Poll(ctx, session, kSecond / 2, &got)) {
        state->failed = true;
        return StatusCap(Status::kCompartmentFail);
      }
      state->go = got;
    }

    Word longest = 8;
    for (uint16_t len : opts.payload_lengths) {
      longest = std::max<Word>(longest, (len + 7u) & ~7u);
    }
    auto topic = ctx.AllocStack(16);
    ctx.WriteBytes(topic.cap(), 0, "telemetry", 9);
    auto payload = ctx.AllocStack(longest);
    for (size_t i = 0; i < opts.payload_lengths.size(); ++i) {
      const uint16_t len = opts.payload_lengths[i];
      // A payload pattern that differs per message and per board.
      for (Word off = 0; off < len; off += 4) {
        ctx.StoreWord(payload.cap(), off,
                      static_cast<Word>(i * 2654435761u + opts.index));
      }
      const auto rc = static_cast<int32_t>(
          ctx.Call("mqtt.publish", {session, topic.cap(), WordCap(9),
                                    payload.cap(), WordCap(len)})
              .word());
      if (rc == 0) {
        ++state->published;
      } else {
        ++state->publish_failures;
      }
    }
    state->done = true;

    for (;;) {
      bool got = false;
      if (!Poll(ctx, session, 5 * kSecond, &got)) {
        state->failed = true;
        return StatusCap(Status::kCompartmentFail);
      }
    }
    return StatusCap(Status::kOk);
  };
}

}  // namespace

FirmwareImage BuildNodeImage(std::shared_ptr<NodeState> state,
                             const NodeOptions& options) {
  ImageBuilder b("perfbench-node");
  b.Compartment("app")
      .CodeSize(2 * 1024)
      .Globals(64)
      .AllocCap("app_quota", 24 * 1024)
      .Export("main", NodeMain(std::move(state), options));
  net::UseNetwork(b, "app", {});
  sync::UseAllocator(b, "app");
  sync::UseScheduler(b, "app");
  b.Thread("app", 3, 16 * 1024, 12, "app.main");
  return b.Build();
}

}  // namespace perfbench
