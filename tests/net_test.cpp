// End-to-end tests for the compartmentalized network stack against the
// simulated world: DHCP bring-up, ARP/ICMP, UDP (DNS, SNTP), TCP with
// retransmission, TLS-lite, MQTT, firewall policy, and the ping-of-death
// micro-reboot case study (§5.3.3).
#include <gtest/gtest.h>

#include "src/net/netstack.h"
#include "src/net/world.h"
#include "src/rtos.h"
#include "src/sync/sync.h"

namespace cheriot {
namespace {

using net::kDeviceIp;
using net::kEchoPort;
using net::kMqttTlsPort;
using net::kWorldIp;

struct Shared {
  Word value = 0;
  int status = 999;
  std::vector<Word> words;
  std::string text;
};

// Builds a firmware image with the network stack and one app compartment
// whose entry runs `body`.
class NetTest : public ::testing::Test {
 protected:
  using AppFn = std::function<void(CompartmentCtx&, std::shared_ptr<Shared>)>;

  void RunApp(AppFn body, net::NetStackOptions options = {},
              net::WorldOptions world_options = {},
              Cycles budget = 8'000'000'000ull) {
    machine_ = std::make_unique<Machine>();
    world_ = std::make_unique<net::NetWorld>(*machine_, world_options);
    ImageBuilder b("net-test");
    auto shared = shared_;
    b.Compartment("app")
        .Globals(64)
        .AllocCap("app_quota", 32 * 1024)
        .Export("main", [body, shared](CompartmentCtx& ctx,
                                       const std::vector<Capability>&) {
          body(ctx, shared);
          return StatusCap(Status::kOk);
        });
    net::UseNetwork(b, "app", options);
    sync::UseAllocator(b, "app");
    sync::UseScheduler(b, "app");
    b.Thread("app", 2, 16 * 1024, 12, "app.main");
    system_ = std::make_unique<System>(*machine_, b.Build());
    if (observer_ != nullptr) {
      machine_->Attach(observer_.get());
    }
    system_->Boot();
    // The net worker never exits; run until the app thread finishes.
    system_->RunUntil(
        [this] {
          return system_->threads()[0].state == GuestThread::State::kExited;
        },
        budget);
  }

  std::shared_ptr<Shared> shared_ = std::make_shared<Shared>();
  // Attached by RunApp when set; declared first so it outlives the machine.
  std::unique_ptr<obs::Observer> observer_;
  std::unique_ptr<Machine> machine_;
  std::unique_ptr<net::NetWorld> world_;
  std::unique_ptr<System> system_;
};

TEST_F(NetTest, DhcpBringUp) {
  RunApp([](CompartmentCtx& ctx, std::shared_ptr<Shared> shared) {
    shared->status = static_cast<int32_t>(
        ctx.Call("tcpip.wait_ready", {WordCap(~0u)}).word());
    shared->value = ctx.Call("tcpip.ifconfig", {}).word();
  });
  EXPECT_EQ(static_cast<Status>(shared_->status), Status::kOk);
  EXPECT_EQ(shared_->value, kDeviceIp);
  EXPECT_GE(world_->dhcp_acks_sent(), 1u);
}

// Counts the NIC events of a NetWorld machine and checks that gateway frames
// arrive in the order the gateway emitted them.
class NicCounter : public obs::Observer {
 public:
  void OnNicTx(size_t, const flow::FlowId& flow) override {
    EXPECT_EQ(flow, (flow::FlowId{0, static_cast<uint32_t>(tx)}));
    ++tx;
  }
  void OnNicRx(size_t, const flow::FlowId& flow) override {
    EXPECT_EQ(flow, (flow::FlowId{flow::FlowId::kGateway,
                                  static_cast<uint32_t>(rx)}));
    ++rx;
  }
  uint64_t tx = 0;
  uint64_t rx = 0;
};

// The NIC owns its wire, so an observer on a NetWorld machine sees the same
// NIC events as one on a fleet board: one OnNicTx per frame the gateway got
// from the guest, one OnNicRx per gateway frame delivered.
TEST_F(NetTest, NetWorldMachineReportsNicTrafficToObservers) {
  auto counter = std::make_unique<NicCounter>();
  const NicCounter& seen = *counter;
  observer_ = std::move(counter);
  RunApp([](CompartmentCtx& ctx, std::shared_ptr<Shared> shared) {
    shared->status = static_cast<int32_t>(
        ctx.Call("tcpip.wait_ready", {WordCap(~0u)}).word());
  });
  ASSERT_EQ(static_cast<Status>(shared_->status), Status::kOk);
  const EthernetDevice& nic = machine_->ethernet();
  EXPECT_GT(seen.tx, 0u);
  EXPECT_EQ(seen.tx, world_->frames_from_guest());
  EXPECT_EQ(seen.tx, nic.tx_frames());
  EXPECT_GT(seen.rx, 0u);
  EXPECT_EQ(seen.rx, nic.rx_frames());
  // Every other gateway frame is still on the wire, next in emit order.
  uint64_t seq = seen.rx;
  for (const EthernetDevice::InFlight& f : nic.wire()) {
    EXPECT_EQ(f.flow.seq, seq++);
  }
}

TEST_F(NetTest, PingWorldAndBePinged) {
  RunApp([](CompartmentCtx& ctx, std::shared_ptr<Shared> shared) {
    ctx.Call("tcpip.wait_ready", {WordCap(~0u)});
    shared->status = static_cast<int32_t>(
        ctx.Call("tcpip.ping", {WordCap(kWorldIp), WordCap(66'000'000)})
            .word());
    // Stay alive long enough to answer the world's pings.
    ctx.SleepCycles(33'000'00);
  });
  EXPECT_EQ(static_cast<Status>(shared_->status), Status::kOk);
  // Now the reverse direction: world pings the device.
  world_->SendPing(1, 1);
  // The worker thread is still running; give it time.
  system_->RunUntil([&] { return world_->ping_replies_seen() > 0; },
                    2'000'000'000ull);
  EXPECT_GE(world_->ping_replies_seen(), 1u);
}

TEST_F(NetTest, TcpEchoRoundTrip) {
  RunApp([](CompartmentCtx& ctx, std::shared_ptr<Shared> shared) {
    ctx.Call("tcpip.wait_ready", {WordCap(~0u)});
    const Capability q = ctx.SealedImport("app_quota");
    const Capability sock = ctx.Call(
        "tcpip.socket_connect_tcp",
        {q, WordCap(kWorldIp), WordCap(kEchoPort), WordCap(330'000'000)});
    if (!sock.tag()) {
      shared->status = static_cast<int32_t>(sock.word());
      return;
    }
    const char msg[] = "capability machines echo";
    auto buf = ctx.AllocStack(64);
    ctx.WriteBytes(buf.cap(), 0, msg, sizeof(msg));
    shared->status = static_cast<int32_t>(
        ctx.Call("tcpip.socket_send", {sock, buf.cap(), WordCap(sizeof(msg))})
            .word());
    auto rx = ctx.AllocStack(64);
    const Capability n = ctx.Call(
        "tcpip.socket_recv",
        {sock, rx.cap(), WordCap(64), WordCap(330'000'000)});
    if (static_cast<int32_t>(n.word()) > 0) {
      std::vector<char> text(n.word());
      ctx.ReadBytes(rx.cap(), 0, text.data(), n.word());
      shared->text.assign(text.data(), text.size() - 1);  // strip NUL
    }
    ctx.Call("tcpip.socket_close", {q, sock});
  });
  EXPECT_EQ(static_cast<Status>(shared_->status), Status::kOk);
  EXPECT_EQ(shared_->text, "capability machines echo");
  EXPECT_GE(world_->tcp_connections_accepted(), 1u);
}

TEST_F(NetTest, TcpSurvivesSegmentLoss) {
  net::WorldOptions world_options;
  world_options.drop_every_nth_tcp = 3;  // drop every third data segment
  RunApp(
      [](CompartmentCtx& ctx, std::shared_ptr<Shared> shared) {
        ctx.Call("tcpip.wait_ready", {WordCap(~0u)});
        const Capability q = ctx.SealedImport("app_quota");
        const Capability sock = ctx.Call(
            "tcpip.socket_connect_tcp",
            {q, WordCap(kWorldIp), WordCap(kEchoPort), WordCap(330'000'000)});
        if (!sock.tag()) {
          shared->status = -99;
          return;
        }
        int ok = 0;
        for (int i = 0; i < 6; ++i) {
          auto buf = ctx.AllocStack(32);
          ctx.StoreWord(buf.cap(), 0, 0xAB000000u + i);
          const auto s = static_cast<int32_t>(
              ctx.Call("tcpip.socket_send", {sock, buf.cap(), WordCap(4)})
                  .word());
          if (s == 0) {
            ++ok;
          }
        }
        shared->value = ok;
        shared->status = 0;
      },
      {}, world_options, 20'000'000'000ull);
  EXPECT_EQ(shared_->status, 0);
  EXPECT_EQ(shared_->value, 6u);  // all segments delivered despite drops
}

TEST_F(NetTest, TcpLossInjectionIsPerConnection) {
  // Two interleaved connections, two data segments each. A global drop
  // counter (the old bug) would hit N=3 on the second connection's traffic;
  // the per-connection counters never reach 3, so nothing may be dropped.
  net::WorldOptions world_options;
  world_options.drop_every_nth_tcp = 3;
  RunApp(
      [](CompartmentCtx& ctx, std::shared_ptr<Shared> shared) {
        ctx.Call("tcpip.wait_ready", {WordCap(~0u)});
        const Capability q = ctx.SealedImport("app_quota");
        const Capability a = ctx.Call(
            "tcpip.socket_connect_tcp",
            {q, WordCap(kWorldIp), WordCap(kEchoPort), WordCap(330'000'000)});
        const Capability b = ctx.Call(
            "tcpip.socket_connect_tcp",
            {q, WordCap(kWorldIp), WordCap(kEchoPort), WordCap(330'000'000)});
        if (!a.tag() || !b.tag()) {
          shared->status = -99;
          return;
        }
        int ok = 0;
        for (int round = 0; round < 2; ++round) {
          for (const Capability& sock : {a, b}) {
            auto buf = ctx.AllocStack(16);
            ctx.StoreWord(buf.cap(), 0, 0xCD000000u + round);
            if (static_cast<int32_t>(
                    ctx.Call("tcpip.socket_send",
                             {sock, buf.cap(), WordCap(4)})
                        .word()) == 0) {
              ++ok;
            }
          }
        }
        shared->value = ok;
        shared->status = 0;
      },
      {}, world_options, 20'000'000'000ull);
  EXPECT_EQ(shared_->status, 0);
  EXPECT_EQ(shared_->value, 4u);
  EXPECT_EQ(world_->tcp_segments_dropped(), 0u);
}

TEST_F(NetTest, TcpLossInjectionDropsExactlyTheNth) {
  // One connection, three data segments, N=3: exactly the third segment is
  // dropped (and recovered by retransmission, which re-counts — the retry is
  // segment 4, so it passes).
  net::WorldOptions world_options;
  world_options.drop_every_nth_tcp = 3;
  RunApp(
      [](CompartmentCtx& ctx, std::shared_ptr<Shared> shared) {
        ctx.Call("tcpip.wait_ready", {WordCap(~0u)});
        const Capability q = ctx.SealedImport("app_quota");
        const Capability sock = ctx.Call(
            "tcpip.socket_connect_tcp",
            {q, WordCap(kWorldIp), WordCap(kEchoPort), WordCap(330'000'000)});
        if (!sock.tag()) {
          shared->status = -99;
          return;
        }
        int ok = 0;
        for (int i = 0; i < 3; ++i) {
          auto buf = ctx.AllocStack(16);
          ctx.StoreWord(buf.cap(), 0, 0xEF000000u + i);
          if (static_cast<int32_t>(
                  ctx.Call("tcpip.socket_send", {sock, buf.cap(), WordCap(4)})
                      .word()) == 0) {
            ++ok;
          }
        }
        shared->value = ok;
        shared->status = 0;
      },
      {}, world_options, 20'000'000'000ull);
  EXPECT_EQ(shared_->status, 0);
  EXPECT_EQ(shared_->value, 3u);
  EXPECT_EQ(world_->tcp_segments_dropped(), 1u);
}

TEST_F(NetTest, DnsResolvesKnownName) {
  RunApp([](CompartmentCtx& ctx, std::shared_ptr<Shared> shared) {
    ctx.Call("tcpip.wait_ready", {WordCap(~0u)});
    const char name[] = "mqtt.example.com";
    auto buf = ctx.AllocStack(32);
    ctx.WriteBytes(buf.cap(), 0, name, sizeof(name) - 1);
    shared->value =
        ctx.Call("dns.resolve", {buf.cap(), WordCap(sizeof(name) - 1)}).word();
    // Unknown names return 0.
    const char bogus[] = "nope.example.com";
    ctx.WriteBytes(buf.cap(), 0, bogus, sizeof(bogus) - 1);
    shared->words.push_back(
        ctx.Call("dns.resolve", {buf.cap(), WordCap(sizeof(bogus) - 1)})
            .word());
  });
  EXPECT_EQ(shared_->value, kWorldIp);
  ASSERT_EQ(shared_->words.size(), 1u);
  EXPECT_EQ(shared_->words[0], 0u);
}

TEST_F(NetTest, SntpSyncProvidesWallClock) {
  RunApp([](CompartmentCtx& ctx, std::shared_ptr<Shared> shared) {
    ctx.Call("tcpip.wait_ready", {WordCap(~0u)});
    shared->status = static_cast<int32_t>(
        ctx.Call("sntp.sync", {WordCap(330'000'000)}).word());
    shared->value = ctx.Call("sntp.now", {}).word();
  });
  EXPECT_EQ(static_cast<Status>(shared_->status), Status::kOk);
  EXPECT_GE(shared_->value, 1'751'500'800u);
}

TEST_F(NetTest, MqttOverTlsEndToEnd) {
  RunApp(
      [](CompartmentCtx& ctx, std::shared_ptr<Shared> shared) {
        ctx.Call("tcpip.wait_ready", {WordCap(~0u)});
        const Capability q = ctx.SealedImport("app_quota");
        auto id = ctx.AllocStack(16);
        ctx.WriteBytes(id.cap(), 0, "dev42", 5);
        const Capability session =
            ctx.Call("mqtt.connect", {q, WordCap(kWorldIp),
                                      WordCap(kMqttTlsPort), id.cap(),
                                      WordCap(5)});
        if (!session.tag()) {
          shared->status = static_cast<int32_t>(session.word());
          return;
        }
        auto topic = ctx.AllocStack(16);
        ctx.WriteBytes(topic.cap(), 0, "alerts", 6);
        shared->status = static_cast<int32_t>(
            ctx.Call("mqtt.subscribe", {session, topic.cap(), WordCap(6)})
                .word());
        // Publish something to the broker too.
        auto payload = ctx.AllocStack(16);
        ctx.WriteBytes(payload.cap(), 0, "hi", 2);
        ctx.Call("mqtt.publish", {session, topic.cap(), WordCap(6),
                                  payload.cap(), WordCap(2)});
        // Wait for a notification pushed by the broker.
        auto out = ctx.AllocStack(128);
        const Capability n = ctx.Call(
            "mqtt.poll",
            {session, out.cap(), WordCap(128), WordCap(1'650'000'000)});
        if (static_cast<int32_t>(n.word()) > 0) {
          std::vector<char> text(n.word());
          ctx.ReadBytes(out.cap(), 0, text.data(), n.word());
          shared->text.assign(text.begin(), text.end());
        }
        ctx.Call("mqtt.disconnect", {q, session});
      },
      {}, {}, 20'000'000'000ull);
  EXPECT_EQ(static_cast<Status>(shared_->status), Status::kOk);
  EXPECT_GE(world_->mqtt_publishes_received(), 1u);
  ASSERT_FALSE(world_->mqtt_subscriptions().empty());
  EXPECT_EQ(world_->mqtt_subscriptions()[0], "alerts");
  // The broker's publish arrives while we poll; the world pushes one when
  // we subscribe? No: push one explicitly mid-run is racy here, so this
  // test seeds it through the broker publish we sent ourselves.
  (void)shared_;
}

TEST_F(NetTest, BrokerPushReachesSubscriber) {
  // Like the above, but the broker pushes the notification (Fig. 7 flow).
  machine_ = std::make_unique<Machine>();
  world_ = std::make_unique<net::NetWorld>(*machine_);
  auto shared = shared_;
  ImageBuilder b("push");
  b.Compartment("app")
      .Globals(64)
      .AllocCap("app_quota", 32 * 1024)
      .Export("main", [shared](CompartmentCtx& ctx,
                               const std::vector<Capability>&) {
        ctx.Call("tcpip.wait_ready", {WordCap(~0u)});
        const Capability q = ctx.SealedImport("app_quota");
        auto id = ctx.AllocStack(8);
        ctx.WriteBytes(id.cap(), 0, "dev", 3);
        const Capability session = ctx.Call(
            "mqtt.connect",
            {q, WordCap(kWorldIp), WordCap(kMqttTlsPort), id.cap(), WordCap(3)});
        if (!session.tag()) {
          shared->status = -1;
          return StatusCap(Status::kOk);
        }
        auto topic = ctx.AllocStack(8);
        ctx.WriteBytes(topic.cap(), 0, "leds", 4);
        ctx.Call("mqtt.subscribe", {session, topic.cap(), WordCap(4)});
        shared->status = 1;  // signal: subscribed
        auto out = ctx.AllocStack(128);
        const Capability n = ctx.Call(
            "mqtt.poll",
            {session, out.cap(), WordCap(128), WordCap(~0u)});
        if (static_cast<int32_t>(n.word()) > 0) {
          std::vector<char> text(n.word());
          ctx.ReadBytes(out.cap(), 0, text.data(), n.word());
          shared->text.assign(text.begin(), text.end());
        }
        return StatusCap(Status::kOk);
      });
  net::UseNetwork(b, "app");
  sync::UseAllocator(b, "app");
  sync::UseScheduler(b, "app");
  b.Thread("app", 2, 16 * 1024, 12, "app.main");
  system_ = std::make_unique<System>(*machine_, b.Build());
  system_->Boot();
  ASSERT_TRUE(system_->RunUntil([&] { return shared->status == 1; },
                                20'000'000'000ull));
  world_->PublishMqtt("leds", {'o', 'n'});
  system_->RunUntil([&] { return !shared->text.empty(); }, 4'000'000'000ull);
  // Payload format: [topic_len]["leds"]["on"].
  ASSERT_GE(shared->text.size(), 7u);
  EXPECT_EQ(shared->text[0], 4);
  EXPECT_EQ(shared->text.substr(1, 4), "leds");
  EXPECT_EQ(shared->text.substr(5, 2), "on");
}

TEST_F(NetTest, HardenedParserDropsPingOfDeath) {
  RunApp([](CompartmentCtx& ctx, std::shared_ptr<Shared> shared) {
    ctx.Call("tcpip.wait_ready", {WordCap(~0u)});
    shared->status = 1;
    ctx.SleepCycles(33'000'000);  // 1 s: absorb the attack
    // The stack must still be functional afterwards.
    shared->value = static_cast<Word>(static_cast<int32_t>(
        ctx.Call("tcpip.ping", {WordCap(kWorldIp), WordCap(330'000'000)})
            .word()));
  });
  // Inject the malformed packet while the app sleeps: re-run a little.
  // (RunApp returned because the app exited; so instead assert stack health
  // through the reboot counter: no reboot must have happened.)
  world_->SendPingOfDeath();
  system_->RunUntil([] { return false; }, 100'000'000ull);
  EXPECT_EQ(system_->boot().FindCompartment("tcpip")->reboot_count, 0u);
}

TEST_F(NetTest, PingOfDeathTriggersMicroReboot) {
  machine_ = std::make_unique<Machine>();
  world_ = std::make_unique<net::NetWorld>(*machine_);
  auto shared = shared_;
  ImageBuilder b("pod");
  net::NetStackOptions options;
  options.ping_of_death_bug = true;
  b.Compartment("app")
      .Globals(64)
      .AllocCap("app_quota", 32 * 1024)
      .Export("main", [shared](CompartmentCtx& ctx,
                               const std::vector<Capability>&) {
        ctx.Call("tcpip.wait_ready", {WordCap(~0u)});
        shared->status = 1;  // network up
        // Wait out the attack + reboot, then verify recovery.
        while (shared->value == 0) {
          ctx.SleepCycles(33'000'000);
        }
        const auto again = static_cast<int32_t>(
            ctx.Call("tcpip.wait_ready", {WordCap(~0u)}).word());
        const auto ping = static_cast<int32_t>(
            ctx.Call("tcpip.ping", {WordCap(kWorldIp), WordCap(330'000'000)})
                .word());
        shared->words = {static_cast<Word>(again), static_cast<Word>(ping)};
        return StatusCap(Status::kOk);
      });
  net::UseNetwork(b, "app", options);
  sync::UseAllocator(b, "app");
  sync::UseScheduler(b, "app");
  b.Thread("app", 2, 16 * 1024, 12, "app.main");
  system_ = std::make_unique<System>(*machine_, b.Build());
  system_->Boot();
  ASSERT_TRUE(system_->RunUntil([&] { return shared->status == 1; },
                                20'000'000'000ull));
  world_->SendPingOfDeath();
  ASSERT_TRUE(system_->RunUntil(
      [&] {
        return system_->boot().FindCompartment("tcpip")->reboot_count > 0;
      },
      4'000'000'000ull));
  shared->value = 1;  // release the app to verify recovery
  ASSERT_TRUE(
      system_->RunUntil([&] { return shared->words.size() == 2; },
                        30'000'000'000ull));
  EXPECT_EQ(static_cast<Status>(static_cast<int32_t>(shared->words[0])),
            Status::kOk);
  EXPECT_EQ(static_cast<Status>(static_cast<int32_t>(shared->words[1])),
            Status::kOk);
}

TEST_F(NetTest, FirewallBlocksUnapprovedPort) {
  RunApp([](CompartmentCtx& ctx, std::shared_ptr<Shared> shared) {
    ctx.Call("tcpip.wait_ready", {WordCap(~0u)});
    const Capability q = ctx.SealedImport("app_quota");
    // Port 9999 is not in the firewall's allow list: the SYN never leaves.
    const Capability sock = ctx.Call(
        "tcpip.socket_connect_tcp",
        {q, WordCap(kWorldIp), WordCap(9999), WordCap(33'000'000)});
    shared->status = static_cast<int32_t>(sock.word());
    shared->value = sock.tag() ? 1 : 0;
  });
  EXPECT_EQ(shared_->value, 0u);
  EXPECT_EQ(static_cast<Status>(shared_->status), Status::kTimedOut);
  EXPECT_EQ(world_->tcp_connections_accepted(), 0u);
}

}  // namespace
}  // namespace cheriot
