// Fleet simulation tests: N boards booting the MQTT case-study firmware,
// all connecting through the Fabric to the shared Gateway broker, DHCP
// leases from the address pool, board-to-board ping through gateway IP
// forwarding, and the determinism contract — bit-identical per-board results
// for any host thread count and across repeated runs.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/base/costs.h"
#include "src/net/world.h"
#include "src/rtos.h"
#include "src/sim/fleet.h"
#include "src/sim/fleet_app.h"
#include "src/snap/snapshot.h"
#include "src/sync/sync.h"

namespace cheriot {
namespace {

using sim::Board;
using sim::Fleet;
using sim::FleetAppOptions;
using sim::FleetAppState;
using sim::FleetOptions;

constexpr Cycles kSecond = cost::kCoreHz;

struct FleetRun {
  std::unique_ptr<Fleet> fleet;
  std::vector<std::shared_ptr<FleetAppState>> states;
};

FleetRun MakeFleet(int boards, int host_threads,
                   bool ping_next_peer = false, bool fast_forward = true,
                   Cycles epoch = 0) {
  FleetRun run;
  FleetOptions options;
  options.host_threads = host_threads;
  options.system.fast_forward = fast_forward;
  options.epoch = epoch;
  run.fleet = std::make_unique<Fleet>(options);
  for (int i = 0; i < boards; ++i) {
    auto state = std::make_shared<FleetAppState>();
    FleetAppOptions app;
    app.board_index = i;
    if (ping_next_peer) {
      // Leases are handed out in board-index order (asserted by
      // FleetBootsAndConnects), so the peer's address is predictable.
      app.ping_ip = net::kDeviceIp + static_cast<uint32_t>((i + 1) % boards);
    }
    run.fleet->AddBoard(sim::BuildFleetAppImage(state, app));
    run.states.push_back(std::move(state));
  }
  run.fleet->Boot();
  return run;
}

bool AllConnected(const FleetRun& run) {
  for (const auto& s : run.states) {
    if (!s->connected || s->publishes < 1) {
      return false;
    }
  }
  return true;
}

TEST(FleetTest, EightBoardsBootAndConnectToSharedBroker) {
  FleetRun run = MakeFleet(8, /*host_threads=*/1);
  ASSERT_TRUE(run.fleet->RunUntil([&] { return AllConnected(run); },
                                  60 * kSecond));
  net::Gateway& gw = run.fleet->gateway();

  // Every board has a distinct DHCP lease, handed out in board-index order.
  EXPECT_EQ(gw.pool().lease_count(), 8u);
  std::set<uint32_t> ips;
  for (int i = 0; i < 8; ++i) {
    const auto& s = run.states[static_cast<size_t>(i)];
    EXPECT_TRUE(s->ready);
    EXPECT_EQ(s->ip, net::kDeviceIp + static_cast<uint32_t>(i))
        << "board " << i;
    ips.insert(s->ip);
    // The gateway's pool agrees with what the board thinks it leased.
    const auto pool_ip =
        gw.pool().IpOf(run.fleet->board(static_cast<size_t>(i)).mac());
    ASSERT_TRUE(pool_ip.has_value());
    EXPECT_EQ(*pool_ip, s->ip);
    EXPECT_GE(gw.mqtt_publishes_from(s->ip), 1u) << "board " << i;
  }
  EXPECT_EQ(ips.size(), 8u);
  EXPECT_EQ(gw.mqtt_clients_connected(), 8u);
  EXPECT_GE(gw.mqtt_publishes_received(), 8u);
  EXPECT_GE(gw.dhcp_acks_sent(), 8u);
}

TEST(FleetTest, BrokerPushFansOutToAllBoards) {
  FleetRun run = MakeFleet(4, /*host_threads=*/1);
  ASSERT_TRUE(run.fleet->RunUntil([&] { return AllConnected(run); },
                                  60 * kSecond));
  run.fleet->PublishMqtt("leds", {'o', 'n'});
  ASSERT_TRUE(run.fleet->RunUntil(
      [&] {
        for (const auto& s : run.states) {
          if (s->notifications < 1) {
            return false;
          }
        }
        return true;
      },
      30 * kSecond));
}

TEST(FleetTest, BoardsPingEachOtherThroughGateway) {
  FleetRun run = MakeFleet(4, /*host_threads=*/1, /*ping_next_peer=*/true);
  ASSERT_TRUE(run.fleet->RunUntil(
      [&] {
        for (const auto& s : run.states) {
          if (s->peer_ping_oks < 1) {
            return false;
          }
        }
        return true;
      },
      120 * kSecond));
  // Peer traffic crosses the gateway's IP forwarding path.
  EXPECT_GT(run.fleet->gateway().frames_forwarded(), 0u);
}

TEST(FleetTest, HostPingsEveryBoardThroughFabric) {
  FleetRun run = MakeFleet(4, /*host_threads=*/1);
  ASSERT_TRUE(run.fleet->RunUntil([&] { return AllConnected(run); },
                                  60 * kSecond));
  net::Gateway& gw = run.fleet->gateway();
  for (uint32_t i = 0; i < 4; ++i) {
    run.fleet->SendPing(net::kDeviceIp + i, 0x50, static_cast<uint16_t>(i));
  }
  ASSERT_TRUE(run.fleet->RunUntil(
      [&] { return gw.ping_replies_seen() >= 4; }, 30 * kSecond));
  for (uint32_t i = 0; i < 4; ++i) {
    EXPECT_GE(gw.ping_replies_from(net::kDeviceIp + i), 1u) << "board " << i;
  }
}

// --- Determinism contract ---------------------------------------------------

struct RunOutcome {
  std::vector<Board::Fingerprint> fingerprints;
  std::vector<int> notifications;
  uint32_t gw_publishes = 0;
  uint32_t gw_acks = 0;
  uint32_t gw_accepts = 0;
  uint64_t frames = 0;
};

// Fixed two-phase horizon: run, publish from the broker at a fixed fleet
// time, run again. Everything observable must be a pure function of the
// firmware — not of the host thread count or of which run this is.
RunOutcome RunFixedHorizon(int boards, int host_threads,
                           bool fast_forward = true, Cycles epoch = 0) {
  FleetRun run = MakeFleet(boards, host_threads, /*ping_next_peer=*/false,
                           fast_forward, epoch);
  run.fleet->Run(20 * kSecond);
  run.fleet->PublishMqtt("leds", {'o', 'n'});
  run.fleet->Run(5 * kSecond);
  RunOutcome out;
  out.fingerprints = run.fleet->Fingerprints();
  for (const auto& s : run.states) {
    out.notifications.push_back(s->notifications);
  }
  out.gw_publishes = run.fleet->gateway().mqtt_publishes_received();
  out.gw_acks = run.fleet->gateway().dhcp_acks_sent();
  out.gw_accepts = run.fleet->gateway().tcp_connections_accepted();
  out.frames = run.fleet->frames_exchanged();
  return out;
}

void ExpectSameOutcome(const RunOutcome& a, const RunOutcome& b,
                       const char* label) {
  ASSERT_EQ(a.fingerprints.size(), b.fingerprints.size());
  for (size_t i = 0; i < a.fingerprints.size(); ++i) {
    const auto& fa = a.fingerprints[i];
    const auto& fb = b.fingerprints[i];
    EXPECT_EQ(fa.now, fb.now) << label << " board " << i;
    EXPECT_EQ(fa.accesses, fb.accesses) << label << " board " << i;
    EXPECT_EQ(fa.cap_loads, fb.cap_loads) << label << " board " << i;
    EXPECT_EQ(fa.cap_stores, fb.cap_stores) << label << " board " << i;
    EXPECT_EQ(fa.traps, fb.traps) << label << " board " << i;
    EXPECT_EQ(fa.idle_cycles, fb.idle_cycles) << label << " board " << i;
    EXPECT_EQ(fa.uart_bytes, fb.uart_bytes) << label << " board " << i;
    EXPECT_EQ(fa.uart_hash, fb.uart_hash) << label << " board " << i;
    EXPECT_EQ(fa.reboots, fb.reboots) << label << " board " << i;
  }
  EXPECT_EQ(a.notifications, b.notifications) << label;
  EXPECT_EQ(a.gw_publishes, b.gw_publishes) << label;
  EXPECT_EQ(a.gw_acks, b.gw_acks) << label;
  EXPECT_EQ(a.gw_accepts, b.gw_accepts) << label;
  EXPECT_EQ(a.frames, b.frames) << label;
}

TEST(FleetDeterminismTest, RepeatedRunsAreBitIdentical) {
  const RunOutcome first = RunFixedHorizon(4, 1);
  const RunOutcome second = RunFixedHorizon(4, 1);
  // Sanity: the horizon covers real activity, not just idle boards.
  EXPECT_GE(first.gw_accepts, 4u);
  EXPECT_GT(first.frames, 0u);
  ExpectSameOutcome(first, second, "repeat");
}

TEST(FleetDeterminismTest, ThreadCountDoesNotChangeResults) {
  const RunOutcome serial = RunFixedHorizon(4, 1);
  const RunOutcome two = RunFixedHorizon(4, 2);
  const RunOutcome four = RunFixedHorizon(4, 4);
  ExpectSameOutcome(serial, two, "2-thread");
  ExpectSameOutcome(serial, four, "4-thread");
}

// FNV-1a, one step per unit: a byte of the snapshot, or a whole 64-bit
// fingerprint field.
constexpr uint64_t kFnvOffset = 1469598103934665603ull;
uint64_t Fnv1a(uint64_t h, uint64_t unit) {
  return (h ^ unit) * 1099511628211ull;
}

// Every other determinism check here is self-relative: two runs of the same
// code must agree, so a change that moved every run the same way would pass
// them all. This one pins absolute digests of a 32-board, 4-worker run: the
// nine fingerprint fields of every board in board order, and the bytes of
// the fleet snapshot. Neither depends on the worker count. The snapshot does
// depend on the fast-forward mode: a fast-forwarded board skips the idle
// quantum timer, so at the final barrier its timer compare value and
// pending-IRQ mask differ from a fully stepped board's, and each mode has
// its own digest (FLET records the mode). CI runs this suite in both modes.
TEST(FleetDeterminismTest, AbsoluteGoldenThirtyTwoBoardsFourWorkers) {
  FleetRun run = MakeFleet(32, /*host_threads=*/4);
  run.fleet->Run(20 * kSecond);
  run.fleet->PublishMqtt("leds", {'o', 'n'});
  run.fleet->Run(5 * kSecond);

  uint64_t fingerprints = kFnvOffset;
  for (const Board::Fingerprint& fp : run.fleet->Fingerprints()) {
    for (uint64_t field : {fp.now, fp.accesses, fp.cap_loads, fp.cap_stores,
                           fp.traps, fp.idle_cycles, fp.uart_bytes,
                           fp.uart_hash, uint64_t{fp.reboots}}) {
      fingerprints = Fnv1a(fingerprints, field);
    }
  }
  std::vector<uint8_t> blob;
  run.fleet->Snapshot(blob);
  uint64_t snapshot = kFnvOffset;
  for (uint8_t byte : blob) {
    snapshot = Fnv1a(snapshot, byte);
  }

  EXPECT_EQ(fingerprints, 0xd50c99b7dd0e6e03ull);
  EXPECT_EQ(blob.size(), 8'696'745u);
  EXPECT_EQ(snapshot, run.fleet->fast_forward() ? 0x183855f075600b92ull
                                                 : 0x6c9dba523e3db80dull);
}

TEST(FleetTest, EpochNeverExceedsLinkLatency) {
  FleetRun run = MakeFleet(2, 1);
  EXPECT_GT(run.fleet->epoch_length(), 0u);
  EXPECT_LE(run.fleet->epoch_length(),
            run.fleet->fabric().MinLinkLatency());
}

// True when the CHERIOT_FLEET_FAST_FORWARD override is active: the explicit
// FleetOptions::system.fast_forward flag is ignored, so cross-mode comparisons
// degenerate (both sides run in the forced mode) and effectiveness tests
// must skip. CI exploits this to run the whole suite in each mode.
bool FastForwardForcedByEnv() {
  return std::getenv("CHERIOT_FLEET_FAST_FORWARD") != nullptr;
}

// The tentpole contract: idle fast-forward, adaptive epoch coarsening and
// board parking are pure host-time optimisations. Fingerprints, firmware
// observations and gateway counters are bit-identical with the optimisation
// on or off, at any worker count.
TEST(FleetDeterminismTest, FastForwardDoesNotChangeResults) {
  const RunOutcome off = RunFixedHorizon(4, 1, /*fast_forward=*/false);
  const RunOutcome on1 = RunFixedHorizon(4, 1, /*fast_forward=*/true);
  const RunOutcome on2 = RunFixedHorizon(4, 2, /*fast_forward=*/true);
  const RunOutcome on4 = RunFixedHorizon(4, 4, /*fast_forward=*/true);
  ExpectSameOutcome(off, on1, "ff-on 1-thread");
  ExpectSameOutcome(off, on2, "ff-on 2-thread");
  ExpectSameOutcome(off, on4, "ff-on 4-thread");
}

// Epoch length is a scheduling knob, not a semantic one: any value in
// (0, min link latency] yields bit-identical results, because frame delivery
// is keyed on due cycles, not on barrier placement.
TEST(FleetDeterminismTest, EpochLengthDoesNotChangeResults) {
  const Cycles min_latency = FleetOptions{}.board_link_latency;
  const RunOutcome dflt = RunFixedHorizon(4, 1);
  const RunOutcome half = RunFixedHorizon(4, 1, true, min_latency / 2);
  const RunOutcome full = RunFixedHorizon(4, 1, true, min_latency);
  ExpectSameOutcome(dflt, half, "epoch=min/2");
  ExpectSameOutcome(dflt, full, "epoch=min");
}

// epoch=1 is the degenerate worst case (a barrier every cycle while any
// board is busy), so compare over a short horizon only.
TEST(FleetDeterminismTest, SingleCycleEpochMatchesDefault) {
  constexpr Cycles kHorizon = 150'000;
  auto fingerprints_for = [](Cycles epoch) {
    FleetRun run = MakeFleet(2, 1, false, /*fast_forward=*/true, epoch);
    run.fleet->Run(kHorizon);
    return run.fleet->Fingerprints();
  };
  EXPECT_EQ(fingerprints_for(0), fingerprints_for(1));
}

// Run/RunUntil land the fleet clock exactly on the requested horizon whether
// or not it is a multiple of the epoch, in both fast-forward modes, with
// identical per-board fingerprints.
TEST(FleetTest, HorizonExactAndNonExactEpochMultiples) {
  std::vector<Board::Fingerprint> previous;
  for (bool ff : {false, true}) {
    FleetRun run = MakeFleet(2, 1, false, ff);
    const Cycles epoch = run.fleet->epoch_length();
    run.fleet->Run(10 * epoch);  // exact multiple
    EXPECT_EQ(run.fleet->Now(), 10 * epoch);
    run.fleet->Run(epoch / 2 + 1);  // non-exact
    EXPECT_EQ(run.fleet->Now(), 10 * epoch + epoch / 2 + 1);
    const Cycles start = run.fleet->Now();
    EXPECT_FALSE(run.fleet->RunUntil([] { return false; }, 3 * epoch + 7));
    EXPECT_EQ(run.fleet->Now(), start + 3 * epoch + 7);
    auto fps = run.fleet->Fingerprints();
    if (!previous.empty() && !FastForwardForcedByEnv()) {
      EXPECT_EQ(fps, previous) << "ff on/off divergence at odd horizons";
    }
    previous = std::move(fps);
  }
}

// The point of the tentpole: the firmware's poll loop sleeps ~0.25 simulated
// seconds between wakes, so an idle-heavy stretch should cross orders of
// magnitude fewer barriers than the one-per-min-link-latency baseline, and
// most per-board steps should be parked away entirely.
TEST(FleetTest, FastForwardCollapsesIdleEpochs) {
  if (FastForwardForcedByEnv() &&
      std::string(std::getenv("CHERIOT_FLEET_FAST_FORWARD")) == "0") {
    GTEST_SKIP() << "fast-forward forced off by environment";
  }
  FleetRun run = MakeFleet(4, 1);
  ASSERT_TRUE(run.fleet->RunUntil([&] { return AllConnected(run); },
                                  60 * kSecond));
  const uint64_t barriers_before = run.fleet->barriers();
  const Cycles idle_span = 30 * kSecond;
  run.fleet->Run(idle_span);
  const uint64_t barriers_taken = run.fleet->barriers() - barriers_before;
  const uint64_t conservative = idle_span / run.fleet->epoch_length();
  EXPECT_LT(barriers_taken, conservative / 10)
      << "adaptive coarsening should collapse idle epochs";
  EXPECT_GT(run.fleet->boards_skipped(), 0u);
  // Every board's clock caught up to the fleet clock (modulo overshoot).
  for (const auto& fp : run.fleet->Fingerprints()) {
    EXPECT_GE(fp.now, run.fleet->Now());
  }
}

// All boards talk to the shared gateway (DHCP broadcasts flood the switch),
// so the whole fleet collapses into one communication group.
TEST(FleetTest, ConnectedFleetFormsOneCommunicationGroup) {
  FleetRun run = MakeFleet(4, 1);
  EXPECT_EQ(run.fleet->communication_groups(), 5u);  // silent = singletons
  ASSERT_TRUE(run.fleet->RunUntil([&] { return AllConnected(run); },
                                  60 * kSecond));
  EXPECT_EQ(run.fleet->communication_groups(), 1u);
}

TEST(FleetTest, FabricGroupsTrackActualDeliveries) {
  sim::Fabric fabric;
  const int p0 = fabric.AttachPort(100, [](Cycles, sim::Fabric::Frame, flow::FlowId) {});
  const int p1 = fabric.AttachPort(100, [](Cycles, sim::Fabric::Frame, flow::FlowId) {});
  const int p2 = fabric.AttachPort(100, [](Cycles, sim::Fabric::Frame, flow::FlowId) {});
  EXPECT_EQ(fabric.group_count(), 3u);
  const uint64_t gen0 = fabric.group_generation();

  auto frame = [](uint8_t dst_tag, uint8_t src_tag) {
    sim::Fabric::Frame f(16, 0);
    f[5] = dst_tag;   // dst MAC 00:00:00:00:00:<dst>
    f[11] = src_tag;  // src MAC 00:00:00:00:00:<src>
    return f;
  };
  // Self-addressed frame: learns p1's MAC without delivering anywhere, so
  // the group partition must not change.
  fabric.Transmit(p1, 0, frame(11, 11));
  EXPECT_EQ(fabric.group_count(), 3u);
  EXPECT_EQ(fabric.group_generation(), gen0);
  // Learned unicast p0 -> p1 merges exactly those two.
  fabric.Transmit(p0, 0, frame(11, 10));
  EXPECT_EQ(fabric.group_count(), 2u);
  EXPECT_EQ(fabric.GroupOf(p0), fabric.GroupOf(p1));
  EXPECT_NE(fabric.GroupOf(p0), fabric.GroupOf(p2));
  // A broadcast floods every port: one group.
  sim::Fabric::Frame bcast(16, 0xFF);
  fabric.Transmit(p0, 0, bcast);
  EXPECT_EQ(fabric.group_count(), 1u);
  EXPECT_GT(fabric.group_generation(), gen0);
}

// --- Board RX delivery order ------------------------------------------------

// One thread asleep for the whole test: the guest never reads the NIC, so
// every delivered frame stays in the adaptor's RX FIFO for the host to read.
FirmwareImage SleeperImage() {
  ImageBuilder b("rx-order");
  b.Compartment("c").Export(
      "main", [](CompartmentCtx& ctx, const std::vector<Capability>&) {
        ctx.SleepCycles(1'000'000'000);
        return StatusCap(Status::kOk);
      });
  sync::UseScheduler(b, "c");
  b.Thread("t", 1, 2048, 6, "c.main");
  return b.Build();
}

// The first byte of each pending frame in the board's BORD section, checking
// that the section lists them in ascending due order.
std::vector<uint8_t> PendingTagsInBoardSection(Board& board) {
  snap::Writer w;
  snap::ContainerWriter c(w, snap::kScene, 0);
  board.WriteStateSections(c);
  const snap::Container parsed = snap::Container::Parse(w.data());
  snap::Reader r(parsed.Require(snap::kSecBoard).body);
  r.Bool();  // booted
  r.U8();    // last run result
  r.Bool();  // injected since deadlock
  r.U32();   // TX sequence
  EXPECT_EQ(r.U32(), 0u) << "no staged TX frames expected";
  std::vector<uint8_t> tags;
  Cycles previous_due = 0;
  for (uint32_t n = r.U32(); n > 0; --n) {
    const Cycles due = r.U64();
    EXPECT_GE(due, previous_due);
    previous_due = due;
    const std::vector<uint8_t> frame = r.Blob();
    const int32_t origin = r.I32();
    const uint32_t seq = r.U32();
    EXPECT_EQ(origin, 7);
    EXPECT_EQ(seq, frame.at(0)) << "flow id travels with its frame";
    tags.push_back(frame.at(0));
  }
  r.ExpectEnd("BORD");
  return tags;
}

// Reads every frame out of the NIC's RX FIFO through its MMIO registers and
// returns each frame's first byte, in the order the adaptor holds them.
std::vector<uint8_t> DrainNicTags(Board& board) {
  EthernetDevice& nic = board.machine().ethernet();
  std::vector<uint8_t> tags;
  while (nic.rx_pending() > 0) {
    EXPECT_EQ(nic.Mmio(0x04, false, 0), 20u);  // latch the head frame
    tags.push_back(static_cast<uint8_t>(nic.Mmio(0x08, false, 0)));
    nic.Mmio(0x0C, true, 0);  // pop it
  }
  return tags;
}

// The RX delivery-order contract (DESIGN.md §6): frames reach the NIC in
// ascending due cycle, first in first out among equal dues, whatever order
// they were injected in; the BORD section lists still-pending frames in
// that same order.
TEST(BoardRxTest, DeliversInDueOrderFirstInFirstOutAmongEqualDues) {
  Board board(SleeperImage(), {});
  board.Boot();
  board.StepTo(10'000);
  const Cycles t = board.Now();
  auto inject = [&](Cycles delay, uint8_t tag) {
    board.InjectAt(t + delay, Board::Frame(20, tag), flow::FlowId{7, tag});
  };
  // Tags are injection order; dues are out of order, with ties.
  inject(500, 0);
  inject(100, 1);
  inject(500, 2);
  inject(100, 3);
  inject(300, 4);
  inject(100, 5);
  EXPECT_EQ(PendingTagsInBoardSection(board),
            (std::vector<uint8_t>{1, 3, 5, 4, 0, 2}));

  board.StepTo(t + 200);
  EXPECT_EQ(DrainNicTags(board), (std::vector<uint8_t>{1, 3, 5}));
  EXPECT_EQ(PendingTagsInBoardSection(board),
            (std::vector<uint8_t>{4, 0, 2}));

  // A late arrival ties with an earlier one and queues behind it.
  inject(300, 6);
  EXPECT_EQ(PendingTagsInBoardSection(board),
            (std::vector<uint8_t>{4, 6, 0, 2}));
  board.StepTo(t + 1'000);
  EXPECT_EQ(DrainNicTags(board), (std::vector<uint8_t>{4, 6, 0, 2}));
  EXPECT_TRUE(PendingTagsInBoardSection(board).empty());
}

TEST(FleetTest, FastForwardEnvOverride) {
  // Restored at the end: later tests in this process must see the mode the
  // suite was started in.
  const char* outer = std::getenv("CHERIOT_FLEET_FAST_FORWARD");
  const std::optional<std::string> saved =
      outer ? std::optional<std::string>(outer) : std::nullopt;
  ASSERT_EQ(setenv("CHERIOT_FLEET_FAST_FORWARD", "0", 1), 0);
  {
    FleetOptions options;
    options.system.fast_forward = true;
    Fleet fleet(options);
    EXPECT_FALSE(fleet.fast_forward());
  }
  ASSERT_EQ(setenv("CHERIOT_FLEET_FAST_FORWARD", "1", 1), 0);
  {
    FleetOptions options;
    options.system.fast_forward = false;
    Fleet fleet(options);
    EXPECT_TRUE(fleet.fast_forward());
  }
  ASSERT_EQ(saved ? setenv("CHERIOT_FLEET_FAST_FORWARD", saved->c_str(), 1)
                  : unsetenv("CHERIOT_FLEET_FAST_FORWARD"),
            0);
}

// The boards' kernel option is the fleet's one fast-forward switch: turning
// it off turns off the boards' idle fast-forward and the fleet's parking and
// epoch coarsening alike.
TEST(FleetTest, SystemFastForwardOffTurnsTheFleetOff) {
  if (FastForwardForcedByEnv()) {
    GTEST_SKIP() << "fast-forward forced by environment";
  }
  FleetRun run = MakeFleet(2, 1, false, /*fast_forward=*/false);
  EXPECT_FALSE(run.fleet->fast_forward());
  EXPECT_FALSE(run.fleet->board(1).system().options().fast_forward);
  const Cycles span = 20 * run.fleet->epoch_length();
  run.fleet->Run(span);
  EXPECT_EQ(run.fleet->barriers(), span / run.fleet->epoch_length());
  EXPECT_EQ(run.fleet->boards_skipped(), 0u);
}

// Misconfigured epochs must die at construction, before any board exists —
// not silently truncate or fail later inside Boot().
TEST(FleetDeathTest, EpochBeyondLinkLatencyDiesAtConstruction) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  FleetOptions options;
  options.epoch = options.board_link_latency + 1;
  EXPECT_DEATH({ Fleet fleet(options); },
               "epoch must not exceed the board link latency");
}

TEST(FleetDeathTest, ZeroLinkLatencyDiesAtConstruction) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  FleetOptions options;
  options.board_link_latency = 0;
  EXPECT_DEATH({ Fleet fleet(options); },
               "board_link_latency must be positive");
}

}  // namespace
}  // namespace cheriot
