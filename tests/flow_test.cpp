// cheriot-flow tests (DESIGN.md §13): deterministic latency histograms,
// causal flow-table assembly across boards and the gateway, MQTT publish
// fan-out spans, fault-drop observability, the fleet metrics time-series,
// and the two contracts every observability layer in this repo pins —
// zero-guest-cycle (fingerprints identical with recording on/off, snapshots
// byte-identical) and host-worker invariance (exports byte-identical at 1, 2
// and 4 fleet worker threads).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "src/base/costs.h"
#include "src/flow/flow.h"
#include "src/kernel/schedule_arbiter.h"
#include "src/net/world.h"
#include "src/sim/fleet.h"
#include "src/sim/fleet_app.h"
#include "src/trace/export.h"
#include "src/trace/trace.h"

namespace cheriot {
namespace {

using flow::FlowId;
using flow::FlowRecorder;
using flow::LatencyHistogram;
using sim::Fleet;
using sim::FleetAppOptions;
using sim::FleetAppState;
using sim::FleetOptions;

constexpr Cycles kSecond = cost::kCoreHz;

// --- LatencyHistogram --------------------------------------------------------

TEST(LatencyHistogramTest, BucketBoundsArePartition) {
  // Bucket uppers strictly increase, and BucketOf(v) is the first bucket
  // whose inclusive upper bound is >= v — together the buckets partition the
  // value space.
  for (size_t b = 1; b < LatencyHistogram::kBuckets; ++b) {
    EXPECT_LT(LatencyHistogram::BucketUpper(b - 1),
              LatencyHistogram::BucketUpper(b));
  }
  for (uint64_t v : {0ull, 1ull, 15ull, 16ull, 17ull, 63ull, 64ull, 1000ull,
                     3300ull, 123456789ull, (1ull << 31), (1ull << 40)}) {
    const size_t b = LatencyHistogram::BucketOf(v);
    EXPECT_GE(LatencyHistogram::BucketUpper(b), std::min(
        v, LatencyHistogram::BucketUpper(LatencyHistogram::kBuckets - 1)));
    if (b > 0 && b < LatencyHistogram::kBuckets - 1) {
      EXPECT_LT(LatencyHistogram::BucketUpper(b - 1), v);
    }
  }
}

TEST(LatencyHistogramTest, QuantilesAreExactWithinBucketWidth) {
  // Deterministic pseudo-random sample (fixed LCG), brute-force sorted
  // quantiles as reference. The histogram's quantile is the inclusive upper
  // bound of the target sample's bucket (tightened by min/max), so it is
  // always >= the exact value and within one bucket width (<= 25%) above it.
  LatencyHistogram h;
  std::vector<uint64_t> values;
  uint64_t x = 0x2545F4914F6CDD1Dull;
  for (int i = 0; i < 5000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const uint64_t v = (x >> 33) % 1'000'000;
    values.push_back(v);
    h.Add(v);
  }
  std::sort(values.begin(), values.end());
  EXPECT_EQ(h.count(), values.size());
  EXPECT_EQ(h.min(), values.front());
  EXPECT_EQ(h.max(), values.back());
  for (double q : {0.0, 0.5, 0.9, 0.99}) {
    const size_t rank = std::max<size_t>(
        1, static_cast<size_t>(std::ceil(q * double(values.size()))));
    const uint64_t exact = values[rank - 1];
    const uint64_t est = h.Quantile(q);
    EXPECT_GE(est, exact) << "q=" << q;
    EXPECT_LE(est, exact + exact / 4 + 1) << "q=" << q;
  }
  EXPECT_EQ(h.Quantile(1.0), values.back());
}

TEST(LatencyHistogramTest, EmptyAndSingleton) {
  LatencyHistogram h;
  EXPECT_EQ(h.Quantile(0.5), 0u);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  h.Add(3300);
  // One sample: every quantile is that sample, exactly (min/max tightening).
  EXPECT_EQ(h.Quantile(0.0), 3300u);
  EXPECT_EQ(h.Quantile(0.5), 3300u);
  EXPECT_EQ(h.Quantile(0.99), 3300u);
  EXPECT_EQ(h.sum(), 3300u);
}

TEST(FlowIdTest, KeyAndLabel) {
  const FlowId a{3, 17};
  EXPECT_EQ(a.Label(), "b3#17");
  EXPECT_EQ(a.key(), (3ull << 32) | 17);
  const FlowId gw{FlowId::kGateway, 5};
  EXPECT_EQ(gw.Label(), "gw#5");
  EXPECT_EQ(gw.key() >> 32, 0xFFFFull);  // origin packed as uint16
  EXPECT_TRUE(gw.valid());
  const FlowId none;
  EXPECT_EQ(none.Label(), "none");
  EXPECT_FALSE(none.valid());
  EXPECT_NE(a.key(), gw.key());
}

// --- Fleet harness -----------------------------------------------------------

struct FlowFleet {
  std::unique_ptr<Fleet> fleet;
  std::vector<std::shared_ptr<FleetAppState>> states;
};

FlowFleet MakeFleet(int boards, FleetOptions options,
                    const std::vector<FleetAppOptions>& apps = {}) {
  FlowFleet run;
  run.fleet = std::make_unique<Fleet>(options);
  for (int i = 0; i < boards; ++i) {
    auto state = std::make_shared<FleetAppState>();
    FleetAppOptions app =
        static_cast<size_t>(i) < apps.size() ? apps[static_cast<size_t>(i)]
                                             : FleetAppOptions{};
    app.board_index = i;
    run.fleet->AddBoard(sim::BuildFleetAppImage(state, app));
    run.states.push_back(std::move(state));
  }
  run.fleet->Boot();
  return run;
}

bool AllConnected(const FlowFleet& run) {
  for (const auto& s : run.states) {
    if (!s->connected) {
      return false;
    }
  }
  return true;
}

// --- Zero-guest-cycle contract ----------------------------------------------

TEST(FlowTest, RecordingChangesNoFingerprintAndNoSnapshotByte) {
  FleetOptions on;
  on.flow = true;
  FlowFleet flowed = MakeFleet(2, on);
  FlowFleet plain = MakeFleet(2, FleetOptions{});
  flowed.fleet->Run(4 * kSecond);
  plain.fleet->Run(4 * kSecond);
  flowed.fleet->PublishMqtt("leds", {'o', 'n'});
  plain.fleet->PublishMqtt("leds", {'o', 'n'});
  flowed.fleet->Run(kSecond);
  plain.fleet->Run(kSecond);
  EXPECT_EQ(flowed.fleet->Fingerprints(), plain.fleet->Fingerprints());
  // Ids are assigned whether or not a recorder is attached, so flow mode is
  // invisible to the snapshot too — byte for byte.
  std::vector<uint8_t> a;
  std::vector<uint8_t> b;
  flowed.fleet->Snapshot(a);
  plain.fleet->Snapshot(b);
  EXPECT_EQ(a, b);
  // And the recorder actually saw the run.
  ASSERT_NE(flowed.fleet->flow_recorder(), nullptr);
  EXPECT_EQ(plain.fleet->flow_recorder(), nullptr);
  EXPECT_GT(flowed.fleet->flow_recorder()->flow_count(), 0u);
}

// --- Worker invariance -------------------------------------------------------

TEST(FlowTest, ExportsAreByteIdenticalAcrossWorkerCounts) {
  auto run = [](int host_threads) {
    FleetOptions o;
    o.host_threads = host_threads;
    o.flow = true;
    o.flow_options.metrics_interval = kSecond / 2;
    FlowFleet f = MakeFleet(4, o);
    f.fleet->Run(4 * kSecond);
    f.fleet->PublishMqtt("leds", {'o', 'n'});
    f.fleet->Run(2 * kSecond);
    FlowRecorder* fr = f.fleet->flow_recorder();
    return fr->FlowTableJson().Dump(2) + fr->HistogramsJson().Dump(2) +
           fr->MetricsJson().Dump(2);
  };
  const std::string one = run(1);
  EXPECT_EQ(run(2), one);
  EXPECT_EQ(run(4), one);
  // And repeatable: the export is a pure function of the run.
  EXPECT_EQ(run(1), one);
}

// --- Causal assembly ---------------------------------------------------------

TEST(FlowTest, ControlPublishFansOutToEverySubscriberWithLatency) {
  FleetOptions o;
  o.flow = true;
  FlowFleet run = MakeFleet(3, o);
  ASSERT_TRUE(
      run.fleet->RunUntil([&] { return AllConnected(run); }, 60 * kSecond));
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

  FlowRecorder* fr = run.fleet->flow_recorder();
  ASSERT_NE(fr, nullptr);
  // The control publish produced a publish span with one fan-out leg per
  // subscribed board, each leg a gateway-origin flow delivered to a distinct
  // board.
  const FlowRecorder::Publish* pub = nullptr;
  for (const auto& p : fr->publishes()) {
    if (p.topic == "leds" && p.publisher == FlowId::kGateway) {
      pub = &p;
    }
  }
  ASSERT_NE(pub, nullptr);
  EXPECT_EQ(pub->carrier, FlowRecorder::kNoKey);
  ASSERT_EQ(pub->fanout.size(), 3u);
  std::vector<int> delivered_to;
  for (uint64_t key : pub->fanout) {
    const auto it = fr->flows().find(key);
    ASSERT_NE(it, fr->flows().end());
    const auto& info = it->second;
    EXPECT_EQ(info.id.origin, FlowId::kGateway);
    EXPECT_TRUE(info.has_tx);
    ASSERT_EQ(info.deliveries.size(), 1u);
    EXPECT_GE(info.deliveries[0].at, info.tx_at);
    delivered_to.push_back(info.deliveries[0].board);
  }
  std::sort(delivered_to.begin(), delivered_to.end());
  EXPECT_EQ(delivered_to, (std::vector<int>{0, 1, 2}));
  // End-to-end latency per leg landed in the topic histogram; every leg
  // crosses exactly one board link.
  const auto& topics = fr->topic_histograms();
  ASSERT_TRUE(topics.count("leds"));
  EXPECT_EQ(topics.at("leds").count(), 3u);
  EXPECT_GE(topics.at("leds").min(), 3'300u);
  // Gateway->board frame latency histograms exist for every board pair used.
  ASSERT_TRUE(fr->pair_histograms().count({FlowId::kGateway, 0}));
  EXPECT_EQ(fr->pair_histograms().at({FlowId::kGateway, 0}).min(), 3'300u);
}

TEST(FlowTest, GuestPublishFansOutThroughBrokerToSubscribedPeer) {
  FleetOptions o;
  o.flow = true;
  o.world.mqtt_fanout = true;
  // Board 1 subscribes to the topic the fleet app publishes its status on;
  // with broker fan-out enabled, board 0's announce must reach it.
  std::vector<FleetAppOptions> apps(2);
  apps[1].subscribe_topic = "status";
  FlowFleet run = MakeFleet(2, o, apps);
  ASSERT_TRUE(run.fleet->RunUntil(
      [&] { return run.states[1]->notifications >= 1; }, 120 * kSecond));

  FlowRecorder* fr = run.fleet->flow_recorder();
  const FlowRecorder::Publish* pub = nullptr;
  for (const auto& p : fr->publishes()) {
    if (p.topic == "status" && p.publisher == 0 && !p.fanout.empty()) {
      pub = &p;
      break;
    }
  }
  ASSERT_NE(pub, nullptr) << "no guest publish span with fan-out recorded";
  // The span is causally stitched: the carrier is board 0's frame that
  // brought the PUBLISH to the broker, and each fan-out leg is parented on
  // that carrier and delivered to the subscriber.
  ASSERT_NE(pub->carrier, FlowRecorder::kNoKey);
  const auto carrier_it = fr->flows().find(pub->carrier);
  ASSERT_NE(carrier_it, fr->flows().end());
  EXPECT_EQ(carrier_it->second.id.origin, 0);
  EXPECT_TRUE(carrier_it->second.gateway_rx);
  bool delivered_to_subscriber = false;
  for (uint64_t key : pub->fanout) {
    const auto it = fr->flows().find(key);
    ASSERT_NE(it, fr->flows().end());
    EXPECT_EQ(it->second.parent, pub->carrier);
    for (const auto& d : it->second.deliveries) {
      delivered_to_subscriber |= d.board == 1;
    }
  }
  EXPECT_TRUE(delivered_to_subscriber);
  // End-to-end topic latency, measured from the publisher's NIC transmit.
  // The gateway port sits inside the switch (latency 0), so the span covers
  // exactly the subscriber's link.
  ASSERT_TRUE(fr->topic_histograms().count("status"));
  EXPECT_GE(fr->topic_histograms().at("status").min(), 3'300u);
}

// --- Fault-drop observability ------------------------------------------------

TEST(FlowTest, GatewayTcpFaultDropsAreCountedAndAttributed) {
  FleetOptions o;
  o.flow = true;
  o.trace = true;
  o.world.drop_every_nth_tcp = 3;
  std::vector<FleetAppOptions> apps(2);
  apps[0].busy_publishes = 8;
  apps[1].busy_publishes = 8;
  FlowFleet run = MakeFleet(2, o, apps);
  run.fleet->Run(30 * kSecond);
  const uint64_t dropped = run.fleet->gateway().tcp_segments_dropped();
  ASSERT_GT(dropped, 0u);

  // Every injected drop is observable three ways, and the counts agree:
  // the flow recorder's drop records...
  FlowRecorder* fr = run.fleet->flow_recorder();
  EXPECT_EQ(fr->drops(), dropped);
  uint64_t gateway_tcp_drops = 0;
  for (const auto& [key, info] : fr->flows()) {
    for (const auto& d : info.drops) {
      if (d.reason == flow::kDropGatewayTcp) {
        ++gateway_tcp_drops;
      }
    }
  }
  EXPECT_EQ(gateway_tcp_drops, dropped);
  // ...the fabric recorder's kFrameDrop events (clockless, gateway has no
  // clock of its own)...
  trace::TraceRecorder* fabric = run.fleet->fabric_trace();
  ASSERT_NE(fabric, nullptr);
  EXPECT_EQ(fabric->frames_dropped(), dropped);
  uint64_t drop_events = 0;
  for (const auto& e : fabric->Events()) {
    if (e.type == trace::EventType::kFrameDrop) {
      ++drop_events;
      EXPECT_EQ(e.b, flow::kDropGatewayTcp);
      EXPECT_NE(e.a, trace::kNoFlowOrigin);  // provenance rode along
    }
  }
  EXPECT_EQ(drop_events, dropped);
  // ...and the byte-stable flow table names the reason.
  EXPECT_NE(fr->FlowTableJson().Dump(2).find("gateway_tcp"), std::string::npos);
}

// Drops the first `n` frames delivered to the board it is installed on.
class DropFirstFrames : public ScheduleArbiter {
 public:
  explicit DropFirstFrames(uint32_t n) : n_(n) {}
  int Choose(DecisionKind kind, uint32_t subject, int) override {
    if (kind == DecisionKind::kNicLoss && subject < n_) {
      return 1;
    }
    return 0;
  }

 private:
  uint32_t n_;
};

TEST(FlowTest, ArbiterNicLossEmitsFrameDropAndFlowRecord) {
  FleetOptions o;
  o.flow = true;
  o.trace = true;
  FlowFleet run = MakeFleet(2, o);
  DropFirstFrames arbiter(2);
  run.fleet->board(0).SetArbiter(&arbiter);
  ASSERT_TRUE(run.fleet->RunUntil(
      [&] {
        return run.fleet->board(0).machine().ethernet().frames_dropped() >= 2;
      },
      60 * kSecond));
  run.fleet->Run(kSecond);  // let the barrier drain the staged observations

  // The NIC counter, the board's trace ring and the flow recorder agree.
  EXPECT_EQ(run.fleet->board(0).machine().ethernet().frames_dropped(), 2u);
  uint64_t drop_events = 0;
  for (const auto& e : run.fleet->board(0).trace_recorder()->Events()) {
    if (e.type == trace::EventType::kFrameDrop) {
      ++drop_events;
      EXPECT_EQ(e.b, flow::kDropNicLoss);
    }
  }
  EXPECT_EQ(drop_events, 2u);
  FlowRecorder* fr = run.fleet->flow_recorder();
  uint64_t nic_loss_drops = 0;
  for (const auto& [key, info] : fr->flows()) {
    for (const auto& d : info.drops) {
      if (d.reason == flow::kDropNicLoss) {
        ++nic_loss_drops;
      }
    }
  }
  EXPECT_EQ(nic_loss_drops, 2u);
  // DHCP recovered despite the loss (the firmware retries), so the fleet
  // still connects — drops are observability, not a hang.
  ASSERT_TRUE(
      run.fleet->RunUntil([&] { return AllConnected(run); }, 120 * kSecond));
}

// --- Metrics time-series -----------------------------------------------------

TEST(FlowTest, MetricsSeriesSamplesEveryBoardOnCadence) {
  FleetOptions o;
  o.flow = true;
  o.flow_options.metrics_interval = kSecond / 4;
  FlowFleet run = MakeFleet(2, o);
  ASSERT_TRUE(
      run.fleet->RunUntil([&] { return AllConnected(run); }, 60 * kSecond));
  run.fleet->Run(2 * kSecond);

  FlowRecorder* fr = run.fleet->flow_recorder();
  const auto& m = fr->metrics();
  ASSERT_GT(m.rows(), 0u);
  EXPECT_EQ(m.rows() % 2, 0u);  // one row per board per sample
  const json::Value j = fr->MetricsJson();
  const std::string dump = j.Dump(2);
  EXPECT_NE(dump.find("\"schema_version\": 1"), std::string::npos);
  for (const char* col :
       {"cycle", "board", "board_cycle", "busy_cycles", "idle_cycles", "traps",
        "allocs", "quota_denials", "nic_tx_frames", "nic_rx_frames",
        "nic_drops", "futex_waits"}) {
    EXPECT_NE(dump.find(std::string("\"") + col + "\""), std::string::npos)
        << col;
  }
  // The counters are real: a connected fleet-node board has allocated,
  // futex-waited, transmitted and received by now. Spot-check the last
  // sample of board 0 against the live board.
  sim::Board& b0 = run.fleet->board(0);
  EXPECT_GT(b0.machine().ethernet().tx_frames(), 0u);
  EXPECT_GT(b0.machine().ethernet().rx_frames(), 0u);
  EXPECT_GT(b0.system().sched().futex_waits(), 0u);
  EXPECT_GT(b0.system().alloc().allocation_count(), 0u);
}

// --- Perfetto arrows ---------------------------------------------------------

TEST(FlowTest, PerfettoExportEmitsFlowArrowsBetweenBoards) {
  FleetOptions o;
  o.flow = true;
  o.trace = true;
  FlowFleet run = MakeFleet(2, o);
  ASSERT_TRUE(
      run.fleet->RunUntil([&] { return AllConnected(run); }, 60 * kSecond));
  const std::string json =
      trace::MergedChromeTrace(run.fleet->TraceRecorders()).Dump(2);
  // Flow arrows: a start ("s") at the transmitting board's NIC track and a
  // binding-point-enclosing finish ("f") at the receiver, sharing an id.
  EXPECT_NE(json.find("\"ph\": \"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"f\""), std::string::npos);
  EXPECT_NE(json.find("\"bp\": \"e\""), std::string::npos);
  // NIC events carry the human-readable flow label.
  EXPECT_NE(json.find("\"flow\": \"b0#0\""), std::string::npos);
}

}  // namespace
}  // namespace cheriot
