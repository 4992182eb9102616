// cheriot-flow: cross-board causal message tracing, end-to-end latency
// histograms and a fleet metrics time-series (DESIGN.md §13).
//
// Every NIC transmit gets a host-side FlowId — (origin board, per-board tx
// sequence) — carried *alongside* the frame through the Fabric and the
// Gateway, never inside guest-visible bytes. Ids are assigned
// unconditionally (the counters tick whether or not a recorder is attached),
// so enabling flow recording changes neither a guest cycle nor a snapshot
// byte; the FlowRecorder below is a pure observer fed single-threaded at
// fleet epoch barriers, which is what makes its exports byte-identical for
// any host worker count.
//
// Three products:
//   - a flow table: per-frame records stitching kNicTx -> fabric hop ->
//     kNicRx (or drop) plus gateway causality (frame that triggered a reply,
//     MQTT publish -> broker fan-out -> subscriber delivery);
//   - deterministic latency histograms (fixed log-spaced buckets, quantiles
//     computed exactly from bucket counts) per topic and per board pair;
//   - a columnar per-board metrics time-series sampled on a fixed guest-
//     cycle cadence at epoch barriers.
#ifndef SRC_FLOW_FLOW_H_
#define SRC_FLOW_FLOW_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/base/types.h"
#include "src/json/json.h"

namespace cheriot::flow {

// Host-side identity of one transmitted frame. POD and cheap to copy: it
// rides every staged frame whether or not recording is on.
struct FlowId {
  // `origin` sentinels. kGateway marks frames the gateway emitted (replies,
  // forwards, broker fan-out); kNone marks frames outside the provenance
  // plumbing (e.g. a test frame injected with the default id) — recorders
  // ignore those.
  static constexpr int16_t kGateway = -1;
  static constexpr int16_t kNone = -32768;

  int16_t origin = kNone;  // board index, or a sentinel above
  uint32_t seq = 0;        // per-origin transmit sequence

  bool valid() const { return origin != kNone; }
  // Stable 48-bit key: origin (as unsigned 16-bit) in the high lane.
  uint64_t key() const {
    return (static_cast<uint64_t>(static_cast<uint16_t>(origin)) << 32) | seq;
  }
  // Compact label for exports: "b3#17" (board 3, seq 17) or "gw#5".
  std::string Label() const;

  bool operator==(const FlowId&) const = default;
};

// Reasons carried by kFrameDrop trace events and FlowRecorder drop records.
inline constexpr uint8_t kDropNicLoss = 0;     // arbiter kNicLoss injection
inline constexpr uint8_t kDropGatewayTcp = 1;  // drop_every_nth_tcp at gateway

struct FlowOptions {
  // Metrics sampling cadence in guest cycles: one row per board is appended
  // at the first epoch barrier at or after each multiple of this interval.
  Cycles metrics_interval = 1'000'000;
};

// Fixed log-spaced latency histogram with exact integer quantiles.
//
// Bucketing: values 0..15 land in their own bucket (0..15); above that each
// power-of-two octave is split into 4 sub-buckets, so the relative bucket
// width stays <= 25% everywhere. 128 buckets cover every value below 2^32
// cycles (~130 simulated seconds); larger values clamp into the last bucket.
// Quantiles are computed from the bucket counts alone — Quantile(q) is the
// inclusive upper bound of the bucket holding the ceil(q*count)-th smallest
// sample — so two histograms with equal counts report identical quantiles on
// every host.
class LatencyHistogram {
 public:
  static constexpr size_t kBuckets = 128;

  static size_t BucketOf(uint64_t value);
  // Inclusive upper bound of bucket `b`.
  static uint64_t BucketUpper(size_t b);

  void Add(uint64_t value);

  uint64_t count() const { return count_; }
  uint64_t min() const { return count_ == 0 ? 0 : min_; }
  uint64_t max() const { return max_; }
  uint64_t sum() const { return sum_; }
  uint64_t bucket_count(size_t b) const { return counts_[b]; }
  // q in [0,1]; returns 0 on an empty histogram, exact max() for q >= 1.
  uint64_t Quantile(double q) const;

  // {"count":..,"min":..,"max":..,"sum":..,"p50":..,"p90":..,"p99":..,
  //  "buckets":[[upper,count],...]} with only non-empty buckets listed.
  json::Value ToJson() const;

 private:
  std::array<uint64_t, kBuckets> counts_{};
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = ~0ull;
  uint64_t max_ = 0;
};

// Columnar per-board counter samples. Append-only; one row per (cycle,
// board). Schema-versioned so downstream dashboards can detect drift.
class MetricsSeries {
 public:
  static constexpr int kSchemaVersion = 1;

  struct Row {
    Cycles at = 0;          // fleet barrier cycle the sample was taken at
    int32_t board = 0;
    Cycles board_now = 0;   // the board's own clock (may lag `at` if parked)
    Cycles idle_cycles = 0;
    uint64_t traps = 0;
    uint64_t allocs = 0;
    uint64_t quota_denials = 0;
    uint64_t nic_tx = 0;
    uint64_t nic_rx = 0;
    uint64_t nic_drops = 0;
    uint64_t futex_waits = 0;
  };

  void Append(const Row& row);
  size_t rows() const { return at_.size(); }

  // {"schema_version":1,"columns":{"cycle":[...],...}} — columns are
  // parallel arrays, one entry per row, in append order. busy_cycles is
  // derived (board_now - idle_cycles) at export so the stored counters stay
  // raw.
  json::Value ToJson() const;

 private:
  std::vector<uint64_t> at_;
  std::vector<int64_t> board_;
  std::vector<uint64_t> board_now_;
  std::vector<uint64_t> idle_cycles_;
  std::vector<uint64_t> traps_;
  std::vector<uint64_t> allocs_;
  std::vector<uint64_t> quota_denials_;
  std::vector<uint64_t> nic_tx_;
  std::vector<uint64_t> nic_rx_;
  std::vector<uint64_t> nic_drops_;
  std::vector<uint64_t> futex_waits_;
};

class FlowTable;

// Assembles per-frame flow records and message spans from the observation
// hooks below. Single-threaded by contract: the Fleet calls every hook at
// epoch barriers (board-index order). Never consulted on guest-visible
// paths — detaching it cannot move a cycle, attaching it cannot either.
class FlowRecorder {
 public:
  static constexpr int kSchemaVersion = 1;
  static constexpr uint64_t kNoKey = ~0ull;

  struct Hop {
    int32_t src_port = 0;
    int32_t dst_port = 0;
    Cycles tx_at = 0;
    Cycles due = 0;
  };
  struct Delivery {
    int32_t board = 0;
    Cycles at = 0;
  };
  struct Drop {
    uint8_t reason = kDropNicLoss;
    Cycles at = 0;
  };
  struct FlowInfo {
    FlowId id;
    bool has_tx = false;
    Cycles tx_at = 0;
    uint32_t bytes = 0;
    uint64_t parent = kNoKey;     // gateway causality: frame that caused this
    int32_t publish_index = -1;   // fan-out leg of publishes()[i], or -1
    bool gateway_rx = false;
    Cycles gateway_rx_at = 0;
    std::vector<Hop> hops;
    std::vector<Delivery> deliveries;
    std::vector<Drop> drops;
  };
  struct Publish {
    std::string topic;
    int16_t publisher = FlowId::kGateway;  // origin board; kGateway = control
    uint64_t carrier = kNoKey;  // flow that carried the PUBLISH to the broker
    Cycles at = 0;              // broker receipt (or control publish) cycle
    std::vector<uint64_t> fanout;  // child flow keys, one per subscriber leg
  };

  explicit FlowRecorder(FlowOptions options = {});

  // --- Observation hooks ----------------------------------------------------
  // Board transmit: creates (or completes) the flow record for `id`.
  void OnTx(FlowId id, Cycles at, size_t bytes);
  // Fabric switch decision: one per delivered leg (floods record several).
  void OnHop(FlowId id, int src_port, int dst_port, Cycles tx_at, Cycles due,
             size_t bytes);
  // Frame handed to a board's NIC at `at` (the guest-visible arrival).
  void OnDelivery(FlowId id, int board, Cycles at);
  // Frame dropped before delivery (kDropNicLoss / kDropGatewayTcp).
  void OnDrop(FlowId id, uint8_t reason, Cycles at);
  // Gateway consumed the frame at `at` (netstack delivery on the host side).
  void OnGatewayRx(FlowId id, Cycles at);
  // Gateway emitted `child` while processing `parent` (kNoKey-parented when
  // emitted from the control surface). Creates the child's flow record; if a
  // publish span is open, the child is recorded as one of its fan-out legs.
  void OnGatewayEmit(FlowId child, FlowId parent, Cycles at, size_t bytes);
  // MQTT publish span: every OnGatewayEmit between Begin and End is one
  // broker->subscriber fan-out leg of this publish.
  void BeginPublish(const std::string& topic, FlowId carrier, Cycles at);
  void EndPublish();

  // --- Read side ------------------------------------------------------------
  size_t flow_count() const { return flows_.size(); }
  uint64_t deliveries() const { return deliveries_; }
  uint64_t drops() const { return drops_; }
  const std::map<uint64_t, FlowInfo>& flows() const { return flows_; }
  const std::vector<Publish>& publishes() const { return publishes_; }
  MetricsSeries& metrics() { return metrics_; }
  const FlowOptions& options() const { return options_; }

  // Per-topic publish->subscriber-delivery latency (guest cycles, measured
  // from the carrier frame's transmit when known, else the broker receipt).
  const std::map<std::string, LatencyHistogram>& topic_histograms() const {
    return topic_latency_;
  }
  // Per (src board, dst board) frame tx->delivery latency; the gateway
  // appears as board -1.
  const std::map<std::pair<int, int>, LatencyHistogram>& pair_histograms()
      const {
    return pair_latency_;
  }

  // --- Byte-stable exports --------------------------------------------------
  // All three are pure functions of the hook call sequence, which the fleet
  // barrier schedule makes identical for any host worker count.
  FlowTable FlowTableJson() const;
  json::Value HistogramsJson() const;
  json::Value MetricsJson() const;

 private:
  FlowInfo& Ensure(FlowId id);

  FlowOptions options_;
  std::map<uint64_t, FlowInfo> flows_;
  std::vector<Publish> publishes_;
  int32_t open_publish_ = -1;
  uint64_t deliveries_ = 0;
  uint64_t drops_ = 0;
  std::map<std::string, LatencyHistogram> topic_latency_;
  std::map<std::pair<int, int>, LatencyHistogram> pair_latency_;
  MetricsSeries metrics_;
};

// The flow table of one recorder, which must outlive it: Dump streams every
// flow and publish through a json::Writer into one string, with no
// json::Value tree, and writes the bytes json::Value::Dump(indent) would for
// that tree.
class FlowTable {
 public:
  explicit FlowTable(const FlowRecorder& recorder) : recorder_(&recorder) {}

  std::string Dump(int indent = 2) const;

 private:
  const FlowRecorder* recorder_;
};

}  // namespace cheriot::flow

#endif  // SRC_FLOW_FLOW_H_
