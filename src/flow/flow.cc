#include "src/flow/flow.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

namespace cheriot::flow {

std::string FlowId::Label() const {
  if (origin == kNone) return "none";
  char buf[32];
  if (origin == kGateway) {
    std::snprintf(buf, sizeof buf, "gw#%u", seq);
  } else {
    std::snprintf(buf, sizeof buf, "b%d#%u", origin, seq);
  }
  return buf;
}

// --- LatencyHistogram --------------------------------------------------------

size_t LatencyHistogram::BucketOf(uint64_t value) {
  if (value < 16) return static_cast<size_t>(value);
  const int octave = std::bit_width(value) - 1;  // >= 4
  const size_t sub = static_cast<size_t>((value >> (octave - 2)) & 3);
  const size_t bucket = 16 + static_cast<size_t>(octave - 4) * 4 + sub;
  return std::min(bucket, kBuckets - 1);
}

uint64_t LatencyHistogram::BucketUpper(size_t b) {
  if (b < 16) return b;
  const int octave = 4 + static_cast<int>((b - 16) / 4);
  const uint64_t sub = (b - 16) % 4;
  return (1ull << octave) + (sub + 1) * (1ull << (octave - 2)) - 1;
}

void LatencyHistogram::Add(uint64_t value) {
  ++counts_[BucketOf(value)];
  ++count_;
  sum_ += value;
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

uint64_t LatencyHistogram::Quantile(double q) const {
  if (count_ == 0) return 0;
  if (q >= 1.0) return max_;
  if (q < 0.0) q = 0.0;
  // Rank of the target sample, 1-based: ceil(q * count), at least 1.
  uint64_t rank = static_cast<uint64_t>(std::ceil(q * static_cast<double>(count_)));
  if (rank == 0) rank = 1;
  uint64_t seen = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    seen += counts_[b];
    if (seen >= rank) {
      // Tighten with the exact extremes we track.
      return std::min(std::max(BucketUpper(b), min_), max_);
    }
  }
  return max_;
}

json::Value LatencyHistogram::ToJson() const {
  json::Object o;
  o["count"] = json::Value(count_);
  o["min"] = json::Value(min());
  o["max"] = json::Value(max_);
  o["sum"] = json::Value(sum_);
  o["p50"] = json::Value(Quantile(0.50));
  o["p90"] = json::Value(Quantile(0.90));
  o["p99"] = json::Value(Quantile(0.99));
  json::Array buckets;
  for (size_t b = 0; b < kBuckets; ++b) {
    if (counts_[b] == 0) continue;
    json::Array pair;
    pair.push_back(json::Value(BucketUpper(b)));
    pair.push_back(json::Value(counts_[b]));
    buckets.push_back(json::Value(std::move(pair)));
  }
  o["buckets"] = json::Value(std::move(buckets));
  return json::Value(std::move(o));
}

// --- MetricsSeries -----------------------------------------------------------

void MetricsSeries::Append(const Row& row) {
  at_.push_back(row.at);
  board_.push_back(row.board);
  board_now_.push_back(row.board_now);
  idle_cycles_.push_back(row.idle_cycles);
  traps_.push_back(row.traps);
  allocs_.push_back(row.allocs);
  quota_denials_.push_back(row.quota_denials);
  nic_tx_.push_back(row.nic_tx);
  nic_rx_.push_back(row.nic_rx);
  nic_drops_.push_back(row.nic_drops);
  futex_waits_.push_back(row.futex_waits);
}

json::Value MetricsSeries::ToJson() const {
  auto col_u64 = [](const std::vector<uint64_t>& v) {
    json::Array a;
    a.reserve(v.size());
    for (uint64_t x : v) a.push_back(json::Value(x));
    return json::Value(std::move(a));
  };
  json::Object cols;
  cols["cycle"] = col_u64(at_);
  {
    json::Array a;
    a.reserve(board_.size());
    for (int64_t x : board_) a.push_back(json::Value(x));
    cols["board"] = json::Value(std::move(a));
  }
  cols["board_cycle"] = col_u64(board_now_);
  {
    json::Array a;
    a.reserve(board_now_.size());
    for (size_t i = 0; i < board_now_.size(); ++i) {
      a.push_back(json::Value(board_now_[i] - idle_cycles_[i]));
    }
    cols["busy_cycles"] = json::Value(std::move(a));
  }
  cols["idle_cycles"] = col_u64(idle_cycles_);
  cols["traps"] = col_u64(traps_);
  cols["allocs"] = col_u64(allocs_);
  cols["quota_denials"] = col_u64(quota_denials_);
  cols["nic_tx_frames"] = col_u64(nic_tx_);
  cols["nic_rx_frames"] = col_u64(nic_rx_);
  cols["nic_drops"] = col_u64(nic_drops_);
  cols["futex_waits"] = col_u64(futex_waits_);
  json::Object o;
  o["schema_version"] = json::Value(static_cast<int64_t>(kSchemaVersion));
  o["rows"] = json::Value(static_cast<uint64_t>(rows()));
  o["columns"] = json::Value(std::move(cols));
  return json::Value(std::move(o));
}

// --- FlowRecorder ------------------------------------------------------------

FlowRecorder::FlowRecorder(FlowOptions options) : options_(options) {}

FlowRecorder::FlowInfo& FlowRecorder::Ensure(FlowId id) {
  FlowInfo& info = flows_[id.key()];
  info.id = id;
  return info;
}

void FlowRecorder::OnTx(FlowId id, Cycles at, size_t bytes) {
  if (!id.valid()) return;
  FlowInfo& info = Ensure(id);
  info.has_tx = true;
  info.tx_at = at;
  info.bytes = static_cast<uint32_t>(bytes);
}

void FlowRecorder::OnHop(FlowId id, int src_port, int dst_port, Cycles tx_at,
                         Cycles due, size_t bytes) {
  if (!id.valid()) return;
  FlowInfo& info = Ensure(id);
  if (!info.has_tx) {
    info.has_tx = true;
    info.tx_at = tx_at;
    info.bytes = static_cast<uint32_t>(bytes);
  }
  info.hops.push_back(Hop{src_port, dst_port, tx_at, due});
}

void FlowRecorder::OnDelivery(FlowId id, int board, Cycles at) {
  if (!id.valid()) return;
  FlowInfo& info = Ensure(id);
  info.deliveries.push_back(Delivery{board, at});
  ++deliveries_;
  if (info.has_tx && at >= info.tx_at) {
    pair_latency_[{info.id.origin, board}].Add(at - info.tx_at);
  }
  if (info.publish_index >= 0 &&
      info.publish_index < static_cast<int32_t>(publishes_.size())) {
    const Publish& pub = publishes_[info.publish_index];
    // End-to-end: from the publisher's NIC transmit when the carrier frame is
    // known, else from broker receipt (control-surface publishes).
    Cycles start = pub.at;
    if (pub.carrier != kNoKey) {
      auto it = flows_.find(pub.carrier);
      if (it != flows_.end() && it->second.has_tx) start = it->second.tx_at;
    }
    if (at >= start) topic_latency_[pub.topic].Add(at - start);
  }
}

void FlowRecorder::OnDrop(FlowId id, uint8_t reason, Cycles at) {
  if (!id.valid()) return;
  Ensure(id).drops.push_back(Drop{reason, at});
  ++drops_;
}

void FlowRecorder::OnGatewayRx(FlowId id, Cycles at) {
  if (!id.valid()) return;
  FlowInfo& info = Ensure(id);
  info.gateway_rx = true;
  info.gateway_rx_at = at;
}

void FlowRecorder::OnGatewayEmit(FlowId child, FlowId parent, Cycles at,
                                 size_t bytes) {
  if (!child.valid()) return;
  FlowInfo& info = Ensure(child);
  info.has_tx = true;
  info.tx_at = at;
  info.bytes = static_cast<uint32_t>(bytes);
  if (parent.valid()) info.parent = parent.key();
  if (open_publish_ >= 0) {
    info.publish_index = open_publish_;
    publishes_[open_publish_].fanout.push_back(child.key());
  }
}

void FlowRecorder::BeginPublish(const std::string& topic, FlowId carrier,
                                Cycles at) {
  Publish pub;
  pub.topic = topic;
  pub.publisher = carrier.valid() ? carrier.origin : FlowId::kGateway;
  pub.carrier = carrier.valid() ? carrier.key() : kNoKey;
  pub.at = at;
  open_publish_ = static_cast<int32_t>(publishes_.size());
  publishes_.push_back(std::move(pub));
}

void FlowRecorder::EndPublish() { open_publish_ = -1; }

FlowTable FlowRecorder::FlowTableJson() const { return FlowTable(*this); }

std::string FlowTable::Dump(int indent) const {
  const std::map<uint64_t, FlowRecorder::FlowInfo>& flows = recorder_->flows();
  // The label of the flow keyed `key`, or the bare key if it is unknown.
  auto label = [&flows](uint64_t key) {
    auto it = flows.find(key);
    return it != flows.end() ? it->second.id.Label() : std::to_string(key);
  };
  // Keys are written in std::map order, as Dump writes a json::Object's. A
  // fleet-node flow takes ~250 bytes compact and ~450 at indent 2; reserving
  // above that keeps the string from reallocating.
  std::string out;
  out.reserve(flows.size() * (indent < 0 ? 320 : 640));
  json::Writer w(&out, indent);
  w.BeginObject();
  w.Key("deliveries");
  w.Uint(recorder_->deliveries());
  w.Key("drops");
  w.Uint(recorder_->drops());
  w.Key("flow_count");
  w.Uint(flows.size());
  w.Key("flows");
  w.BeginArray();
  for (const auto& [key, info] : flows) {
    w.BeginObject();
    w.Key("bytes");
    w.Uint(info.bytes);
    if (!info.deliveries.empty()) {
      w.Key("deliveries");
      w.BeginArray();
      for (const FlowRecorder::Delivery& d : info.deliveries) {
        w.BeginObject();
        w.Key("at");
        w.Uint(d.at);
        w.Key("board");
        w.Int(d.board);
        if (info.has_tx && d.at >= info.tx_at) {
          w.Key("latency");
          w.Uint(d.at - info.tx_at);
        }
        w.EndObject();
      }
      w.EndArray();
    }
    if (!info.drops.empty()) {
      w.Key("drops");
      w.BeginArray();
      for (const FlowRecorder::Drop& d : info.drops) {
        w.BeginObject();
        w.Key("at");
        w.Uint(d.at);
        w.Key("reason");
        w.String(d.reason == kDropNicLoss ? "nic_loss" : "gateway_tcp");
        w.EndObject();
      }
      w.EndArray();
    }
    if (info.gateway_rx) {
      w.Key("gateway_rx_at");
      w.Uint(info.gateway_rx_at);
    }
    if (!info.hops.empty()) {
      w.Key("hops");
      w.BeginArray();
      for (const FlowRecorder::Hop& h : info.hops) {
        w.BeginObject();
        w.Key("dst_port");
        w.Int(h.dst_port);
        w.Key("due");
        w.Uint(h.due);
        w.Key("src_port");
        w.Int(h.src_port);
        w.Key("tx_at");
        w.Uint(h.tx_at);
        w.EndObject();
      }
      w.EndArray();
    }
    w.Key("id");
    w.String(info.id.Label());
    w.Key("origin");
    w.Int(info.id.origin);
    if (info.parent != FlowRecorder::kNoKey) {
      w.Key("parent");
      w.String(label(info.parent));
    }
    if (info.publish_index >= 0) {
      w.Key("publish");
      w.Int(info.publish_index);
    }
    w.Key("seq");
    w.Uint(info.id.seq);
    if (info.has_tx) {
      w.Key("tx_at");
      w.Uint(info.tx_at);
    }
    w.EndObject();
  }
  w.EndArray();
  w.Key("publishes");
  w.BeginArray();
  for (const FlowRecorder::Publish& pub : recorder_->publishes()) {
    w.BeginObject();
    w.Key("at");
    w.Uint(pub.at);
    if (pub.carrier != FlowRecorder::kNoKey) {
      auto it = flows.find(pub.carrier);
      if (it != flows.end()) {
        w.Key("carrier");
        w.String(it->second.id.Label());
      }
    }
    w.Key("fanout");
    w.BeginArray();
    for (uint64_t key : pub.fanout) {
      w.String(label(key));
    }
    w.EndArray();
    w.Key("publisher");
    w.Int(pub.publisher);
    w.Key("topic");
    w.String(pub.topic);
    w.EndObject();
  }
  w.EndArray();
  w.Key("schema_version");
  w.Int(FlowRecorder::kSchemaVersion);
  w.EndObject();
  return out;
}

namespace {

// "gw" for the gateway, else "b<board>".
std::string EndpointLabel(int endpoint) {
  if (endpoint == FlowId::kGateway) {
    return "gw";
  }
  std::string label = "b";
  label += std::to_string(endpoint);
  return label;
}

}  // namespace

json::Value FlowRecorder::HistogramsJson() const {
  json::Object topics;
  for (const auto& [topic, hist] : topic_latency_) {
    topics[topic] = hist.ToJson();
  }
  json::Object pairs;
  for (const auto& [pair, hist] : pair_latency_) {
    std::string key = EndpointLabel(pair.first);
    key += "->";
    key += EndpointLabel(pair.second);
    pairs[key] = hist.ToJson();
  }
  json::Object o;
  o["schema_version"] = json::Value(static_cast<int64_t>(kSchemaVersion));
  o["topic_latency"] = json::Value(std::move(topics));
  o["pair_latency"] = json::Value(std::move(pairs));
  return json::Value(std::move(o));
}

json::Value FlowRecorder::MetricsJson() const { return metrics_.ToJson(); }

}  // namespace cheriot::flow
