#include "perfbench/traced_fleet.h"

#include <algorithm>

#include "src/kernel/system.h"

namespace perfbench {

using namespace cheriot;

namespace {
// sim::FleetOptions defaults; the fleet workloads use no other link latency.
constexpr Cycles kBoardLinkLatency = 3'300;
}  // namespace

TracedFleet::TracedFleet(Spans* spans) : spans_(spans) {
  if (spans_ != nullptr) {
    n_construct_ = spans_->Name("sim.board.construct");
    n_boot_ = spans_->Name("sim.board.boot");
    n_step_ = spans_->Name("sim.board.step");
    n_next_ = spans_->Name("sim.board.next_event");
    n_drain_ = spans_->Name("sim.board.drain");
    n_inject_ = spans_->Name("sim.board.inject");
    n_transmit_ = spans_->Name("sim.fabric.transmit");
    n_on_frame_ = spans_->Name("net.gateway.on_frame");
  }
  gateway_port_ = fabric_.AttachPort(
      0, [this](Cycles due, sim::Fabric::Frame f, flow::FlowId flow) {
        gateway_inbox_.push_back({due, std::move(f), flow});
      });
  gateway_.set_emit([this](net::Bytes frame, flow::FlowId flow) {
    Scoped s(spans_, n_transmit_);
    fabric_.Transmit(gateway_port_, gateway_emit_at_, frame, flow);
  });
}

void TracedFleet::AddBoard(FirmwareImage image) {
  const int index = static_cast<int>(boards_.size());
  sim::BoardOptions opts;
  opts.index = index;
  opts.mac = sim::MacForIndex(index);
  {
    Scoped s(spans_, n_construct_);
    boards_.push_back(std::make_unique<sim::Board>(std::move(image), opts));
  }
  sim::Board* board = boards_.back().get();
  board->set_op_log_enabled(false);
  board_ports_.push_back(fabric_.AttachPort(
      kBoardLinkLatency,
      [this, board, index](Cycles due, sim::Fabric::Frame f, flow::FlowId flow) {
        {
          Scoped s(spans_, n_inject_);
          board->InjectAt(due, std::move(f), flow);
        }
        const auto i = static_cast<size_t>(index);
        if (i < next_interesting_.size() && due < next_interesting_[i]) {
          next_interesting_[i] = due;
        }
      }));
}

void TracedFleet::Boot() {
  epoch_ = fabric_.MinLinkLatency();
  for (auto& board : boards_) {
    Scoped s(spans_, n_boot_);
    board->Boot();
  }
  next_interesting_.assign(boards_.size(), 0);
  for (size_t i = 0; i < boards_.size(); ++i) {
    if (boards_[i]->has_staged_tx()) {
      tx_dirty_.push_back(i);
    }
  }
}

Cycles TracedFleet::NextEpochTarget(Cycles end) const {
  const Cycles conservative = std::min<Cycles>(now_ + epoch_, end);
  Cycles next = System::kForever;
  for (size_t i = 0; i < boards_.size(); ++i) {
    if (!boards_[i]->runnable()) {
      continue;
    }
    const Cycles n = next_interesting_[i];
    if (n <= now_) {
      return conservative;
    }
    next = std::min(next, n);
  }
  if (next == System::kForever) {
    return end;
  }
  return std::min(std::max(next, conservative), end);
}

void TracedFleet::StepBoard(size_t i, Cycles target) {
  {
    Scoped s(spans_, n_step_);
    boards_[i]->StepTo(target);
  }
  {
    Scoped s(spans_, n_next_);
    next_interesting_[i] = boards_[i]->NextInterestingCycle();
  }
  if (boards_[i]->has_staged_tx()) {
    tx_dirty_.push_back(i);
  }
}

void TracedFleet::RunEpoch(Cycles target) {
  for (size_t i = 0; i < boards_.size(); ++i) {
    if (!boards_[i]->runnable()) {
      continue;
    }
    if (next_interesting_[i] > target) {
      ++boards_skipped_;
      continue;
    }
    ++boards_stepped_;
    StepBoard(i, target);
  }
  now_ = target;
  ++barriers_;
  ExchangeFrames();
}

void TracedFleet::ExchangeFrames() {
  std::sort(tx_dirty_.begin(), tx_dirty_.end());
  for (size_t i : tx_dirty_) {
    std::vector<sim::Board::TxFrame> frames;
    {
      Scoped s(spans_, n_drain_);
      frames = boards_[i]->DrainTx();
    }
    for (auto& [at, frame, flow] : frames) {
      Scoped s(spans_, n_transmit_);
      fabric_.Transmit(board_ports_[i], at, frame, flow);
    }
  }
  tx_dirty_.clear();
  std::stable_sort(gateway_inbox_.begin(), gateway_inbox_.end(),
                   [](const GatewayRx& a, const GatewayRx& b) { return a.at < b.at; });
  std::vector<GatewayRx> inbox;
  inbox.swap(gateway_inbox_);
  for (auto& rx : inbox) {
    gateway_emit_at_ = rx.at;
    Scoped s(spans_, n_on_frame_);
    gateway_.OnFrame(rx.at, rx.frame, rx.flow);
  }
}

void TracedFleet::CatchUp() {
  for (size_t i = 0; i < boards_.size(); ++i) {
    if (boards_[i]->runnable() && boards_[i]->Now() < now_) {
      StepBoard(i, now_);
    }
  }
}

void TracedFleet::Run(Cycles cycles) {
  const Cycles end = now_ + cycles;
  while (now_ < end) {
    RunEpoch(NextEpochTarget(end));
  }
  CatchUp();
}

bool TracedFleet::RunUntil(const std::function<bool()>& pred, Cycles max_cycles) {
  const Cycles end = now_ + max_cycles;
  while (!pred()) {
    if (now_ >= end) {
      CatchUp();
      return false;
    }
    const bool any_runnable =
        std::any_of(boards_.begin(), boards_.end(),
                    [](const auto& b) { return b->runnable(); });
    if (!any_runnable) {
      CatchUp();
      return pred();
    }
    RunEpoch(NextEpochTarget(end));
  }
  CatchUp();
  return true;
}

void TracedFleet::PublishMqtt(const std::string& topic, const net::Bytes& payload) {
  gateway_emit_at_ = now_;
  gateway_.PublishMqtt(now_, topic, payload);
}

}  // namespace perfbench
