// The traced run's fleet stepping loop. sim::Fleet keeps its stepping private, so
// this class re-implements Fleet's single-worker schedule (src/sim/fleet.cc:
// conservative epochs, adaptive coarsening, board parking, sharded exchange
// and the final catch-up) on the public Board, Fabric and Gateway calls, and
// wraps each call in a span. It must reach the same board fingerprints, and
// the same barrier and board-step counts, as sim::Fleet on the same inputs;
// the fleet workloads check both.
#ifndef PERFBENCH_TRACED_FLEET_H_
#define PERFBENCH_TRACED_FLEET_H_

#include <functional>
#include <memory>
#include <vector>

#include "perfbench/common.h"
#include "src/net/world.h"
#include "src/sim/board.h"
#include "src/sim/fabric.h"

namespace perfbench {

class TracedFleet {
 public:
  // A null `spans` runs the same loop without recording.
  explicit TracedFleet(Spans* spans);

  TracedFleet(const TracedFleet&) = delete;
  TracedFleet& operator=(const TracedFleet&) = delete;

  void AddBoard(cheriot::FirmwareImage image);
  void Boot();
  void Run(cheriot::Cycles cycles);
  bool RunUntil(const std::function<bool()>& pred, cheriot::Cycles max_cycles);
  void PublishMqtt(const std::string& topic, const cheriot::net::Bytes& payload);

  size_t size() const { return boards_.size(); }
  cheriot::sim::Board& board(size_t i) { return *boards_[i]; }
  cheriot::net::Gateway& gateway() { return gateway_; }
  cheriot::sim::Fabric& fabric() { return fabric_; }
  uint64_t barriers() const { return barriers_; }
  uint64_t boards_stepped() const { return boards_stepped_; }
  uint64_t boards_skipped() const { return boards_skipped_; }

 private:
  struct GatewayRx {
    cheriot::Cycles at = 0;
    cheriot::net::Bytes frame;
    cheriot::flow::FlowId flow;
  };

  cheriot::Cycles NextEpochTarget(cheriot::Cycles end) const;
  void RunEpoch(cheriot::Cycles target);
  void StepBoard(size_t i, cheriot::Cycles target);
  void ExchangeFrames();
  void CatchUp();

  Spans* spans_;
  uint32_t n_construct_ = 0, n_boot_ = 0, n_step_ = 0, n_next_ = 0, n_drain_ = 0,
           n_inject_ = 0, n_transmit_ = 0, n_on_frame_ = 0;
  cheriot::Cycles epoch_ = 0;
  cheriot::Cycles now_ = 0;
  std::vector<std::unique_ptr<cheriot::sim::Board>> boards_;
  std::vector<int> board_ports_;
  cheriot::sim::Fabric fabric_;
  cheriot::net::Gateway gateway_;
  int gateway_port_ = -1;
  std::vector<GatewayRx> gateway_inbox_;
  cheriot::Cycles gateway_emit_at_ = 0;
  std::vector<cheriot::Cycles> next_interesting_;
  std::vector<size_t> tx_dirty_;
  uint64_t barriers_ = 0;
  uint64_t boards_stepped_ = 0;
  uint64_t boards_skipped_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_FLEET_H_
