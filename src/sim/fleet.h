// Fleet: N Boards, one Gateway (ARP/DHCP/DNS/NTP/MQTT-broker services) and
// the Fabric connecting them, advanced in conservative-lookahead lockstep
// epochs on a host thread pool.
//
// Determinism contract: within an epoch, boards only execute — frames move
// exclusively at the barrier between epochs, in board-index order, with the
// gateway's inbox sorted by transmit time. Because the epoch length never
// exceeds the minimum link latency, a frame transmitted during epoch k is
// never due before epoch k ends, so exchanging at the barrier loses no
// timing precision: results are bit-identical for any host thread count.
// (A board's clock may overshoot an epoch boundary by the tail of its last
// guest operation; a frame due inside that overshoot is delivered when the
// board next advances — at worst one preemption granule late — and the
// overshoot itself is a deterministic function of the board's own history,
// so the ε does not vary across runs or thread counts.)
//
// Three optimisations ride on top of that contract without changing a single
// observable cycle (DESIGN.md §6.1):
//   - Adaptive epoch coarsening: when every runnable board is provably idle
//     past the conservative barrier, the epoch extends straight to the
//     fleet-wide next interesting cycle — idle boards cannot transmit, so no
//     frame can become due inside the extension.
//   - Board parking: a board whose cached next interesting cycle lies beyond
//     the epoch target is not stepped at all; its clock is caught up lazily
//     (idle advance only) before Run/RunUntil return.
//   - Sharded exchange: each worker keeps a dirty-list of boards that staged
//     frames; the barrier drains only those, merged in board-index order,
//     instead of scanning every board every epoch.
#ifndef SRC_SIM_FLEET_H_
#define SRC_SIM_FLEET_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/net/world.h"
#include "src/sim/board.h"
#include "src/sim/fabric.h"

namespace cheriot::sim {

struct FleetOptions {
  // Host worker threads stepping boards within an epoch. 1 = run inline on
  // the calling thread. The result is identical for any value.
  int host_threads = 1;
  // Epoch length in simulated cycles; 0 = the minimum board link latency
  // (the largest sound value). Must not exceed the minimum link latency —
  // validated at Fleet construction (against board_link_latency) and again
  // at Boot() (against the fabric's actual minimum).
  Cycles epoch = 0;
  // One-way latency of each board's link to the switch. Must be positive.
  Cycles board_link_latency = 3'300;
  // Gateway service configuration (DNS table, loss injection, ...).
  net::WorldOptions world;
  MachineConfig machine;
  // Every board's kernel options. `system.fast_forward` is the one switch
  // for the whole stack: the boards' idle fast-forward plus the fleet's
  // adaptive epochs and board parking. Purely a host-time optimisation:
  // fingerprints are bit-identical on or off (pinned by
  // tests/fleet_test.cpp and CI's tsan-fleet job). Escape hatch for
  // bisecting determinism regressions; the CHERIOT_FLEET_FAST_FORWARD
  // environment variable ("0" = off, anything else = on) overrides it at
  // Fleet construction so CI can force both modes without code changes.
  SystemOptions system;
  // Attach a flight recorder to every board (and a clockless one to the
  // fabric) before boot. Tracing never moves a guest cycle, so fingerprints
  // are unchanged whether this is on or off.
  bool trace = false;
  trace::TraceOptions trace_options;
  // Attach a crash-forensics recorder (src/health) to every board before
  // boot. Same zero-guest-cycle contract as trace.
  bool forensics = false;
  health::ForensicsOptions forensics_options;
  // Attach the flow recorder (src/flow): cross-board causal message tracing,
  // latency histograms and the fleet metrics time-series (DESIGN.md §13).
  // Flow ids are assigned whether this is on or off — only *recording* is
  // gated — so fingerprints AND snapshot bytes are identical either way.
  bool flow = false;
  flow::FlowOptions flow_options;
  // Attach an authority-coverage recorder (src/cov) to every board before
  // boot. Same zero-guest-cycle contract as trace/forensics; the merged
  // export iterates boards in index order, so it is byte-identical for any
  // host worker count.
  bool cov = false;
  cov::CovOptions cov_options;
};

class Fleet {
 public:
  explicit Fleet(FleetOptions options = {});
  ~Fleet();

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  // Adds a board running `image`; returns its index. The board's MAC is
  // MacForIndex(index). Call before Boot().
  int AddBoard(FirmwareImage image);

  // Boots every board (deterministic, single-threaded).
  void Boot();

  // Advances all boards by `cycles` in lockstep epochs. Every board's clock
  // has reached now_ + cycles (modulo the per-board overshoot ε) on return.
  void Run(Cycles cycles);
  // Epoch-stepping until pred() holds (checked at each barrier) or
  // `max_cycles` elapse. Returns pred()'s final value. With fast-forward on,
  // barriers land at different cycles than with it off, so the fleet time at
  // which pred first holds may differ between the two modes; the state pred
  // observes at any given barrier does not.
  bool RunUntil(const std::function<bool()>& pred, Cycles max_cycles);

  // Gateway control surface, applied at the fleet's current time.
  void PublishMqtt(const std::string& topic, const net::Bytes& payload);
  void SendPing(net::Ipv4 dst, uint16_t id, uint16_t seq);

  Cycles Now() const { return now_; }
  size_t size() const { return boards_.size(); }
  Board& board(size_t i) { return *boards_[i]; }
  net::Gateway& gateway() { return gateway_; }
  Fabric& fabric() { return fabric_; }
  Cycles epoch_length() const { return epoch_; }
  bool fast_forward() const { return options_.system.fast_forward; }
  uint64_t frames_exchanged() const { return frames_exchanged_; }

  // --- Epoch statistics (honesty counters for benches and tests) -----------
  // Barriers crossed so far; with adaptive coarsening this is the real
  // synchronisation count, not elapsed_cycles / epoch_length.
  uint64_t barriers() const { return barriers_; }
  // Board-steps actually executed vs. parked (skipped because the board's
  // next interesting cycle lay beyond the epoch target).
  uint64_t boards_stepped() const { return boards_stepped_; }
  uint64_t boards_skipped() const { return boards_skipped_; }
  // Distinct communication groups observed by the fabric (union-find over
  // actual deliveries; see Fabric::GroupOf).
  size_t communication_groups() const { return fabric_.group_count(); }
  // Host wall-clock seconds spent so far stepping boards (StepBoards,
  // including the worker handoff) and in the serial barrier exchange
  // (ExchangeFrames: TX drain, fabric fan-out, gateway). Host-side only:
  // never serialized, never read by the simulation.
  double host_step_seconds() const { return host_step_seconds_; }
  double host_exchange_seconds() const { return host_exchange_seconds_; }

  // The fabric's recorder (frames only, stamped with TX cycles); null unless
  // FleetOptions::trace is set.
  trace::TraceRecorder* fabric_trace() { return fabric_trace_.get(); }
  // The flow recorder; null unless FleetOptions::flow is set. Fed exclusively
  // at epoch barriers in board-index order, so its exports are byte-identical
  // for any host worker count.
  flow::FlowRecorder* flow_recorder() { return flow_.get(); }
  // All live recorders — one per board plus the fabric's — in a fixed order
  // (board 0..N-1, then fabric) for merged export. Empty when tracing is off.
  std::vector<trace::TraceRecorder*> TraceRecorders();
  // Per-board coverage recorders in board-index order; empty when coverage
  // is off. The order is the merged export's determinism argument.
  std::vector<const cov::CovRecorder*> CovRecorders();

  std::vector<Board::Fingerprint> Fingerprints();

  // --- Snapshot/restore (DESIGN.md §10) ------------------------------------
  //
  // Serializes the whole fleet: the effective options (EXCLUDING
  // host_threads — a pure host-performance knob, so snapshots taken at 1, 2
  // and 4 workers of the same state are byte-identical), the fabric's
  // learned state, every board's state sections as an embedded container,
  // and the fleet control-op log (coalesced Run advances plus gateway
  // control calls). Call between Run/RunUntil calls — the fleet is then at
  // an epoch barrier by construction.
  void Snapshot(std::vector<uint8_t>& out);

  // Firmware images are host-side artifacts (native closures) and cannot
  // cross a snapshot; the resolver supplies board i's image — the same one
  // the snapshot's fleet used. Restore rebuilds the fleet by replaying the
  // control-op log (bit-identical for any host_threads, which is why the
  // worker count is a free parameter here), then re-serializes everything
  // and byte-compares against the snapshot; a mismatch throws
  // snap::SnapshotError.
  // Like host_threads, `flow` is a host-observability knob: flow ids are
  // assigned unconditionally, so snapshots never record whether a recorder
  // was attached and any snapshot can be restored with recording on. The
  // replay then rebuilds the flow table / histograms / metrics exactly —
  // including spans that were in flight when the snapshot was taken.
  using ImageResolver = std::function<FirmwareImage(int board_index)>;
  static std::unique_ptr<Fleet> Restore(const uint8_t* data, size_t size,
                                        const ImageResolver& images,
                                        int host_threads = 1,
                                        bool flow = false,
                                        flow::FlowOptions flow_options = {});
  static std::unique_ptr<Fleet> Restore(const std::vector<uint8_t>& blob,
                                        const ImageResolver& images,
                                        int host_threads = 1, bool flow = false,
                                        flow::FlowOptions flow_options = {}) {
    return Restore(blob.data(), blob.size(), images, host_threads, flow,
                   flow_options);
  }

 private:
  // One entry in the whole-fleet control log. Everything a fleet does is a
  // deterministic function of its boot configuration plus this sequence, so
  // mid-run restore replays it instead of trying to byte-restore live host
  // fiber stacks.
  struct FleetOp {
    enum class Kind : uint8_t { kAdvance = 0, kMqtt = 1, kPing = 2 };
    Kind kind = Kind::kAdvance;
    Cycles to = 0;        // kAdvance: absolute fleet clock reached
    std::string topic;    // kMqtt
    net::Bytes payload;   // kMqtt
    net::Ipv4 dst = 0;    // kPing
    uint16_t id = 0;      // kPing
    uint16_t seq = 0;     // kPing
  };

  void RunEpoch(Cycles target);
  // Picks the next barrier: the conservative bound min(now + epoch, end),
  // extended to the fleet-wide minimum next interesting cycle when every
  // runnable board is provably idle past `now`.
  Cycles NextEpochTarget(Cycles end) const;
  // Fills step_list_ with the runnable boards whose cached next interesting
  // cycle is not beyond `target`; counts the rest as parked.
  void BuildStepList(Cycles target);
  void StepBoards(Cycles target);
  // Steps parked boards (idle advance only, by construction) up to now_ so
  // fingerprints and clocks match a non-fast-forward run bit for bit.
  void CatchUp();
  void ExchangeFrames();
  // Drains every board's staged flow observations (deliveries / NIC drops)
  // into the flow recorder, in board-index order. No-op when flow is off.
  void DrainFlowObservations();
  // Appends one metrics row per board when the fleet clock has crossed a
  // metrics_interval boundary since the last sample. No-op when flow is off.
  void SampleMetrics();
  void GatewayEmit(net::Bytes frame, flow::FlowId flow);
  void StartWorkers();
  void WorkerLoop(size_t worker_id);
  // Appends a coalesced kAdvance{now_} when the clock moved since the last
  // logged op; called before every control op and before Snapshot() so the
  // log always ends at the snapshot's barrier.
  void LogAdvance();
  void BuildSnapshotContainer(snap::Container& c);

  FleetOptions options_;
  Cycles epoch_ = 0;
  Cycles now_ = 0;
  std::vector<std::unique_ptr<Board>> boards_;
  std::vector<int> board_ports_;
  Fabric fabric_;
  std::unique_ptr<trace::TraceRecorder> fabric_trace_;
  net::Gateway gateway_;
  int gateway_port_ = -1;
  // Frames addressed to the gateway, collected during the barrier exchange
  // and processed in transmit-time order (with their provenance alongside).
  struct GatewayRx {
    Cycles at = 0;
    SharedFrame frame;
    flow::FlowId flow;
  };
  std::vector<GatewayRx> gateway_inbox_;
  Cycles gateway_emit_at_ = 0;  // TX timestamp for gateway replies
  std::unique_ptr<flow::FlowRecorder> flow_;
  Cycles flow_next_sample_ = 0;  // next metrics_interval boundary to sample
  uint64_t frames_exchanged_ = 0;
  bool booted_ = false;

  // Cached Board::NextInterestingCycle per board, refreshed after each step
  // and clamped down when the fabric injects a frame. Only read/written at
  // barriers or for boards owned by exactly one worker during an epoch.
  std::vector<Cycles> next_interesting_;
  // Boards to step this epoch (indices), rebuilt at each barrier.
  std::vector<size_t> step_list_;
  // Per-worker dirty lists: boards that staged TX frames during the epoch.
  // Slot 0 doubles as the inline (host_threads == 1) path's list. Merged and
  // sorted into tx_dirty_ at the barrier so the drain order is board-index
  // order regardless of which worker stepped what.
  std::vector<std::vector<size_t>> worker_dirty_;
  std::vector<size_t> tx_dirty_;
  uint64_t barriers_ = 0;
  uint64_t boards_stepped_ = 0;
  uint64_t boards_skipped_ = 0;
  double host_step_seconds_ = 0;
  double host_exchange_seconds_ = 0;

  // Whole-fleet control log (see FleetOp). Per-board replay logs are
  // disabled in AddBoard(); this is the single source of replay truth.
  std::vector<FleetOp> fleet_log_;
  Cycles logged_now_ = 0;

  // Persistent worker pool (started lazily when host_threads > 1).
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  uint64_t generation_ = 0;
  int workers_running_ = 0;
  Cycles step_target_ = 0;
  std::atomic<size_t> next_step_{0};
  bool shutdown_ = false;
  std::exception_ptr worker_error_;
};

}  // namespace cheriot::sim

#endif  // SRC_SIM_FLEET_H_
