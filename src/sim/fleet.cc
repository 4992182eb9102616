#include "src/sim/fleet.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>

#include "src/base/check.h"
#include "src/base/log.h"
#include "src/snap/wire.h"

namespace cheriot::sim {

namespace {

// Validates options before any member that depends on them is constructed
// (the fabric and gateway are built in the member-initialiser list), so a
// bad epoch dies with a clear message instead of a misconfigured fleet.
FleetOptions ValidatedOptions(FleetOptions o) {
  CHERIOT_CHECK(o.board_link_latency > 0,
                "FleetOptions::board_link_latency must be positive");
  CHERIOT_CHECK(o.epoch <= o.board_link_latency,
                "FleetOptions::epoch must not exceed the board link latency "
                "(the conservative-lookahead bound)");
  if (const char* env = std::getenv("CHERIOT_FLEET_FAST_FORWARD")) {
    o.system.fast_forward = !(env[0] == '0' && env[1] == '\0');
  }
  return o;
}

}  // namespace

Fleet::Fleet(FleetOptions options)
    : options_(ValidatedOptions(std::move(options))),
      gateway_(options_.world) {
  // The gateway sits inside the switch: port latency 0, so a frame
  // transmitted by a board at t is processed by the gateway "at t" and the
  // reply crosses only the destination board's link — reproducing the
  // single-board NetWorld round-trip of exactly one link latency.
  gateway_port_ = fabric_.AttachPort(
      0, [this](Cycles due, const SharedFrame& f, flow::FlowId flow) {
        gateway_inbox_.push_back({due, f, flow});
      });
  gateway_.set_emit([this](net::Bytes frame, flow::FlowId flow) {
    GatewayEmit(std::move(frame), flow);
  });
  if (options_.trace) {
    fabric_trace_ = std::make_unique<trace::TraceRecorder>(options_.trace_options);
    fabric_trace_->SetOwner("fabric", -1);
    fabric_.set_trace(fabric_trace_.get());
    // Gateway-side TCP fault drops become clockless kFrameDrop events on the
    // fabric track (the gateway has no recorder of its own).
    gateway_.set_drop_trace(
        [this](Cycles at, size_t bytes, flow::FlowId flow) {
          fabric_trace_->OnFrameDropAt(at, flow::kDropGatewayTcp, bytes,
                                       flow.origin, flow.seq);
        });
  }
  if (options_.flow) {
    flow_ = std::make_unique<flow::FlowRecorder>(options_.flow_options);
    fabric_.set_flow(flow_.get());
    gateway_.set_flow(flow_.get());
    flow_next_sample_ = options_.flow_options.metrics_interval;
  }
}

Fleet::~Fleet() {
  if (!workers_.empty()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = true;
    }
    work_cv_.notify_all();
    for (auto& w : workers_) {
      w.join();
    }
  }
}

int Fleet::AddBoard(FirmwareImage image) {
  CHERIOT_CHECK(!booted_, "AddBoard() after Boot()");
  const int index = static_cast<int>(boards_.size());
  BoardOptions opts;
  opts.index = index;
  opts.mac = MacForIndex(index);
  opts.machine = options_.machine;
  opts.system = options_.system;
  boards_.push_back(std::make_unique<Board>(std::move(image), opts));
  Board* board = boards_.back().get();
  // The fleet keeps one whole-fleet control log (Snapshot()); per-board
  // replay logs would duplicate it and grow without bound.
  board->set_op_log_enabled(false);
  if (options_.trace) {
    board->EnableTrace(options_.trace_options);
  }
  if (options_.forensics) {
    board->EnableForensics(options_.forensics_options);
  }
  if (options_.cov) {
    board->EnableCoverage(options_.cov_options);
  }
  if (options_.flow) {
    board->EnableFlowStaging();
  }
  board_ports_.push_back(fabric_.AttachPort(
      options_.board_link_latency,
      [this, board, index](Cycles due, const SharedFrame& f,
                           flow::FlowId flow) {
        board->InjectAt(due, f, flow);
        // A newly injected frame is an interesting event: clamp the cached
        // bound so a parked board (or one parked this barrier) is woken for
        // the epoch containing the delivery. Guarded because the fabric can
        // in principle deliver before Boot() sizes the cache.
        if (static_cast<size_t>(index) < next_interesting_.size() &&
            due < next_interesting_[static_cast<size_t>(index)]) {
          next_interesting_[static_cast<size_t>(index)] = due;
        }
      }));
  return index;
}

void Fleet::Boot() {
  CHERIOT_CHECK(!boards_.empty(), "Fleet::Boot() with no boards");
  epoch_ = options_.epoch != 0 ? options_.epoch : fabric_.MinLinkLatency();
  CHERIOT_CHECK(epoch_ > 0 && epoch_ <= fabric_.MinLinkLatency(),
                "epoch length must be in (0, min link latency]");
  for (auto& board : boards_) {
    board->Boot();
  }
  // Zero-initialised next-event cache: every board looks busy, so the first
  // epoch is conservative and steps everyone, refreshing the cache with real
  // bounds.
  next_interesting_.assign(boards_.size(), 0);
  worker_dirty_.resize(std::max<size_t>(
      1, std::min<size_t>(static_cast<size_t>(std::max(options_.host_threads, 1)),
                          boards_.size())));
  // Should firmware ever stage frames during boot, drain them at the first
  // barrier rather than losing them to the dirty-list optimisation.
  for (size_t i = 0; i < boards_.size(); ++i) {
    if (boards_[i]->has_staged_tx()) {
      tx_dirty_.push_back(i);
    }
  }
  booted_ = true;
}

void Fleet::GatewayEmit(net::Bytes frame, flow::FlowId flow) {
  fabric_.Transmit(gateway_port_, gateway_emit_at_, std::move(frame), flow);
}

Cycles Fleet::NextEpochTarget(Cycles end) const {
  const Cycles conservative = std::min<Cycles>(now_ + epoch_, end);
  if (!options_.system.fast_forward) {
    return conservative;
  }
  // Coarsening is sound only when EVERY runnable board is provably idle past
  // now_: an idle board cannot execute, so it cannot transmit, so no frame
  // can become due inside the extended epoch. One busy board (its next
  // interesting cycle is its own clock, <= now_ modulo overshoot) forces the
  // conservative bound — it could transmit at any cycle.
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
    // Nothing will ever happen again (all exited/blocked, no timers, no
    // frames in flight): jump the fleet clock straight to the horizon.
    return end;
  }
  // Never shorter than the conservative epoch (coarsening only), never past
  // the horizon. Landing exactly ON the next event is correct: the barrier's
  // Run budget ends there, so the waking board executes in the following
  // epoch, which is conservative because that board is then busy.
  return std::min(std::max(next, conservative), end);
}

void Fleet::BuildStepList(Cycles target) {
  step_list_.clear();
  for (size_t i = 0; i < boards_.size(); ++i) {
    if (!boards_[i]->runnable()) {
      continue;
    }
    // Parking: a board whose next interesting cycle lies beyond the target
    // cannot execute a single instruction before the barrier — stepping it
    // would only idle its clock forward, which CatchUp() does lazily in one
    // jump at the end of the run. (A busy board's bound is its own clock; if
    // that already passed the target, StepTo would be a no-op anyway.)
    if (options_.system.fast_forward && next_interesting_[i] > target) {
      ++boards_skipped_;
      continue;
    }
    step_list_.push_back(i);
  }
  boards_stepped_ += step_list_.size();
}

void Fleet::StartWorkers() {
  const size_t n = std::min<size_t>(
      static_cast<size_t>(options_.host_threads), boards_.size());
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
  if (worker_dirty_.size() < workers_.size()) {
    worker_dirty_.resize(workers_.size());
  }
}

void Fleet::WorkerLoop(size_t worker_id) {
  uint64_t seen = 0;
  for (;;) {
    Cycles target;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return shutdown_ || generation_ != seen; });
      if (shutdown_) {
        return;
      }
      seen = generation_;
      target = step_target_;
    }
    try {
      for (;;) {
        const size_t k = next_step_.fetch_add(1);
        if (k >= step_list_.size()) {
          break;
        }
        const size_t i = step_list_[k];
        boards_[i]->StepTo(target);
        next_interesting_[i] = boards_[i]->NextInterestingCycle();
        if (boards_[i]->has_staged_tx()) {
          worker_dirty_[worker_id].push_back(i);
        }
      }
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!worker_error_) {
        worker_error_ = std::current_exception();
      }
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--workers_running_ == 0) {
        done_cv_.notify_all();
      }
    }
  }
}

void Fleet::StepBoards(Cycles target) {
  if (options_.host_threads <= 1 || boards_.size() <= 1) {
    for (size_t i : step_list_) {
      boards_[i]->StepTo(target);
      next_interesting_[i] = boards_[i]->NextInterestingCycle();
      if (boards_[i]->has_staged_tx()) {
        worker_dirty_[0].push_back(i);
      }
    }
    return;
  }
  if (workers_.empty()) {
    StartWorkers();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    next_step_.store(0);
    step_target_ = target;
    workers_running_ = static_cast<int>(workers_.size());
    ++generation_;
  }
  work_cv_.notify_all();
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return workers_running_ == 0; });
    if (worker_error_) {
      std::exception_ptr e = worker_error_;
      worker_error_ = nullptr;
      std::rethrow_exception(e);
    }
  }
}

void Fleet::ExchangeFrames() {
  // Sharded exchange: only boards that actually staged frames are drained.
  // Workers claim boards in nondeterministic order, so the merged dirty list
  // is sorted to restore the contract's board-index drain order. A board can
  // appear at most once per epoch (one worker steps it once); the sort is
  // over a handful of indices, not all N boards.
  for (auto& dirty : worker_dirty_) {
    tx_dirty_.insert(tx_dirty_.end(), dirty.begin(), dirty.end());
    dirty.clear();
  }
  std::sort(tx_dirty_.begin(), tx_dirty_.end());
  // Observations from this epoch (deliveries/drops of frames transmitted at
  // earlier barriers) are fed to the flow recorder before this barrier's new
  // transmits, keeping the hook sequence in causal order.
  DrainFlowObservations();
  for (size_t i : tx_dirty_) {
    for (auto& [at, frame, flow] : boards_[i]->DrainTx()) {
      ++frames_exchanged_;
      if (flow_) {
        flow_->OnTx(flow, at, frame.size());
      }
      fabric_.Transmit(board_ports_[i], at, std::move(frame), flow);
    }
  }
  tx_dirty_.clear();
  std::stable_sort(gateway_inbox_.begin(), gateway_inbox_.end(),
                   [](const GatewayRx& a, const GatewayRx& b) {
                     return a.at < b.at;
                   });
  // The gateway may emit new board-bound frames while processing (replies,
  // forwards); those go straight to board ports. It never sends to itself.
  std::vector<GatewayRx> inbox;
  inbox.swap(gateway_inbox_);
  for (auto& rx : inbox) {
    gateway_emit_at_ = rx.at;
    gateway_.OnFrame(rx.at, rx.frame, rx.flow);
  }
}

void Fleet::DrainFlowObservations() {
  if (!flow_) {
    return;
  }
  for (size_t i = 0; i < boards_.size(); ++i) {
    for (const Board::FlowObs& obs : boards_[i]->DrainFlowObs()) {
      if (obs.kind == Board::FlowObs::Kind::kDelivered) {
        flow_->OnDelivery(obs.flow, static_cast<int>(i), obs.at);
      } else {
        flow_->OnDrop(obs.flow, flow::kDropNicLoss, obs.at);
      }
    }
  }
}

void Fleet::SampleMetrics() {
  if (!flow_ || now_ < flow_next_sample_) {
    return;
  }
  // One row per board at the first barrier at or after each interval
  // boundary. With adaptive coarsening a single barrier can cross several
  // boundaries; that yields one sample, stamped with the barrier cycle — the
  // schedule is a pure function of the barrier sequence, which is identical
  // for any host worker count.
  const Cycles interval = flow_->options().metrics_interval;
  while (flow_next_sample_ <= now_) {
    flow_next_sample_ += interval;
  }
  for (size_t i = 0; i < boards_.size(); ++i) {
    Board& b = *boards_[i];
    flow::MetricsSeries::Row row;
    row.at = now_;
    row.board = static_cast<int32_t>(i);
    row.board_now = b.Now();
    row.idle_cycles = b.system().sched().idle_cycles();
    row.traps = b.system().switcher().trap_count();
    row.allocs = b.system().alloc().allocation_count();
    row.quota_denials = b.system().alloc().quota_denials();
    const EthernetDevice& nic = b.machine().ethernet();
    row.nic_tx = nic.tx_frames();
    row.nic_rx = nic.rx_frames();
    row.nic_drops = nic.frames_dropped();
    row.futex_waits = b.system().sched().futex_waits();
    flow_->metrics().Append(row);
  }
}

void Fleet::RunEpoch(Cycles target) {
  using Clock = std::chrono::steady_clock;
  BuildStepList(target);
  const Clock::time_point t0 = Clock::now();
  StepBoards(target);
  const Clock::time_point t1 = Clock::now();
  now_ = target;
  ++barriers_;
  ExchangeFrames();
  const Clock::time_point t2 = Clock::now();
  host_step_seconds_ += std::chrono::duration<double>(t1 - t0).count();
  host_exchange_seconds_ += std::chrono::duration<double>(t2 - t1).count();
  SampleMetrics();
}

void Fleet::CatchUp() {
  if (!options_.system.fast_forward) {
    return;
  }
  // Parked boards' clocks lag the fleet clock; advance them (pure idle time
  // by construction — a parked board has no event before now_) so that
  // Fingerprints() and Now() observe exactly what a non-fast-forward run
  // would. Single-threaded: catch-up is an idle jump, not guest execution.
  for (size_t i = 0; i < boards_.size(); ++i) {
    Board& b = *boards_[i];
    if (b.runnable() && b.Now() < now_) {
      b.StepTo(now_);
      next_interesting_[i] = b.NextInterestingCycle();
      if (b.has_staged_tx()) {
        // Unreachable for a truly parked board, but keep the dirty-list
        // invariant: anything staged is drained at the next barrier.
        tx_dirty_.push_back(i);
      }
    }
  }
  // A frame injected at the final barrier may have been delivered during the
  // catch-up advance; its observation must not sit staged across Run calls.
  DrainFlowObservations();
}

void Fleet::Run(Cycles cycles) {
  CHERIOT_CHECK(booted_, "Fleet::Run() before Boot()");
  const Cycles end = now_ + cycles;
  while (now_ < end) {
    RunEpoch(NextEpochTarget(end));
  }
  CatchUp();
}

bool Fleet::RunUntil(const std::function<bool()>& pred, Cycles max_cycles) {
  CHERIOT_CHECK(booted_, "Fleet::RunUntil() before Boot()");
  const Cycles end = now_ + max_cycles;
  while (!pred()) {
    if (now_ >= end) {
      CatchUp();
      return false;
    }
    bool any_runnable = false;
    for (auto& board : boards_) {
      if (board->runnable()) {
        any_runnable = true;
        break;
      }
    }
    if (!any_runnable) {
      LOG_WARN("fleet: no runnable boards before predicate held");
      CatchUp();
      return pred();
    }
    RunEpoch(NextEpochTarget(end));
  }
  CatchUp();
  return true;
}

void Fleet::LogAdvance() {
  if (now_ > logged_now_) {
    FleetOp op;
    op.kind = FleetOp::Kind::kAdvance;
    op.to = now_;
    fleet_log_.push_back(std::move(op));
    logged_now_ = now_;
  }
}

void Fleet::PublishMqtt(const std::string& topic, const net::Bytes& payload) {
  LogAdvance();
  FleetOp op;
  op.kind = FleetOp::Kind::kMqtt;
  op.topic = topic;
  op.payload = payload;
  fleet_log_.push_back(std::move(op));
  gateway_emit_at_ = now_;
  gateway_.PublishMqtt(now_, topic, payload);
}

void Fleet::SendPing(net::Ipv4 dst, uint16_t id, uint16_t seq) {
  LogAdvance();
  FleetOp op;
  op.kind = FleetOp::Kind::kPing;
  op.dst = dst;
  op.id = id;
  op.seq = seq;
  fleet_log_.push_back(std::move(op));
  gateway_emit_at_ = now_;
  gateway_.SendPing(now_, dst, id, seq);
}

std::vector<trace::TraceRecorder*> Fleet::TraceRecorders() {
  std::vector<trace::TraceRecorder*> out;
  for (auto& board : boards_) {
    if (auto* tr = board->trace_recorder()) {
      out.push_back(tr);
    }
  }
  if (fabric_trace_) {
    out.push_back(fabric_trace_.get());
  }
  return out;
}

std::vector<const cov::CovRecorder*> Fleet::CovRecorders() {
  std::vector<const cov::CovRecorder*> out;
  for (auto& board : boards_) {
    if (auto* cr = board->cov_recorder()) {
      out.push_back(cr);
    }
  }
  return out;
}

void Fleet::BuildSnapshotContainer(snap::Container& c) {
  CHERIOT_CHECK(booted_, "Fleet::Snapshot() before Boot()");
  LogAdvance();
  c.kind = snap::kFleet;
  // Every board carries the same recorder set, so board 0's observers
  // describe the fleet's (flags here, the options block in FLET).
  const obs::ObserverList& recorders = boards_.front()->machine().observers();
  c.flags = snap::kHasReplayLog | recorders.SnapshotFlags();
  {
    // Effective configuration + fleet-level state. host_threads is
    // deliberately absent: it is a host-performance knob with bit-identical
    // fingerprints (pinned by tests/fleet_test.cpp), so snapshots taken at
    // any worker count byte-match. The fast-forward mode is recorded:
    // fingerprints match across modes, but the device sections do not (a
    // fast-forwarded board skips the idle quantum timer, so its compare
    // register and pending-IRQ mask differ from a fully stepped board's),
    // so a restore must replay in the mode the snapshot was taken in.
    snap::Writer w;
    w.U64(options_.epoch);
    w.U64(options_.board_link_latency);
    const net::WorldOptions& wo = options_.world;
    w.U64(wo.link_latency);
    w.U32(static_cast<uint32_t>(wo.dns_table.size()));
    for (const auto& [name, ip] : wo.dns_table) {
      w.Str(name);
      w.U32(ip);
    }
    w.U32(wo.ntp_unix_base);
    w.I32(wo.drop_every_nth_tcp);
    w.Bool(wo.mqtt_fanout);
    w.U32(options_.machine.sram_base);
    w.U32(options_.machine.sram_size);
    w.Bool(options_.machine.uart_echo);
    w.U64(options_.system.tick_quantum);
    w.U64(options_.system.idle_chunk);
    w.Bool(options_.system.fast_forward);
    recorders.SerializeOptions(w);
    w.U32(static_cast<uint32_t>(boards_.size()));
    w.U64(now_);
    w.U64(frames_exchanged_);
    c.sections.push_back({snap::kSecFleet, w.Take()});
  }
  {
    snap::Writer w;
    fabric_.SerializeState(w);
    c.sections.push_back({snap::kSecFabric, w.Take()});
  }
  if (fabric_trace_) {
    snap::Writer w;
    fabric_trace_->SerializeState(w);
    c.sections.push_back({snap::kSecTrace, w.Take()});
  }
  {
    // Every board's state sections as a nested container, plus its recorder
    // rings — the restore verify then doubles as the proof that trace and
    // health exports survive a restore byte-identically.
    snap::Writer w;
    w.U32(static_cast<uint32_t>(boards_.size()));
    for (auto& board : boards_) {
      snap::Container bc;
      bc.kind = snap::kBoard;
      bc.flags = snap::kEmbedded;
      board->BuildStateSections(bc);
      board->machine().observers().AppendSections(bc);
      w.Blob(bc.Assemble());
    }
    c.sections.push_back({snap::kSecFleetBoards, w.Take()});
  }
  {
    snap::Writer w;
    w.U64(fleet_log_.size());
    for (const FleetOp& op : fleet_log_) {
      w.U8(static_cast<uint8_t>(op.kind));
      switch (op.kind) {
        case FleetOp::Kind::kAdvance:
          w.U64(op.to);
          break;
        case FleetOp::Kind::kMqtt:
          w.Str(op.topic);
          w.Blob(op.payload);
          break;
        case FleetOp::Kind::kPing:
          w.U32(op.dst);
          w.U16(op.id);
          w.U16(op.seq);
          break;
      }
    }
    c.sections.push_back({snap::kSecFleetLog, w.Take()});
  }
}

void Fleet::Snapshot(std::vector<uint8_t>& out) {
  snap::Container c;
  BuildSnapshotContainer(c);
  out = c.Assemble();
}

std::unique_ptr<Fleet> Fleet::Restore(const uint8_t* data, size_t size,
                                      const ImageResolver& images,
                                      int host_threads, bool flow,
                                      flow::FlowOptions flow_options) {
  const snap::Container c = snap::Container::Parse(data, size);
  if (c.kind != snap::kFleet) {
    throw snap::SnapshotError("not a fleet snapshot");
  }
  FleetOptions o;
  uint32_t board_count = 0;
  Cycles saved_now = 0;
  {
    snap::Reader r(c.Require(snap::kSecFleet).body);
    o.epoch = r.U64();
    o.board_link_latency = r.U64();
    o.world.link_latency = r.U64();
    o.world.dns_table.clear();
    const uint32_t dns = r.U32();
    for (uint32_t i = 0; i < dns; ++i) {
      const std::string name = r.Str();
      o.world.dns_table[name] = r.U32();
    }
    o.world.ntp_unix_base = r.U32();
    o.world.drop_every_nth_tcp = r.I32();
    o.world.mqtt_fanout = r.Bool();
    o.machine.sram_base = r.U32();
    o.machine.sram_size = r.U32();
    o.machine.uart_echo = r.Bool();
    o.system.tick_quantum = r.U64();
    o.system.idle_chunk = r.U64();
    o.system.fast_forward = r.Bool();
    const RecorderOptions recorders = ReadRecorderOptions(r);
    o.trace = recorders.trace.has_value();
    o.trace_options = recorders.trace.value_or(trace::TraceOptions{});
    o.forensics = recorders.forensics.has_value();
    o.forensics_options =
        recorders.forensics.value_or(health::ForensicsOptions{});
    o.cov = recorders.cov.has_value();
    o.cov_options = recorders.cov.value_or(cov::CovOptions{});
    board_count = r.U32();
    // now_ bounds the replay; it and frames_exchanged_ are reproduced by
    // the replay and compared by the verify.
    saved_now = r.U64();
    r.U64();
    r.ExpectEnd("FLET");
  }
  // Nothing is built from a decoded option before it is checked: the
  // constructor's bounds are enforced here as typed errors, and every
  // board's SRAM is sized from FLET's geometry, which each board's BRDS
  // entry must back.
  if (o.board_link_latency == 0 || o.epoch > o.board_link_latency) {
    throw snap::SnapshotError(
        "snapshot fleet epoch and link latency out of bounds");
  }
  {
    snap::Reader r(c.Require(snap::kSecFleetBoards).body);
    if (r.U32() != board_count) {
      throw snap::SnapshotError("snapshot fleet board count mismatch");
    }
    for (uint32_t i = 0; i < board_count; ++i) {
      CheckSramSection(snap::Container::Parse(r.Blob()), o.machine);
    }
  }
  o.host_threads = host_threads;
  o.flow = flow;
  o.flow_options = flow_options;
  const bool fast_forward = o.system.fast_forward;
  auto fleet = std::make_unique<Fleet>(std::move(o));
  // Replay in the recorded mode, whatever CHERIOT_FLEET_FAST_FORWARD says.
  fleet->options_.system.fast_forward = fast_forward;
  for (uint32_t i = 0; i < board_count; ++i) {
    fleet->AddBoard(images(static_cast<int>(i)));
  }
  fleet->Boot();
  {
    snap::Reader r(c.Require(snap::kSecFleetLog).body);
    const uint64_t n_ops = r.U64();
    for (uint64_t i = 0; i < n_ops; ++i) {
      switch (r.U8()) {
        case 0: {  // kAdvance
          const Cycles to = r.U64();
          if (to < fleet->now_) {
            throw snap::SnapshotError(
                "fleet replay diverged: advance behind the fleet clock");
          }
          if (to > saved_now) {
            throw snap::SnapshotError(
                "fleet replay log advances past the snapshot's clock");
          }
          if (to > fleet->now_) {
            fleet->Run(to - fleet->now_);
          }
          break;
        }
        case 1: {  // kMqtt
          const std::string topic = r.Str();
          const net::Bytes payload = r.Blob();
          fleet->PublishMqtt(topic, payload);
          break;
        }
        case 2: {  // kPing
          const net::Ipv4 dst = r.U32();
          const uint16_t id = r.U16();
          const uint16_t seq = r.U16();
          fleet->SendPing(dst, id, seq);
          break;
        }
        default:
          throw snap::SnapshotError("unknown fleet replay op");
      }
    }
    r.ExpectEnd("FLOG");
  }
  // Verify: the restored fleet must re-serialize to the snapshot, byte for
  // byte — boards, fabric, recorders and the rebuilt control log alike.
  snap::Container check;
  fleet->BuildSnapshotContainer(check);
  snap::VerifySections(c, check);
  return fleet;
}

std::vector<Board::Fingerprint> Fleet::Fingerprints() {
  std::vector<Board::Fingerprint> out;
  out.reserve(boards_.size());
  for (auto& board : boards_) {
    out.push_back(board->fingerprint());
  }
  return out;
}

}  // namespace cheriot::sim
