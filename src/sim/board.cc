#include "src/sim/board.h"

#include "src/base/check.h"
#include "src/snap/wire.h"

namespace cheriot::sim {

EthernetDevice::Mac MacForIndex(int index) {
  const uint32_t id = static_cast<uint32_t>(index) + 2;
  return {2, 0, 0, 0, static_cast<uint8_t>(id >> 8),
          static_cast<uint8_t>(id)};
}

Board::Board(FirmwareImage image, const BoardOptions& options)
    : options_(options),
      machine_(options.machine),
      system_(machine_, std::move(image), options.system) {
  EthernetDevice& nic = machine_.ethernet();
  nic.set_mac(options_.mac);
  nic.set_flow_origin(static_cast<int16_t>(options_.index));
  nic.on_transmit = [this](Frame frame, flow::FlowId flow) {
    tx_staged_.push_back({machine_.clock().now(), std::move(frame), flow});
  };
}

// Stages flow observations for the Fleet (see Board::FlowObs).
class Board::FlowStager : public obs::Observer {
 public:
  void OnAttach(Machine& machine) override { clock_ = &machine.clock(); }
  void OnNicRx(size_t bytes, const flow::FlowId& flow) override {
    staged_.push_back({FlowObs::Kind::kDelivered, flow, clock_->now(),
                       static_cast<uint32_t>(bytes)});
  }
  void OnFrameDrop(uint8_t, size_t bytes, const flow::FlowId& flow) override {
    staged_.push_back({FlowObs::Kind::kDropped, flow, clock_->now(),
                       static_cast<uint32_t>(bytes)});
  }
  std::vector<FlowObs> Drain() {
    std::vector<FlowObs> out;
    out.swap(staged_);
    return out;
  }

 private:
  const CycleClock* clock_ = nullptr;
  std::vector<FlowObs> staged_;
};

trace::TraceRecorder* Board::EnableTrace(trace::TraceOptions options) {
  return trace_ = Attach(std::make_unique<trace::TraceRecorder>(options));
}

health::ForensicsRecorder* Board::EnableForensics(
    health::ForensicsOptions options) {
  // The crash-scene hook (DESIGN.md §10) runs only when
  // options.capture_crash_scene is set; the serializer is a pure observer.
  return forensics_ = Attach(std::make_unique<health::ForensicsRecorder>(
             options, [this] { return SerializeCrashScene(); }));
}

cov::CovRecorder* Board::EnableCoverage(cov::CovOptions options) {
  return cov_ = Attach(std::make_unique<cov::CovRecorder>(options));
}

void Board::EnableFlowStaging() {
  flow_stager_ = Attach(std::make_unique<FlowStager>());
}

void Board::Boot() {
  system_.Boot();
  booted_ = true;
}

System::RunResult Board::StepTo(Cycles target) {
  if (op_log_enabled_) {
    // Every call is logged, uncompressed: last_result_ / deadlock-return
    // semantics depend on per-call behavior, so replay must re-execute the
    // exact call sequence, not a coalesced one.
    BoardOp op;
    op.kind = BoardOp::Kind::kStep;
    op.a = target;
    op_log_.push_back(std::move(op));
  }
  return RunTo(target);
}

System::RunResult Board::RunTo(Cycles target) {
  injected_since_deadlock_ = false;
  if (target > Now()) {
    last_result_ = system_.Run(target - Now());
  }
  return last_result_;
}

Cycles Board::NextInterestingCycle() {
  if (!runnable()) {
    return System::kForever;
  }
  return system_.NextEventCycle();
}

bool Board::runnable() const {
  switch (last_result_) {
    case System::RunResult::kAllExited:
      return false;
    case System::RunResult::kDeadlock:
      // A frame injected after the deadlock re-arms the ethernet IRQ path.
      return injected_since_deadlock_;
    default:
      return true;
  }
}

std::vector<Board::TxFrame> Board::DrainTx() {
  std::vector<TxFrame> out;
  out.swap(tx_staged_);
  return out;
}

std::vector<Board::FlowObs> Board::DrainFlowObs() {
  return flow_stager_ != nullptr ? flow_stager_->Drain()
                                 : std::vector<FlowObs>();
}

void Board::InjectAt(Cycles due, SharedFrame frame, flow::FlowId flow) {
  if (op_log_enabled_) {
    // Logged with the clock at injection: frame visibility depends on when
    // (between which StepTo calls) the frame arrived, and replay asserts the
    // clock matches before re-injecting.
    BoardOp op;
    op.kind = BoardOp::Kind::kInject;
    op.a = Now();
    op.b = due;
    op.frame = frame;
    op.flow = flow;
    op_log_.push_back(std::move(op));
  }
  machine_.ethernet().InjectAt(due, std::move(frame), flow);
  injected_since_deadlock_ = true;
}

// --- Snapshot/restore (DESIGN.md §10) --------------------------------------

namespace {

void SerializeFlowId(snap::Writer& w, const flow::FlowId& id) {
  w.I32(id.origin);
  w.U32(id.seq);
}

flow::FlowId DeserializeFlowId(snap::Reader& r) {
  flow::FlowId id;
  id.origin = static_cast<int16_t>(r.I32());
  id.seq = r.U32();
  return id;
}

void SerializeFrameList(snap::Writer& w,
                        const std::vector<Board::TxFrame>& v) {
  w.U32(static_cast<uint32_t>(v.size()));
  for (const auto& tx : v) {
    w.U64(tx.at);
    w.Blob(tx.frame);
    SerializeFlowId(w, tx.flow);
  }
}

void AddSection(snap::Container& c, uint32_t id,
                const std::function<void(snap::Writer&)>& fill) {
  snap::Writer w;
  fill(w);
  c.sections.push_back({id, w.Take()});
}

void SerializeBoardOptions(snap::Writer& w, const BoardOptions& o) {
  w.I32(o.index);
  w.Bytes(o.mac.data(), o.mac.size());
  w.U32(o.machine.sram_base);
  w.U32(o.machine.sram_size);
  w.Bool(o.machine.uart_echo);
  w.U64(o.system.tick_quantum);
  w.U64(o.system.idle_chunk);
  w.Bool(o.system.fast_forward);
}

BoardOptions DeserializeBoardOptions(snap::Reader& r) {
  BoardOptions o;
  o.index = r.I32();
  r.BytesInto(o.mac.data(), o.mac.size());
  o.machine.sram_base = r.U32();
  o.machine.sram_size = r.U32();
  o.machine.uart_echo = r.Bool();
  o.system.tick_quantum = r.U64();
  o.system.idle_chunk = r.U64();
  o.system.fast_forward = r.Bool();
  return o;
}

}  // namespace

void Board::SerializeBoardSection(snap::Writer& w) const {
  w.Bool(booted_);
  w.U8(static_cast<uint8_t>(last_result_));
  w.Bool(injected_since_deadlock_);
  const EthernetDevice& nic = machine_.ethernet();
  w.U32(nic.tx_seq());
  SerializeFrameList(w, tx_staged_);
  w.U32(static_cast<uint32_t>(nic.wire().size()));
  for (const EthernetDevice::InFlight& f : nic.wire()) {
    w.U64(f.due);
    w.Blob(f.frame);
    SerializeFlowId(w, f.flow);
  }
}

void Board::BuildStateSections(snap::Container& c) {
  CHERIOT_CHECK(booted_, "Board state sections require a booted board");
  AddSection(c, snap::kSecClock,
             [this](snap::Writer& w) { w.U64(machine_.clock().now()); });
  AddSection(c, snap::kSecMemory,
             [this](snap::Writer& w) { machine_.memory().SerializeState(w); });
  AddSection(c, snap::kSecIrq, [this](snap::Writer& w) {
    w.U32(machine_.irqs().pending_mask());
  });
  AddSection(c, snap::kSecDevices, [this](snap::Writer& w) {
    machine_.uart().SerializeState(w);
    machine_.leds().SerializeState(w);
    machine_.timer().SerializeState(w);
    machine_.ethernet().SerializeState(w);
    machine_.entropy().SerializeState(w);
  });
  AddSection(c, snap::kSecRevoker,
             [this](snap::Writer& w) { machine_.revoker().SerializeState(w); });
  AddSection(c, snap::kSecKernel,
             [this](snap::Writer& w) { system_.SerializeState(w); });
  AddSection(c, snap::kSecSched,
             [this](snap::Writer& w) { system_.sched().SerializeState(w); });
  AddSection(c, snap::kSecSwitcher, [this](snap::Writer& w) {
    w.U64(system_.switcher().trap_count());
  });
  AddSection(c, snap::kSecAlloc,
             [this](snap::Writer& w) { system_.alloc().SerializeState(w); });
  AddSection(c, snap::kSecBoard,
             [this](snap::Writer& w) { SerializeBoardSection(w); });
}

std::vector<uint8_t> Board::SerializeCrashScene() {
  snap::Container c;
  c.kind = snap::kScene;
  BuildStateSections(c);
  return c.Assemble();
}

void Board::BuildSnapshotContainer(snap::Container& c) {
  CHERIOT_CHECK(booted_, "Board::Snapshot() before Boot()");
  bool any_started = false;
  for (const auto& t : system_.threads()) {
    any_started |= t.started;
  }
  CHERIOT_CHECK(op_log_enabled_ || !any_started,
                "Board::Snapshot() mid-run with the replay log disabled "
                "produces an unrestorable snapshot");
  c.kind = snap::kBoard;
  c.flags = snap::kHasReplayLog | machine_.observers().SnapshotFlags();
  AddSection(c, snap::kSecOptions, [this](snap::Writer& w) {
    SerializeBoardOptions(w, options_);
    machine_.observers().SerializeOptions(w);
  });
  AddSection(c, snap::kSecBootInfo,
             [this](snap::Writer& w) { SerializeBootInfo(w, system_.boot()); });
  BuildStateSections(c);
  machine_.observers().AppendSections(c);
  AddSection(c, snap::kSecReplayLog, [this](snap::Writer& w) {
    w.U64(op_log_.size());
    for (const BoardOp& op : op_log_) {
      w.U8(static_cast<uint8_t>(op.kind));
      w.U64(op.a);
      w.U64(op.b);
      w.Blob(op.frame);
      SerializeFlowId(w, op.flow);
    }
  });
}

void Board::Snapshot(std::vector<uint8_t>& out) {
  snap::Container c;
  BuildSnapshotContainer(c);
  out = c.Assemble();
}

RecorderOptions ReadRecorderOptions(snap::Reader& r) {
  // Per kind, in the order obs::ObserverList::SerializeOptions writes: a
  // presence flag, then that recorder's options.
  RecorderOptions o;
  if (r.Bool()) {
    o.trace = trace::TraceRecorder::ReadOptions(r);
  }
  if (r.Bool()) {
    o.forensics = health::ForensicsRecorder::ReadOptions(r);
  }
  if (r.Bool()) {
    o.cov = cov::CovRecorder::ReadOptions(r);
  }
  return o;
}

void CheckSramSection(const snap::Container& state,
                      const MachineConfig& machine) {
  snap::Reader r(state.Require(snap::kSecMemory).body);
  if (r.U32() != machine.sram_base || r.U32() != machine.sram_size ||
      r.remaining() < machine.sram_size) {
    throw snap::SnapshotError("snapshot SRAM geometry does not match its "
                              "SRAM section");
  }
}

std::unique_ptr<Board> Board::Restore(const uint8_t* data, size_t size,
                                      FirmwareImage image) {
  const snap::Container c = snap::Container::Parse(data, size);
  if (c.kind != snap::kBoard) {
    throw snap::SnapshotError("not a board snapshot");
  }
  if (c.flags & snap::kEmbedded) {
    throw snap::SnapshotError(
        "fleet-embedded board state is not standalone-restorable");
  }

  const snap::Section& opts_sec = c.Require(snap::kSecOptions);
  snap::Reader opts(opts_sec.body);
  BoardOptions options = DeserializeBoardOptions(opts);
  const RecorderOptions recorders = ReadRecorderOptions(opts);
  opts.ExpectEnd("OPTS");
  CheckSramSection(c, options.machine);
  const Cycles saved_now = snap::Reader(c.Require(snap::kSecClock).body).U64();

  auto board = std::make_unique<Board>(std::move(image), options);
  if (recorders.trace) {
    board->EnableTrace(*recorders.trace);
  }
  if (recorders.forensics) {
    board->EnableForensics(*recorders.forensics);
  }
  if (recorders.cov) {
    board->EnableCoverage(*recorders.cov);
  }

  // Boot, then re-execute the logged external inputs. Execution is fully
  // deterministic, so the replayed board lands in the exact snapshotted
  // state — which the verify below proves.
  board->Boot();
  snap::Reader log(c.Require(snap::kSecReplayLog).body);
  const uint64_t n_ops = log.U64();
  for (uint64_t i = 0; i < n_ops; ++i) {
    const auto kind = static_cast<BoardOp::Kind>(log.U8());
    const Cycles a = log.U64();
    const Cycles b = log.U64();
    Frame frame = log.Blob();
    const flow::FlowId flow = DeserializeFlowId(log);
    switch (kind) {
      case BoardOp::Kind::kStep:
        // StepTo runs until the clock reaches its target or the guest stops
        // (every thread exits, or deadlock), so a target past the snapshot's
        // clock is valid only if the board stops before that clock. Run it
        // just that far first (run-budget pauses are cycle-transparent) and
        // refuse to run on unless it stopped; the StepTo below then returns
        // at once. (A run ended by System::RequestStop() resumes on the next
        // Run(), so it cannot be split like this and is refused too.)
        if (a > saved_now) {
          board->RunTo(saved_now + 1);
          if (board->runnable()) {
            throw snap::SnapshotError(
                "replay log steps past the snapshot's clock");
          }
        }
        board->StepTo(a);
        break;
      case BoardOp::Kind::kInject:
        if (board->Now() != a) {
          throw snap::SnapshotError(
              "replay diverged: injection clock mismatch");
        }
        board->InjectAt(b, std::move(frame), flow);
        break;
      default:
        throw snap::SnapshotError("unknown replay op");
    }
  }
  log.ExpectEnd("RLOG");

  // Verify: every section of the restored board must re-serialize to the
  // exact bytes of the snapshot. Any drift between serialized state and
  // reconstructed state is caught here, not at cycle 10^9 of the resumed
  // run.
  snap::Container check;
  board->BuildSnapshotContainer(check);
  snap::VerifySections(c, check);
  return board;
}

Board::Fingerprint Board::fingerprint() {
  Fingerprint fp;
  fp.now = machine_.clock().now();
  fp.accesses = machine_.memory().access_count();
  fp.cap_loads = machine_.memory().cap_load_count();
  fp.cap_stores = machine_.memory().cap_store_count();
  const std::string& uart = machine_.uart().output();
  fp.uart_bytes = uart.size();
  uint64_t h = 1469598103934665603ull;  // FNV-1a
  for (char c : uart) {
    h = (h ^ static_cast<uint8_t>(c)) * 1099511628211ull;
  }
  fp.uart_hash = h;
  if (booted_) {  // the TCB exists only after Boot()
    fp.traps = system_.switcher().trap_count();
    fp.idle_cycles = system_.sched().idle_cycles();
    for (const auto& comp : system_.boot().compartments) {
      fp.reboots += comp.reboot_count;
    }
  }
  return fp;
}

}  // namespace cheriot::sim
