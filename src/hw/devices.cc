#include "src/hw/devices.h"

#include <algorithm>
#include <cstdio>

#include "src/kernel/schedule_arbiter.h"
#include "src/obs/observer.h"
#include "src/snap/wire.h"

namespace cheriot {

Word Uart::Mmio(Address offset, bool is_store, Word value) {
  switch (offset) {
    case 0:  // TX data
      if (is_store) {
        output_.push_back(static_cast<char>(value & 0xFF));
        if (echo_) {
          std::fputc(static_cast<int>(value & 0xFF), stdout);
        }
      }
      return 0;
    case 4:  // status: TX always ready
      return 1;
    default:
      return 0;
  }
}

Word LedBank::Mmio(Address offset, bool is_store, Word value) {
  if (offset == 0) {
    if (is_store) {
      state_ = value;
      events_.push_back({clock_->now(), value});
    }
    return state_;
  }
  return 0;
}

Word Timer::Mmio(Address offset, bool is_store, Word value) {
  const Cycles now = clock_->now();
  switch (offset) {
    case 0:  // mtime low
      return static_cast<Word>(now);
    case 4:  // mtime high
      return static_cast<Word>(now >> 32);
    case 8:  // mtimecmp low
      if (is_store) {
        mtimecmp_ = (mtimecmp_ & ~0xFFFFFFFFull) | value;
        armed_ = true;
        irqs_->Clear(IrqLine::kTimer);
      }
      return static_cast<Word>(mtimecmp_);
    case 12:  // mtimecmp high
      if (is_store) {
        mtimecmp_ = (mtimecmp_ & 0xFFFFFFFFull) |
                    (static_cast<Cycles>(value) << 32);
        armed_ = true;
        irqs_->Clear(IrqLine::kTimer);
      }
      return static_cast<Word>(mtimecmp_ >> 32);
    default:
      return 0;
  }
}

Word EthernetDevice::Mmio(Address offset, bool is_store, Word value) {
  switch (offset) {
    case 0x00:  // RX status: pending frame count
      return static_cast<Word>(rx_.size());
    case 0x04:  // RX length: latch head frame for reading
      if (rx_.empty()) {
        return 0;
      }
      rx_latched_ = rx_.front();
      rx_read_pos_ = 0;
      return static_cast<Word>(rx_latched_.size());
    case 0x08: {  // RX data: stream latched frame, word at a time
      const Frame& latched = rx_latched_.bytes();
      Word w = 0;
      for (int i = 0; i < 4 && rx_read_pos_ < latched.size();
           ++i, ++rx_read_pos_) {
        w |= static_cast<Word>(latched[rx_read_pos_]) << (8 * i);
      }
      return w;
    }
    case 0x0C:  // RX done: pop the frame
      if (is_store && !rx_.empty()) {
        rx_.pop_front();
        if (rx_.empty()) {
          irqs_->Clear(IrqLine::kEthernet);
        }
      }
      return 0;
    case 0x10:  // TX length: begin a frame
      if (is_store) {
        tx_building_.clear();
        tx_expected_ = value;
      }
      return 0;
    case 0x14:  // TX data: append a word
      if (is_store) {
        for (int i = 0; i < 4 && tx_building_.size() < tx_expected_; ++i) {
          tx_building_.push_back(static_cast<uint8_t>(value >> (8 * i)));
        }
      }
      return 0;
    case 0x18:  // TX done: commit
      if (is_store && on_transmit) {
        // Provenance is assigned unconditionally (the sequence ticks whether
        // or not anything records it), so flows-on and flows-off runs stay
        // bit-identical, snapshots included.
        const flow::FlowId flow{flow_origin_, tx_seq_++};
        for (obs::Observer* o : *observers_) {
          o->OnNicTx(tx_building_.size(), flow);
        }
        on_transmit(tx_building_, flow);
        tx_building_.clear();
      }
      return 0;
    case 0x1C:  // MAC address, bytes 0-3 (read-only)
      return static_cast<Word>(mac_[0]) | (static_cast<Word>(mac_[1]) << 8) |
             (static_cast<Word>(mac_[2]) << 16) |
             (static_cast<Word>(mac_[3]) << 24);
    case 0x20:  // MAC address, bytes 4-5 (read-only)
      return static_cast<Word>(mac_[4]) | (static_cast<Word>(mac_[5]) << 8);
    default:
      return 0;
  }
}

void EthernetDevice::InjectAt(Cycles due, SharedFrame frame,
                              flow::FlowId flow) {
  // Arrivals almost always carry the latest due, so this is an append.
  const auto pos = std::upper_bound(
      wire_.begin(), wire_.end(), due,
      [](Cycles d, const InFlight& f) { return d < f.due; });
  wire_.insert(pos, InFlight{due, std::move(frame), flow});
  next_due_ = wire_.front().due;
}

void EthernetDevice::DeliverDue() {
  const Cycles now = clock_->now();
  for (; !wire_.empty() && wire_.front().due <= now; wire_.pop_front()) {
    InFlight& f = wire_.front();
    // kNicLoss injection point: the arbiter may drop a due frame instead of
    // delivering it (models lossy links; only branched under `cheriot mc
    // --inject-faults`). The drop is observable — a counter and a frame drop
    // event for the observers (trace, flow) — not just retransmit echoes. The
    // decision subject is the frame's arrival index on this NIC.
    const auto seq = static_cast<uint32_t>(rx_frames_ + frames_dropped_);
    if (arbiter_ != nullptr &&
        arbiter_->Choose(DecisionKind::kNicLoss, seq, 2) == 1) {
      ++frames_dropped_;
      for (obs::Observer* o : *observers_) {
        o->OnFrameDrop(flow::kDropNicLoss, f.frame.size(), f.flow);
      }
      continue;
    }
    ++rx_frames_;
    for (obs::Observer* o : *observers_) {
      o->OnNicRx(f.frame.size(), f.flow);
    }
    rx_.push_back(std::move(f.frame));
    irqs_->Raise(IrqLine::kEthernet);
  }
  next_due_ = wire_.empty() ? kNoArrival : wire_.front().due;
}

Word EntropySource::Next() {
  state_ ^= state_ << 13;
  state_ ^= state_ >> 7;
  state_ ^= state_ << 17;
  return static_cast<Word>(state_);
}

Word EntropySource::Mmio(Address offset, bool is_store, Word value) {
  if (offset == 0 && !is_store) {
    return Next();
  }
  return 0;
}

// --- Snapshot (DESIGN.md §10) ---------------------------------------------

namespace {
void SerializeFrame(snap::Writer& w, const EthernetDevice::Frame& f) {
  w.U32(static_cast<uint32_t>(f.size()));
  w.Bytes(f.data(), f.size());
}
}  // namespace

void Uart::SerializeState(snap::Writer& w) const { w.Str(output_); }

void LedBank::SerializeState(snap::Writer& w) const {
  w.U32(state_);
  w.U32(static_cast<uint32_t>(events_.size()));
  for (const Event& e : events_) {
    w.U64(e.at);
    w.U32(e.mask);
  }
}

void Timer::SerializeState(snap::Writer& w) const {
  w.U64(mtimecmp_);
  w.Bool(armed_);
}

void EthernetDevice::SerializeState(snap::Writer& w) const {
  w.Bytes(mac_.data(), mac_.size());
  w.U32(static_cast<uint32_t>(rx_.size()));
  for (const SharedFrame& f : rx_) {
    SerializeFrame(w, f);
  }
  SerializeFrame(w, rx_latched_);
  w.U64(rx_read_pos_);
  SerializeFrame(w, tx_building_);
  w.U64(tx_expected_);
}

void EntropySource::SerializeState(snap::Writer& w) const { w.U64(state_); }

}  // namespace cheriot
