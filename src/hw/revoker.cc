#include "src/hw/revoker.h"

#include "src/base/costs.h"
#include "src/snap/wire.h"

namespace cheriot {

Word Revoker::Mmio(Address offset, bool is_store, Word value) {
  switch (offset) {
    case 0:  // epoch counter (hardware-exposed, §3.1.3 "Quarantine")
      return epoch_;
    case 4:  // control
      if (is_store && (value & 1)) {
        StartSweep();
      }
      return 0;
    case 8:  // status
      return sweeping_ ? 1 : 0;
    case 12:  // interrupt request
      if (is_store && (value & 1)) {
        irq_requested_ = true;
        if (!sweeping_) {
          StartSweep();
        }
      }
      return 0;
    default:
      return 0;
  }
}

void Revoker::StartSweep() {
  if (sweeping_) {
    // A sweep is already running; remember to run another one so that
    // objects freed after the in-flight sweep's scan point get covered.
    restart_requested_ = true;
    return;
  }
  sweeping_ = true;
  next_granule_ = 0;
  budget_ = 0;
  for (obs::Observer* o : *observers_) {
    o->OnSweepBegin(epoch_);
  }
}

Cycles Revoker::CyclesUntilDone() const {
  if (!sweeping_) {
    return 0;
  }
  const size_t remaining = memory_->GranuleCount() - next_granule_;
  return static_cast<Cycles>(remaining) * cost::kRevokerCyclesPerGranule;
}

void Revoker::AdvanceSweep(Cycles delta) {
  budget_ += delta;
  size_t granules = budget_ / cost::kRevokerCyclesPerGranule;
  budget_ -= granules * cost::kRevokerCyclesPerGranule;
  const size_t total = memory_->GranuleCount();
  // Word-skipping sweep: untagged granule runs are skipped with one bitmap
  // probe per 64 granules instead of being visited one at a time. The cycle
  // model is untouched — every skipped granule still consumes one granule of
  // budget, so next_granule_ advances exactly as the naive sweep's would and
  // epochs, CyclesUntilDone and completion-IRQ timing are bit-identical
  // (asserted by RevokerTest.SkippingSweepMatchesNaiveSweep and the
  // cycle-model-invariance harness).
  while (granules > 0 && next_granule_ < total) {
    size_t next_tagged = memory_->FindNextTaggedGranule(next_granule_);
    if (next_tagged == Bitmap::npos) {
      next_tagged = total;
    }
    const size_t untagged_run = next_tagged - next_granule_;
    if (untagged_run >= granules) {
      next_granule_ += granules;
      granules = 0;
      break;
    }
    next_granule_ = next_tagged;
    granules -= untagged_run;
    if (next_granule_ < total) {
      const Capability& cap = memory_->GranuleCap(next_granule_);
      if (memory_->revocation().Test(cap.base())) {
        memory_->ClearGranuleTag(next_granule_);
      }
      ++next_granule_;
      --granules;
    }
  }
  if (next_granule_ >= total) {
    ++epoch_;
    sweeping_ = false;
    for (obs::Observer* o : *observers_) {
      o->OnSweepEnd(epoch_, total);
    }
    if (irq_requested_) {
      irqs_->Raise(IrqLine::kRevoker);
      irq_requested_ = false;
    }
    if (restart_requested_) {
      restart_requested_ = false;
      StartSweep();
    }
  }
}

void Revoker::SerializeState(snap::Writer& w) const {
  w.Bool(sweeping_);
  w.Bool(restart_requested_);
  w.Bool(irq_requested_);
  w.U32(epoch_);
  w.U64(next_granule_);
  w.U64(budget_);
}

}  // namespace cheriot
