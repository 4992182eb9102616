// Tests for the background revoker: asynchronous sweeping, the epoch
// contract the allocator's quarantine depends on, and completion interrupts.
#include "src/hw/revoker.h"

#include <gtest/gtest.h>

#include <random>

#include "src/hw/machine.h"

namespace cheriot {
namespace {

class RevokerTest : public ::testing::Test {
 protected:
  Machine machine_{};
  Capability root_ = Capability::RootReadWrite(
      machine_.memory().sram_base(),
      machine_.memory().sram_base() + machine_.memory().sram_size());
};

TEST_F(RevokerTest, SweepInvalidatesStaleCapabilities) {
  Memory& mem = machine_.memory();
  const Address obj = mem.sram_base() + 0x1000;
  const Address slot = mem.sram_base() + 0x2000;
  const Capability obj_cap = root_.WithBounds(obj, 0x40);
  mem.StoreCap(root_, slot, obj_cap);
  ASSERT_TRUE(mem.TagAt(slot));

  mem.revocation().SetRange(obj, 0x40, true);
  machine_.revoker().StartSweep();
  EXPECT_TRUE(machine_.revoker().sweeping());
  // Advance until the sweep completes.
  while (machine_.revoker().sweeping()) {
    machine_.Tick(10'000);
  }
  EXPECT_FALSE(mem.TagAt(slot));  // stale pointer swept
  EXPECT_EQ(machine_.revoker().epoch(), 1u);
}

TEST_F(RevokerTest, SweepPreservesLiveCapabilities) {
  Memory& mem = machine_.memory();
  const Address obj = mem.sram_base() + 0x1000;
  const Address slot = mem.sram_base() + 0x2000;
  mem.StoreCap(root_, slot, root_.WithBounds(obj, 0x40));
  machine_.revoker().StartSweep();
  while (machine_.revoker().sweeping()) {
    machine_.Tick(10'000);
  }
  EXPECT_TRUE(mem.TagAt(slot));
}

TEST_F(RevokerTest, SweepTakesTimeProportionalToMemory) {
  machine_.revoker().StartSweep();
  const Cycles expected =
      static_cast<Cycles>(machine_.memory().GranuleCount()) *
      cost::kRevokerCyclesPerGranule;
  EXPECT_EQ(machine_.revoker().CyclesUntilDone(), expected);
  machine_.Tick(expected / 2);
  EXPECT_TRUE(machine_.revoker().sweeping());
  machine_.Tick(expected / 2 + cost::kRevokerCyclesPerGranule);
  EXPECT_FALSE(machine_.revoker().sweeping());
}

TEST_F(RevokerTest, SafeEpochAccountsForInFlightSweep) {
  EXPECT_EQ(machine_.revoker().SafeEpochForFreeNow(), 1u);
  machine_.revoker().StartSweep();
  // Mid-sweep, a newly freed object needs the *next* full sweep.
  EXPECT_EQ(machine_.revoker().SafeEpochForFreeNow(), 2u);
}

TEST_F(RevokerTest, RestartRequestQueuesSecondSweep) {
  machine_.revoker().StartSweep();
  machine_.revoker().StartSweep();  // queued
  while (machine_.revoker().epoch() < 2) {
    machine_.Tick(100'000);
  }
  EXPECT_EQ(machine_.revoker().epoch(), 2u);
}

TEST_F(RevokerTest, CompletionInterrupt) {
  EXPECT_FALSE(machine_.irqs().Pending(IrqLine::kRevoker));
  machine_.revoker().Mmio(12, /*is_store=*/true, 1);  // request IRQ
  while (machine_.revoker().sweeping()) {
    machine_.Tick(100'000);
  }
  EXPECT_TRUE(machine_.irqs().Pending(IrqLine::kRevoker));
}

TEST_F(RevokerTest, MmioRegisterBank) {
  EXPECT_EQ(machine_.revoker().Mmio(0, false, 0), 0u);  // epoch
  machine_.revoker().Mmio(4, true, 1);                  // start
  EXPECT_EQ(machine_.revoker().Mmio(8, false, 0), 1u);  // status: sweeping
  while (machine_.revoker().sweeping()) {
    machine_.Tick(100'000);
  }
  EXPECT_EQ(machine_.revoker().Mmio(0, false, 0), 1u);
  EXPECT_EQ(machine_.revoker().Mmio(8, false, 0), 0u);
}

// Differential check of the word-skipping sweep (src/hw/revoker.cc) against
// a naive granule-at-a-time reference on a randomized heap: two identically
// seeded machines, one swept by the hardware revoker driven with random tick
// deltas, the other by the reference sweep fed the same deltas. Sweep
// progress (via CyclesUntilDone), epoch transitions and the final tag state
// must be bit-identical.
TEST_F(RevokerTest, SkippingSweepMatchesNaiveSweep) {
  std::mt19937 rng(0xC43107);
  Machine naive_machine;
  Memory& mem = machine_.memory();
  Memory& naive_mem = naive_machine.memory();
  const Address base = mem.sram_base();

  // Identical randomized heap on both machines: capabilities scattered over
  // the granule space (leaving long untagged runs to skip), a random subset
  // of their targets revoked.
  std::uniform_int_distribution<size_t> slot_dist(0, mem.GranuleCount() - 1);
  std::uniform_int_distribution<int> percent(0, 99);
  for (int i = 0; i < 400; ++i) {
    const Address slot = base + slot_dist(rng) * kGranuleBytes;
    const Address obj = base + slot_dist(rng) * kGranuleBytes;
    const Capability cap = root_.WithBounds(obj, kGranuleBytes);
    mem.StoreCap(root_, slot, cap);
    naive_mem.StoreCap(root_, slot, cap);
    if (percent(rng) < 40) {
      mem.revocation().SetRange(obj, kGranuleBytes, true);
      naive_mem.revocation().SetRange(obj, kGranuleBytes, true);
    }
  }

  machine_.revoker().StartSweep();
  // Naive reference sweep state, advanced with the exact deltas the real
  // revoker sees via the clock hook.
  size_t naive_next = 0;
  Cycles naive_budget = 0;
  const size_t total = naive_mem.GranuleCount();
  std::uniform_int_distribution<Cycles> delta_dist(1, 400);
  while (machine_.revoker().sweeping()) {
    const Cycles delta = delta_dist(rng);
    machine_.Tick(delta);
    naive_budget += delta;
    size_t granules = naive_budget / cost::kRevokerCyclesPerGranule;
    naive_budget -= granules * cost::kRevokerCyclesPerGranule;
    while (granules > 0 && naive_next < total) {
      if (naive_mem.GranuleTagged(naive_next) &&
          naive_mem.revocation().Test(naive_mem.GranuleCap(naive_next).base())) {
        naive_mem.ClearGranuleTag(naive_next);
      }
      ++naive_next;
      --granules;
    }
    if (machine_.revoker().sweeping()) {
      // CyclesUntilDone exposes the sweep position exactly.
      ASSERT_EQ(machine_.revoker().CyclesUntilDone(),
                static_cast<Cycles>(total - naive_next) *
                    cost::kRevokerCyclesPerGranule);
    } else {
      ASSERT_GE(naive_next, total);
    }
  }
  EXPECT_EQ(machine_.revoker().epoch(), 1u);
  for (size_t g = 0; g < total; ++g) {
    ASSERT_EQ(mem.GranuleTagged(g), naive_mem.GranuleTagged(g))
        << "granule " << g;
  }
}

TEST_F(RevokerTest, TimerRaisesIrqAtDeadline) {
  machine_.timer().SetDeadline(machine_.clock().now() + 500);
  machine_.Tick(499);
  EXPECT_FALSE(machine_.irqs().Pending(IrqLine::kTimer));
  machine_.Tick(2);
  EXPECT_TRUE(machine_.irqs().Pending(IrqLine::kTimer));
}

TEST_F(RevokerTest, AdvanceIdleSkipsToTimer) {
  machine_.timer().SetDeadline(machine_.clock().now() + 12'345);
  const Cycles skipped = machine_.AdvanceIdle(1'000'000);
  EXPECT_EQ(skipped, 12'345u);
  EXPECT_TRUE(machine_.irqs().Pending(IrqLine::kTimer));
}

// A frame on the NIC's wire bounds the idle skip like the timer does, and is
// in the RX FIFO with the Ethernet IRQ pending when the skip lands.
TEST_F(RevokerTest, AdvanceIdleSkipsToTheNextFrameOnTheWire) {
  EthernetDevice& nic = machine_.ethernet();
  nic.InjectAt(machine_.clock().now() + 500, EthernetDevice::Frame(60, 0xAB));
  EXPECT_TRUE(machine_.HasFutureEventIgnoringTimer());
  EXPECT_EQ(machine_.AdvanceIdle(1'000'000), 500u);
  EXPECT_EQ(nic.rx_pending(), 1u);
  EXPECT_TRUE(machine_.irqs().Pending(IrqLine::kEthernet));
  EXPECT_FALSE(machine_.HasFutureEventIgnoringTimer());
}

}  // namespace
}  // namespace cheriot
