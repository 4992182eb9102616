// Tests for the simulated SRAM: tag behaviour, the load filter, deep
// attenuation on loads, store-local enforcement, MMIO dispatch, and the host
// memory a board costs (SRAM pages and shadow pages backed only when used).
#include "src/mem/memory.h"

#include <sys/mman.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/base/clock.h"
#include "src/rtos.h"
#include "src/sim/fleet_app.h"

namespace cheriot {
namespace {

constexpr Address kBase = 0x20000000;
constexpr Address kSize = 64 * 1024;

class MemoryTest : public ::testing::Test {
 protected:
  CycleClock clock_;
  Memory mem_{kBase, kSize, &clock_};
  Capability root_ = Capability::RootReadWrite(kBase, kBase + kSize);
};

TEST_F(MemoryTest, WordRoundTrip) {
  mem_.StoreWord(root_, kBase + 0x100, 0x12345678);
  EXPECT_EQ(mem_.LoadWord(root_, kBase + 0x100), 0x12345678u);
}

TEST_F(MemoryTest, ByteAndHalfRoundTrip) {
  mem_.StoreByte(root_, kBase + 0x10, 0xAB);
  EXPECT_EQ(mem_.LoadByte(root_, kBase + 0x10), 0xAB);
  mem_.StoreHalf(root_, kBase + 0x12, 0xBEEF);
  EXPECT_EQ(mem_.LoadHalf(root_, kBase + 0x12), 0xBEEF);
}

TEST_F(MemoryTest, AccessesCostCycles) {
  const Cycles before = clock_.now();
  mem_.StoreWord(root_, kBase, 1);
  mem_.LoadWord(root_, kBase);
  EXPECT_GT(clock_.now(), before);
}

TEST_F(MemoryTest, OutOfBoundsTraps) {
  const Capability narrow = root_.WithBounds(kBase + 0x100, 16);
  EXPECT_THROW(mem_.LoadWord(narrow, kBase + 0x110), TrapException);
  EXPECT_THROW(mem_.StoreWord(narrow, kBase + 0xFC, 1), TrapException);
  try {
    mem_.LoadWord(narrow, kBase + 0x110);
    FAIL();
  } catch (const TrapException& e) {
    EXPECT_EQ(e.code(), TrapCode::kBoundsViolation);
  }
}

TEST_F(MemoryTest, MissingPermissionTraps) {
  const Capability ro = root_.WithoutPermission(Permission::kStore);
  EXPECT_NO_THROW(mem_.LoadWord(ro, kBase));
  EXPECT_THROW(mem_.StoreWord(ro, kBase, 1), TrapException);
  const Capability wo = root_.WithoutPermission(Permission::kLoad);
  EXPECT_THROW(mem_.LoadWord(wo, kBase), TrapException);
}

TEST_F(MemoryTest, UntaggedAuthorityTraps) {
  const Capability fake = Capability::FromWord(kBase);
  EXPECT_THROW(mem_.LoadWord(fake, kBase), TrapException);
}

TEST_F(MemoryTest, SealedAuthorityTraps) {
  const Capability key = Capability::RootSealing().WithAddress(9);
  const Capability sealed = root_.SealedWith(key);
  EXPECT_THROW(mem_.LoadWord(sealed, kBase), TrapException);
}

TEST_F(MemoryTest, MisalignedAccessTraps) {
  EXPECT_THROW(mem_.LoadWord(root_, kBase + 2), TrapException);
  EXPECT_THROW(mem_.StoreCap(root_, kBase + 4, root_), TrapException);
}

TEST_F(MemoryTest, CapabilityRoundTripKeepsTag) {
  const Capability value = root_.WithBounds(kBase + 0x200, 0x40);
  mem_.StoreCap(root_, kBase + 0x100, value);
  EXPECT_TRUE(mem_.TagAt(kBase + 0x100));
  const Capability loaded = mem_.LoadCap(root_, kBase + 0x100);
  EXPECT_TRUE(loaded.tag());
  EXPECT_EQ(loaded.base(), value.base());
  EXPECT_EQ(loaded.top(), value.top());
}

TEST_F(MemoryTest, PartialOverwriteClearsTag) {
  const Capability value = root_.WithBounds(kBase + 0x200, 0x40);
  mem_.StoreCap(root_, kBase + 0x100, value);
  mem_.StoreByte(root_, kBase + 0x103, 0xFF);  // corrupt one byte
  EXPECT_FALSE(mem_.TagAt(kBase + 0x100));
  const Capability loaded = mem_.LoadCap(root_, kBase + 0x100);
  EXPECT_FALSE(loaded.tag());  // forgery impossible: tag gone
}

TEST_F(MemoryTest, IntegerReadOfCapabilitySeesAddress) {
  const Capability value = root_.WithBounds(kBase + 0x280, 0x40);
  mem_.StoreCap(root_, kBase + 0x100, value);
  EXPECT_EQ(mem_.LoadWord(root_, kBase + 0x100), kBase + 0x280);
}

TEST_F(MemoryTest, LoadFilterUntagsRevokedCapability) {
  const Capability value = root_.WithBounds(kBase + 0x400, 0x40);
  mem_.StoreCap(root_, kBase + 0x100, value);
  // "Free" the object: set its revocation bits.
  mem_.revocation().SetRange(kBase + 0x400, 0x40, true);
  const Capability loaded = mem_.LoadCap(root_.WithPermissions(
                                             PermissionSet::ReadWriteGlobal()),
                                         kBase + 0x100);
  EXPECT_FALSE(loaded.tag());
}

// The end of a capability access is computed in 64 bits: with checks off
// (the ablation's baseline core) nothing else stops an access at the top of
// the address space from wrapping past sram_top() to a tiny end address.
TEST_F(MemoryTest, CapabilityAccessAtTheTopOfTheAddressSpaceTraps) {
  mem_.set_checks_enabled(false);  // so root_'s bounds do not trap first
  for (const bool store : {false, true}) {
    try {
      if (store) {
        mem_.StoreCap(root_, 0xFFFFFFF8, root_);
      } else {
        mem_.LoadCap(root_, 0xFFFFFFF8);
      }
      ADD_FAILURE() << (store ? "StoreCap" : "LoadCap") << " did not trap";
    } catch (const TrapException& e) {
      EXPECT_EQ(e.code(), TrapCode::kBoundsViolation);
    }
  }
}

TEST_F(MemoryTest, RevokedAuthorityUseTraps) {
  const Capability obj = root_.WithBounds(kBase + 0x400, 0x40)
                             .WithPermissions(PermissionSet::ReadWriteGlobal());
  mem_.revocation().SetRange(kBase + 0x400, 0x40, true);
  EXPECT_THROW(mem_.LoadWord(obj, kBase + 0x400), TrapException);
  // The allocator's revocation-exempt capability still works (§3.1.3).
  EXPECT_NO_THROW(mem_.LoadWord(root_, kBase + 0x400));
}

TEST_F(MemoryTest, DeepImmutabilityAppliedOnLoad) {
  const Capability inner = root_.WithBounds(kBase + 0x600, 0x40)
                               .WithPermissions(PermissionSet::ReadWriteGlobal());
  mem_.StoreCap(root_, kBase + 0x100, inner);
  const Capability lm_less =
      root_.WithPermissions(PermissionSet::ReadWriteGlobal())
          .WithoutPermission(Permission::kLoadMutable);
  const Capability loaded = mem_.LoadCap(lm_less, kBase + 0x100);
  ASSERT_TRUE(loaded.tag());
  EXPECT_FALSE(loaded.permissions().Has(Permission::kStore));
  EXPECT_THROW(mem_.StoreWord(loaded, kBase + 0x600, 1), TrapException);
}

TEST_F(MemoryTest, DeepNoCaptureAppliedOnLoad) {
  const Capability inner = root_.WithBounds(kBase + 0x600, 0x40)
                               .WithPermissions(PermissionSet::ReadWriteGlobal());
  mem_.StoreCap(root_, kBase + 0x100, inner);
  const Capability lg_less =
      root_.WithPermissions(PermissionSet::ReadWriteGlobal())
          .WithoutPermission(Permission::kLoadGlobal);
  const Capability loaded = mem_.LoadCap(lg_less, kBase + 0x100);
  ASSERT_TRUE(loaded.tag());
  EXPECT_FALSE(loaded.permissions().Has(Permission::kGlobal));
  // ... and being local, it cannot be stored through a non-stack authority.
  const Capability globals_like =
      root_.WithPermissions(PermissionSet::ReadWriteGlobal());
  EXPECT_THROW(mem_.StoreCap(globals_like, kBase + 0x108, loaded),
               TrapException);
}

TEST_F(MemoryTest, StoreLocalAllowsStackSpills) {
  const Capability local = root_.WithBounds(kBase + 0x700, 0x40)
                               .WithPermissions(PermissionSet::ReadWriteGlobal())
                               .WithoutPermission(Permission::kGlobal);
  const Capability stack =
      root_.WithBounds(kBase + 0x800, 0x100)
          .WithPermissions(PermissionSet::Stack());
  EXPECT_NO_THROW(mem_.StoreCap(stack, kBase + 0x800, local));
  const Capability reloaded = mem_.LoadCap(stack, kBase + 0x800);
  EXPECT_TRUE(reloaded.tag());
}

TEST_F(MemoryTest, ZeroRangeClearsDataAndTags) {
  mem_.StoreWord(root_, kBase + 0x100, 0xFFFFFFFF);
  mem_.StoreCap(root_, kBase + 0x108, root_);
  mem_.ZeroRange(root_, kBase + 0x100, 0x20);
  EXPECT_EQ(mem_.LoadWord(root_, kBase + 0x100), 0u);
  EXPECT_FALSE(mem_.TagAt(kBase + 0x108));
}

TEST_F(MemoryTest, ZeroRangeCostScalesWithSize) {
  const Cycles c0 = clock_.now();
  mem_.ZeroRange(root_, kBase + 0x1000, 256);
  const Cycles small = clock_.now() - c0;
  const Cycles c1 = clock_.now();
  mem_.ZeroRange(root_, kBase + 0x2000, 2048);
  const Cycles large = clock_.now() - c1;
  EXPECT_GT(large, small * 4);
}

TEST_F(MemoryTest, MmioDispatch) {
  Word reg = 0;
  mem_.AddMmioRegion(0x10000000, 0x100, [&](Address off, bool store, Word v) {
    if (store) {
      reg = v;
      return 0u;
    }
    return reg + off;
  });
  const Capability dev = Capability::RootReadWrite(0x10000000, 0x10000100);
  mem_.StoreWord(dev, 0x10000000, 42);
  EXPECT_EQ(reg, 42u);
  EXPECT_EQ(mem_.LoadWord(dev, 0x10000004), 46u);
}

TEST_F(MemoryTest, MmioRequiresCapabilityAuthority) {
  mem_.AddMmioRegion(0x10000000, 0x100, [](Address, bool, Word) { return 0u; });
  const Capability other_dev = Capability::RootReadWrite(0x10001000, 0x10001100);
  EXPECT_THROW(mem_.LoadWord(other_dev, 0x10000000), TrapException);
}

TEST_F(MemoryTest, BulkReadWrite) {
  const char msg[] = "capability machine";
  mem_.WriteBytes(root_, kBase + 0x300, msg, sizeof(msg));
  char out[sizeof(msg)] = {};
  mem_.ReadBytes(root_, kBase + 0x300, out, sizeof(msg));
  EXPECT_STREQ(out, msg);
}

// Parameterized sweep: every access size respects bounds exactly.
class EdgeSweep : public ::testing::TestWithParam<int> {};

TEST_P(EdgeSweep, ExactBoundaries) {
  CycleClock clock;
  Memory mem(kBase, kSize, &clock);
  const Capability root = Capability::RootReadWrite(kBase, kBase + kSize);
  const Address len = GetParam();
  const Capability window = root.WithBounds(kBase + 0x1000, len);
  // Last valid byte works; one past traps.
  if (len >= 1) {
    EXPECT_NO_THROW(mem.LoadByte(window, kBase + 0x1000 + len - 1));
  }
  EXPECT_THROW(mem.LoadByte(window, kBase + 0x1000 + len), TrapException);
  if (len >= 4) {
    EXPECT_NO_THROW(mem.LoadWord(window, kBase + 0x1000 + ((len - 4) & ~3u)));
  } else {
    EXPECT_THROW(mem.LoadWord(window, kBase + 0x1000), TrapException);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, EdgeSweep,
                         ::testing::Values(1, 2, 3, 4, 7, 8, 12, 16, 64, 4096));

// --- Host footprint ---------------------------------------------------------

// Number of host pages of [begin, end) that are resident, over the whole
// pages inside the range.
size_t ResidentPages(const uint8_t* begin, const uint8_t* end) {
  const uintptr_t page = static_cast<uintptr_t>(sysconf(_SC_PAGESIZE));
  const uintptr_t first =
      (reinterpret_cast<uintptr_t>(begin) + page - 1) & ~(page - 1);
  const uintptr_t last = reinterpret_cast<uintptr_t>(end) & ~(page - 1);
  if (last <= first) {
    return 0;
  }
  std::vector<unsigned char> vec((last - first) / page);
  EXPECT_EQ(mincore(reinterpret_cast<void*>(first), last - first, vec.data()),
            0);
  size_t resident = 0;
  for (unsigned char v : vec) {
    resident += v & 1;
  }
  return resident;
}

TEST(MemoryFootprintTest, FreshMachineHasNoResidentSram) {
  Machine machine;
  Memory& mem = machine.memory();
  uint8_t* sram = mem.raw(mem.sram_base());
  EXPECT_EQ(ResidentPages(sram, sram + mem.sram_size()), 0u);
}

// Boot writes code fill, metadata, the sealed objects and the allocator's
// first chunk header; the rest of the heap stays unbacked until the guest
// allocates from it.
TEST(MemoryFootprintTest, BootedNetworkedImageHasNoResidentHeapPage) {
  Machine machine;
  System system(machine,
                sim::BuildFleetAppImage(std::make_shared<sim::FleetAppState>()));
  system.Boot();
  Memory& mem = machine.memory();
  const BootInfo& boot = system.boot();
  ASSERT_GT(boot.heap_size, 64u * 1024);
  const uint8_t* header = mem.raw(AlignUp(boot.heap_base, kGranuleBytes));
  EXPECT_EQ(ResidentPages(header + 16, mem.raw(mem.sram_base()) +
                                           mem.sram_size()),
            0u);
}

// The capability shadow is paged (512 granules to a page, allocated at the
// first tagged store): granules at both edges of a page and of SRAM keep
// their capabilities, lose them to a data store, and the revoker still finds
// a freed one.
TEST(MemoryFootprintTest, ShadowPagesKeepCapabilitiesAtPageEdges) {
  Machine machine;
  Memory& mem = machine.memory();
  const Address base = mem.sram_base();
  const Capability root = Capability::RootReadWrite(base, mem.sram_top());
  ASSERT_EQ(mem.GranuleCount(), 32768u);
  const size_t granules[] = {0, 511, 512, 32767};
  std::vector<Capability> objects;
  for (size_t i = 0; i < 4; ++i) {
    objects.push_back(root.WithBounds(base + 0x10000 + 0x100 * i, 0x40));
  }
  auto store_all = [&] {
    for (size_t i = 0; i < 4; ++i) {
      mem.StoreCap(root, base + granules[i] * kGranuleBytes, objects[i]);
    }
  };

  EXPECT_EQ(mem.GranuleCap(1024), Capability());  // a page never stored into
  store_all();
  for (size_t i = 0; i < 4; ++i) {
    const Address slot = base + granules[i] * kGranuleBytes;
    EXPECT_TRUE(mem.TagAt(slot)) << granules[i];
    EXPECT_EQ(mem.GranuleCap(granules[i]), objects[i]) << granules[i];
    EXPECT_EQ(mem.LoadCap(root, slot), objects[i]) << granules[i];
  }

  for (size_t i = 0; i < 4; ++i) {
    const Address slot = base + granules[i] * kGranuleBytes;
    mem.StoreByte(root, slot + 7, 0xFF);
    EXPECT_FALSE(mem.TagAt(slot)) << granules[i];
    EXPECT_FALSE(mem.LoadCap(root, slot).tag()) << granules[i];
  }

  store_all();
  mem.revocation().SetRange(objects[2].base(), 0x40, true);
  machine.revoker().StartSweep();
  while (machine.revoker().sweeping()) {
    machine.Tick(10'000);
  }
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(mem.TagAt(base + granules[i] * kGranuleBytes), i != 2)
        << granules[i];
  }
}

}  // namespace
}  // namespace cheriot
