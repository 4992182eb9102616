// Tests for the boot loader: deterministic layout, capability-graph
// instantiation, import resolution, static sealed objects, and self-erase.
#include "src/loader/loader.h"

#include <gtest/gtest.h>

#include "src/hw/machine.h"

namespace cheriot {
namespace {

EntryFn Nop() {
  return [](CompartmentCtx&, const std::vector<Capability>&) {
    return Capability();
  };
}

FirmwareImage TwoCompartmentImage() {
  ImageBuilder b("loader-test");
  b.Compartment("a")
      .CodeSize(2048)
      .Globals(256)
      .Export("main", Nop(), 256)
      .ImportCompartment("b.service")
      .AllocCap("a_quota", 4096);
  b.Compartment("b")
      .CodeSize(1024)
      .Globals(128)
      .Export("service", Nop(), 128)
      .OwnSealingType("b.connections")
      .ImportMmio("uart", kUartMmioBase, kMmioRegionSize, true);
  b.Thread("main", 1, 1024, 4, "a.main");
  return b.Build();
}

TEST(Loader, LayoutIsDisjointAndInBounds) {
  Machine machine;
  auto boot = Loader::Load(machine, TwoCompartmentImage());
  const auto& a = boot->compartments[0];
  const auto& b = boot->compartments[1];
  EXPECT_EQ(a.name, "a");
  EXPECT_EQ(b.name, "b");
  // Code regions are disjoint.
  EXPECT_LE(a.code_base + a.code_size, b.code_base);
  // Globals are disjoint from code and from each other.
  EXPECT_NE(a.globals_base, b.globals_base);
  // Heap covers the tail of SRAM.
  EXPECT_EQ(boot->heap_base + boot->heap_size, machine.memory().sram_top());
  EXPECT_GT(boot->heap_size, 100u * 1024);  // most of the 256 KiB remains
}

TEST(Loader, CompartmentCapabilitiesAreBounded) {
  Machine machine;
  auto boot = Loader::Load(machine, TwoCompartmentImage());
  const auto& a = boot->compartments[0];
  EXPECT_TRUE(a.pcc.tag());
  EXPECT_TRUE(a.pcc.permissions().Has(Permission::kExecute));
  EXPECT_FALSE(a.pcc.permissions().Has(Permission::kStore));
  EXPECT_EQ(a.pcc.base(), a.code_base);
  EXPECT_EQ(a.pcc.length(), a.code_size);
  EXPECT_TRUE(a.cgp.tag());
  EXPECT_EQ(a.cgp.base(), a.globals_base);
  // Globals cannot hold stack-derived (local) capabilities (§2.1).
  EXPECT_FALSE(a.cgp.permissions().Has(Permission::kStoreLocal));
}

TEST(Loader, ImportTableHasSealedExportCapability) {
  Machine machine;
  auto boot = Loader::Load(machine, TwoCompartmentImage());
  const auto& a = boot->compartments[0];
  ASSERT_EQ(a.imports.size(), 2u);  // b.service + alloc cap
  const auto& call = a.imports[0];
  EXPECT_EQ(call.kind, ImportBinding::Kind::kCompartmentCall);
  EXPECT_EQ(call.qualified_name, "b.service");
  EXPECT_TRUE(call.cap.tag());
  EXPECT_TRUE(call.cap.IsSealed());
  EXPECT_EQ(call.cap.otype(), OType::kSwitcherCompartment);
  EXPECT_EQ(call.target_compartment, 1);
  // Unsealable only with the switcher's key.
  EXPECT_TRUE(call.cap.UnsealedWith(boot->switcher_seal_key).tag());
  EXPECT_FALSE(call.cap.UnsealedWith(boot->token_seal_key).tag());
}

TEST(Loader, AllocationCapabilityIsSealedOpaqueObject) {
  Machine machine;
  auto boot = Loader::Load(machine, TwoCompartmentImage());
  const auto& quota = boot->compartments[0].imports[1];
  EXPECT_EQ(quota.kind, ImportBinding::Kind::kSealedObject);
  EXPECT_TRUE(quota.cap.IsSealed());
  EXPECT_EQ(quota.cap.otype(), OType::kAllocatorQuota);
  const Capability unsealed =
      quota.cap.UnsealedWith(boot->allocator_seal_key);
  ASSERT_TRUE(unsealed.tag());
  EXPECT_EQ(machine.memory().RawLoadWord(unsealed.base()), 0x414C4F43u);
  EXPECT_EQ(machine.memory().RawLoadWord(unsealed.base() + 4), 4096u);
}

TEST(Loader, MmioImportGrantsDeviceAccessOnly) {
  Machine machine;
  auto boot = Loader::Load(machine, TwoCompartmentImage());
  const auto& b = boot->compartments[1];
  const ImportBinding* mmio = nullptr;
  for (const auto& imp : b.imports) {
    if (imp.kind == ImportBinding::Kind::kMmio) {
      mmio = &imp;
    }
  }
  ASSERT_NE(mmio, nullptr);
  EXPECT_EQ(mmio->cap.base(), kUartMmioBase);
  EXPECT_EQ(mmio->cap.length(), kMmioRegionSize);
  EXPECT_FALSE(mmio->cap.permissions().Has(Permission::kLoadStoreCap));
}

TEST(Loader, SealingTypeOwnershipYieldsKey) {
  Machine machine;
  auto boot = Loader::Load(machine, TwoCompartmentImage());
  const auto& b = boot->compartments[1];
  const ImportBinding* key = nullptr;
  for (const auto& imp : b.imports) {
    if (imp.kind == ImportBinding::Kind::kSealingKey) {
      key = &imp;
    }
  }
  ASSERT_NE(key, nullptr);
  EXPECT_TRUE(key->cap.permissions().Has(Permission::kSeal));
  EXPECT_TRUE(key->cap.permissions().Has(Permission::kUnseal));
  EXPECT_GE(key->cap.cursor(), 16u);  // virtual, above hardware otypes
}

TEST(Loader, ThreadLayoutResolved) {
  Machine machine;
  auto boot = Loader::Load(machine, TwoCompartmentImage());
  ASSERT_EQ(boot->threads.size(), 1u);
  const auto& t = boot->threads[0];
  EXPECT_EQ(t.entry_compartment, 0);
  EXPECT_EQ(t.entry_export, 0);
  EXPECT_EQ(t.stack_size, 1024u);
  EXPECT_GT(t.trusted_stack_size, 0u);
}

TEST(Loader, UnknownImportRejected) {
  ImageBuilder b("bad");
  b.Compartment("a").Export("main", Nop()).ImportCompartment("ghost.fn");
  b.Thread("t", 1, 512, 4, "a.main");
  Machine machine;
  EXPECT_THROW(Loader::Load(machine, b.Build()), std::invalid_argument);
}

TEST(Loader, UnknownThreadEntryRejected) {
  ImageBuilder b("bad");
  b.Compartment("a").Export("main", Nop());
  b.Thread("t", 1, 512, 4, "a.nonexistent");
  Machine machine;
  EXPECT_THROW(Loader::Load(machine, b.Build()), std::invalid_argument);
}

TEST(Loader, DuplicateExportRejected) {
  ImageBuilder b("bad");
  auto c = b.Compartment("a");
  c.Export("main", Nop());
  EXPECT_THROW(c.Export("main", Nop()), std::invalid_argument);
}

TEST(Loader, OversizedImageRejected) {
  ImageBuilder b("huge");
  b.Compartment("a").CodeSize(400 * 1024).Export("main", Nop());
  b.Thread("t", 1, 512, 4, "a.main");
  Machine machine;
  EXPECT_THROW(Loader::Load(machine, b.Build()), std::invalid_argument);
}

TEST(Loader, HeapIsZeroedAtBoot) {
  Machine machine;
  auto boot = Loader::Load(machine, TwoCompartmentImage());
  // Spot-check the heap region (which includes the erased loader scratch).
  for (Address a = boot->heap_base; a < boot->heap_base + 1024; a += 4) {
    EXPECT_EQ(machine.memory().RawLoadWord(a), 0u);
  }
}

// Table 2's per-compartment-overhead images have compartments without
// globals; their snapshot is empty (under UBSan, copying into it must not
// pass a null destination).
TEST(Loader, CompartmentWithoutGlobalsHasAnEmptySnapshot) {
  ImageBuilder b("no-globals");
  b.Compartment("a").CodeSize(512).Globals(0).Export("main", Nop(), 256);
  b.Compartment("b").CodeSize(512).Globals(32).Export("main", Nop(), 256);
  b.Thread("main", 1, 1024, 4, "a.main");
  Machine machine;
  auto boot = Loader::Load(machine, b.Build());
  EXPECT_TRUE(boot->compartments[0].globals_snapshot.empty());
  EXPECT_EQ(boot->compartments[1].globals_snapshot.size(), 32u);
}

TEST(Loader, PerCompartmentMetadataIsSmall) {
  Machine machine;
  auto boot = Loader::Load(machine, TwoCompartmentImage());
  // Per-compartment metadata should be tens of bytes (paper: 83 B).
  for (const auto& [name, bytes] : boot->stats.per_compartment_metadata) {
    EXPECT_LT(bytes, 200u) << name;
    EXPECT_GT(bytes, 20u) << name;
  }
}

TEST(Loader, DeterministicLayout) {
  Machine m1, m2;
  auto b1 = Loader::Load(m1, TwoCompartmentImage());
  auto b2 = Loader::Load(m2, TwoCompartmentImage());
  EXPECT_EQ(b1->heap_base, b2->heap_base);
  EXPECT_EQ(b1->compartments[0].code_base, b2->compartments[0].code_base);
  EXPECT_EQ(b1->compartments[1].export_table, b2->compartments[1].export_table);
}

}  // namespace
}  // namespace cheriot
