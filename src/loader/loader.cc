#include "src/loader/loader.h"

#include <cstring>
#include <stdexcept>

#include "src/base/log.h"
#include "src/snap/wire.h"

namespace cheriot {

namespace {

// Splits "compartment.export" into its two parts.
std::pair<std::string, std::string> SplitQualified(const std::string& q) {
  const size_t dot = q.find('.');
  if (dot == std::string::npos || dot == 0 || dot + 1 == q.size()) {
    throw std::invalid_argument("malformed qualified import name: " + q);
  }
  return {q.substr(0, dot), q.substr(dot + 1)};
}

int FindExport(const std::vector<ExportDef>& exports, const std::string& name) {
  for (size_t i = 0; i < exports.size(); ++i) {
    if (exports[i].name == name) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

}  // namespace

CompartmentRuntime* BootInfo::FindCompartment(const std::string& name) {
  for (auto& c : compartments) {
    if (c.name == name) {
      return &c;
    }
  }
  return nullptr;
}

int BootInfo::CompartmentIndex(const std::string& name) const {
  for (size_t i = 0; i < compartments.size(); ++i) {
    if (compartments[i].name == name) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

std::unique_ptr<BootInfo> Loader::Load(Machine& machine, FirmwareImage image) {
  auto boot = std::make_unique<BootInfo>();
  Memory& mem = machine.memory();
  const Address sram_base = mem.sram_base();
  const Address sram_top = mem.sram_top();

  // The loader holds the omnipotent roots (§3.1.1). These never escape this
  // function except as refined capabilities.
  const Capability root_rw = Capability::RootReadWrite(sram_base, sram_top);
  const Capability root_x = Capability::RootExecute(sram_base, sram_top);
  const Capability root_seal = Capability::RootSealing();

  // --- Invariant checks -----------------------------------------------
  for (size_t i = 0; i < image.compartments.size(); ++i) {
    for (size_t j = i + 1; j < image.compartments.size(); ++j) {
      if (image.compartments[i].name == image.compartments[j].name) {
        throw std::invalid_argument("duplicate compartment: " +
                                    image.compartments[i].name);
      }
    }
  }
  for (const auto& lib : image.libraries) {
    // Shared libraries must have no mutable globals (§3); in this model
    // libraries simply have no globals at all, so the invariant is
    // structural. Entry-point definitions are still validated.
    if (lib.exports.empty()) {
      LOG_WARN("library %s exports nothing", lib.name.c_str());
    }
  }

  Address cursor = sram_base + 64;  // reserved vector space

  auto reserve = [&](Address size, Address align) {
    cursor = AlignUp(cursor, align);
    const Address at = cursor;
    if (static_cast<uint64_t>(cursor) + size > sram_top) {
      throw std::invalid_argument("firmware image does not fit in SRAM");
    }
    cursor += size;
    return at;
  };

  // --- Code region -------------------------------------------------------
  // Code bytes are modelled (0xCE fill); PCC bounds and auditing are real.
  for (size_t i = 0; i < image.compartments.size(); ++i) {
    CompartmentRuntime rt;
    rt.id = static_cast<int>(i);
    rt.name = image.compartments[i].name;
    rt.code_size = image.compartments[i].code_size;
    rt.code_base = reserve(rt.code_size, 16);
    std::memset(mem.raw(rt.code_base), 0xCE, rt.code_size);
    boot->compartments.push_back(std::move(rt));
    boot->stats.code_bytes += image.compartments[i].code_size;
  }
  for (size_t i = 0; i < image.libraries.size(); ++i) {
    LibraryRuntime lib;
    lib.id = static_cast<int>(i);
    lib.name = image.libraries[i].name;
    lib.code_size = image.libraries[i].code_size;
    lib.code_base = reserve(lib.code_size, 16);
    std::memset(mem.raw(lib.code_base), 0xCE, lib.code_size);
    lib.code_cap = root_x.WithBounds(lib.code_base, lib.code_size);
    boot->libraries.push_back(std::move(lib));
    boot->stats.code_bytes += image.libraries[i].code_size;
  }

  // --- Metadata region: descriptors, export tables, import tables --------
  for (size_t i = 0; i < image.compartments.size(); ++i) {
    auto& rt = boot->compartments[i];
    const auto& def = image.compartments[i];
    Address meta = 0;
    meta += kCompartmentDescriptorBytes;
    rt.export_table = reserve(
        kExportTableHeaderBytes + kExportEntryBytes * def.exports.size(), 8);
    meta += kExportTableHeaderBytes + kExportEntryBytes * def.exports.size();
    const size_t import_count =
        def.compartment_imports.size() + def.library_imports.size() +
        def.mmio_imports.size() + def.alloc_caps.size() +
        def.sealed_objects.size() + def.sealing_types_owned.size();
    rt.import_table = reserve(kImportEntryBytes * import_count, 8);
    reserve(kCompartmentDescriptorBytes, 8);
    meta += kImportEntryBytes * import_count;
    boot->stats.metadata_bytes += meta;
    boot->stats.per_compartment_metadata[rt.name] = static_cast<Address>(meta);
    boot->export_table_index[rt.export_table] = rt.id;
  }

  // --- Static sealed objects region ---------------------------------------
  // Two kinds: allocation capabilities (allocator otype) and user-defined
  // sealed objects (token otype + virtual type header). Payload addresses
  // are assigned now, contents written after all regions are placed.
  struct PendingSealed {
    int compartment;
    bool is_alloc_cap;
    size_t index;  // into alloc_caps or sealed_objects
    Address payload;
    uint32_t size;
  };
  std::vector<PendingSealed> pending_sealed;
  uint32_t quota_id_counter = 0;
  for (size_t i = 0; i < image.compartments.size(); ++i) {
    const auto& def = image.compartments[i];
    for (size_t k = 0; k < def.alloc_caps.size(); ++k) {
      const Address at = reserve(16, 8);
      pending_sealed.push_back({static_cast<int>(i), true, k, at, 16});
      boot->stats.sealed_object_bytes += 16;
      (void)quota_id_counter;
    }
    for (size_t k = 0; k < def.sealed_objects.size(); ++k) {
      const uint32_t size = kSealedObjectHeaderBytes +
                            static_cast<uint32_t>(
                                AlignUp(static_cast<Address>(
                                            def.sealed_objects[k].payload.size()),
                                        kGranuleBytes));
      const Address at = reserve(size, 8);
      pending_sealed.push_back({static_cast<int>(i), false, k, at, size});
      boot->stats.sealed_object_bytes += size;
    }
  }

  // --- Globals -------------------------------------------------------------
  for (size_t i = 0; i < image.compartments.size(); ++i) {
    auto& rt = boot->compartments[i];
    rt.globals_size = image.compartments[i].globals_size;
    rt.globals_base = reserve(rt.globals_size, 8);
    std::memset(mem.raw(rt.globals_base), 0, rt.globals_size);
    boot->stats.globals_bytes += rt.globals_size;
  }

  // --- Thread stacks and trusted stacks ------------------------------------
  for (const auto& tdef : image.threads) {
    ThreadLayout t;
    t.name = tdef.name;
    t.priority = tdef.priority;
    t.stack_size = AlignUp(tdef.stack_size, kGranuleBytes);
    t.stack_base = reserve(t.stack_size, kGranuleBytes);
    std::memset(mem.raw(t.stack_base), 0, t.stack_size);
    t.max_frames = tdef.trusted_stack_frames;
    t.trusted_stack_size =
        AlignUp(kTrustedStackHeaderBytes + kRegisterSaveAreaBytes +
                    kTrustedStackFrameBytes * tdef.trusted_stack_frames,
                kGranuleBytes);
    t.trusted_stack_base = reserve(t.trusted_stack_size, kGranuleBytes);
    const auto [comp_name, export_name] = SplitQualified(tdef.entry);
    t.entry_compartment = boot->CompartmentIndex(comp_name);
    if (t.entry_compartment < 0) {
      throw std::invalid_argument("thread entry compartment not found: " +
                                  comp_name);
    }
    t.entry_export = FindExport(
        image.compartments[t.entry_compartment].exports, export_name);
    if (t.entry_export < 0) {
      throw std::invalid_argument("thread entry export not found: " +
                                  tdef.entry);
    }
    boot->stats.stack_bytes += t.stack_size;
    boot->stats.trusted_stack_bytes += t.trusted_stack_size;
    boot->threads.push_back(t);
  }

  // --- Loader scratch + heap ------------------------------------------------
  // The loader and the firmware metadata it consumes live in SRAM that is
  // erased after boot and becomes heap (§3.1.1). Scratch is proportional to
  // the amount of metadata processed.
  const Address scratch_size = AlignUp(
      512 + 64 * static_cast<Address>(image.compartments.size() +
                                      image.libraries.size()),
      kGranuleBytes);
  const Address scratch_base = reserve(scratch_size, kGranuleBytes);
  boot->stats.loader_scratch_bytes = scratch_size;

  boot->heap_base = scratch_base;  // scratch is erased into the heap below
  boot->heap_size = sram_top - boot->heap_base;
  boot->stats.heap_bytes = boot->heap_size;

  // --- Privileged capabilities ----------------------------------------------
  boot->heap_root =
      root_rw.WithBounds(boot->heap_base, boot->heap_size)
          .WithPermissions(PermissionSet::All()
                               .Without(Permission::kExecute)
                               .Without(Permission::kSeal)
                               .Without(Permission::kUnseal));
  boot->switcher_seal_key = root_seal.WithAddress(
      static_cast<Address>(OType::kSwitcherCompartment));
  boot->allocator_seal_key =
      root_seal.WithAddress(static_cast<Address>(OType::kAllocatorQuota));
  boot->token_seal_key =
      root_seal.WithAddress(static_cast<Address>(OType::kTokenApi));
  boot->globals_root = root_rw;  // switcher-held, for globals reset + stacks

  // Trusted stacks are accessible exclusively to the switcher (§3.1.2).
  boot->trusted_stack_root = root_rw;

  // --- Compartment capability pairs -----------------------------------------
  for (size_t i = 0; i < image.compartments.size(); ++i) {
    auto& rt = boot->compartments[i];
    rt.def = &image.compartments[i];
    rt.pcc = root_x.WithBounds(rt.code_base, rt.code_size)
                 .WithoutPermission(Permission::kAccessSystemRegisters);
    rt.cgp = root_rw.WithBounds(rt.globals_base, rt.globals_size)
                 .WithPermissions(PermissionSet::ReadWriteGlobal())
                 // Globals may hold local (stack-derived) caps? No: only the
                 // stack has permit-store-local (§2.1), so CGP lacks it.
                 .WithoutPermission(Permission::kStoreLocal);
  }

  // --- Export tables ----------------------------------------------------------
  for (auto& rt : boot->compartments) {
    const auto& def = *rt.def;
    // Header: code-cap summary + compartment id (consumed by the switcher).
    mem.RawStoreWord(rt.export_table, rt.code_base);
    mem.RawStoreWord(rt.export_table + 4, static_cast<Word>(rt.id));
    mem.RawStoreWord(rt.export_table + 8, static_cast<Word>(def.exports.size()));
    mem.RawStoreWord(rt.export_table + 12, 0);
    for (size_t e = 0; e < def.exports.size(); ++e) {
      const Address entry =
          rt.export_table + kExportTableHeaderBytes +
          static_cast<Address>(e) * kExportEntryBytes;
      const auto& x = def.exports[e];
      mem.RawStoreWord(entry, (static_cast<Word>(x.min_stack_bytes) << 8) |
                                  x.arg_registers);
      mem.RawStoreWord(entry + 4, (static_cast<Word>(x.posture) << 16) |
                                      static_cast<Word>(e));
    }
  }

  // --- Virtual sealing type ids ----------------------------------------------
  for (const auto& def : image.compartments) {
    for (const auto& type_name : def.sealing_types_owned) {
      if (!boot->virtual_type_ids.count(type_name)) {
        boot->virtual_type_ids[type_name] = boot->next_virtual_type_id++;
      }
    }
    for (const auto& so : def.sealed_objects) {
      if (!boot->virtual_type_ids.count(so.sealing_type)) {
        boot->virtual_type_ids[so.sealing_type] = boot->next_virtual_type_id++;
      }
    }
  }

  // --- Static sealed object payloads ------------------------------------------
  uint32_t next_quota_id = 0;
  std::map<std::pair<int, size_t>, Capability> alloc_cap_caps;
  std::map<std::pair<int, size_t>, Capability> sealed_obj_caps;
  for (const auto& p : pending_sealed) {
    const auto& def = image.compartments[p.compartment];
    if (p.is_alloc_cap) {
      const auto& ac = def.alloc_caps[p.index];
      mem.RawStoreWord(p.payload, 0x414C4F43u);  // 'ALOC'
      mem.RawStoreWord(p.payload + 4, ac.quota_bytes);
      mem.RawStoreWord(p.payload + 8, 0);  // used
      mem.RawStoreWord(p.payload + 12, next_quota_id++);
      Capability c = root_rw.WithBounds(p.payload, 16)
                         .WithPermissions(PermissionSet::ReadWriteGlobal());
      alloc_cap_caps[{p.compartment, p.index}] =
          c.SealedAs(OType::kAllocatorQuota);
    } else {
      const auto& so = def.sealed_objects[p.index];
      const uint32_t vtype = boot->virtual_type_ids.at(so.sealing_type);
      mem.RawStoreWord(p.payload, vtype);
      mem.RawStoreWord(p.payload + 4, static_cast<Word>(so.payload.size()));
      if (!so.payload.empty()) {
        std::memcpy(mem.raw(p.payload + kSealedObjectHeaderBytes),
                    so.payload.data(), so.payload.size());
      }
      Capability c = root_rw.WithBounds(p.payload, p.size)
                         .WithPermissions(PermissionSet::ReadWriteGlobal());
      sealed_obj_caps[{p.compartment, p.index}] = c.SealedAs(OType::kTokenApi);
    }
  }

  // --- Import tables ------------------------------------------------------------
  for (auto& rt : boot->compartments) {
    const auto& def = *rt.def;
    Address slot = rt.import_table;
    auto push = [&](ImportBinding b) {
      b.slot_address = slot;
      slot += kImportEntryBytes;
      rt.imports.push_back(std::move(b));
    };

    for (const auto& q : def.compartment_imports) {
      const auto [callee_name, export_name] = SplitQualified(q);
      const int callee = boot->CompartmentIndex(callee_name);
      if (callee < 0) {
        throw std::invalid_argument(rt.name + " imports unknown compartment: " + q);
      }
      const int exp =
          FindExport(image.compartments[callee].exports, export_name);
      if (exp < 0) {
        throw std::invalid_argument(rt.name + " imports unknown export: " + q);
      }
      // Sealed capability into the callee's export table: base points at the
      // table, cursor at the entry (§3.1.2).
      Capability raw =
          root_rw
              .WithBounds(boot->compartments[callee].export_table,
                          kExportTableHeaderBytes +
                              kExportEntryBytes *
                                  image.compartments[callee].exports.size())
              .WithPermissions(PermissionSet::ReadOnlyGlobal());
      raw = raw.WithAddress(boot->compartments[callee].export_table +
                            kExportTableHeaderBytes +
                            static_cast<Address>(exp) * kExportEntryBytes);
      ImportBinding b;
      b.kind = ImportBinding::Kind::kCompartmentCall;
      b.qualified_name = q;
      b.cap = raw.SealedAs(OType::kSwitcherCompartment);
      b.target_compartment = callee;
      b.target_export = exp;
      push(std::move(b));
    }

    for (const auto& q : def.library_imports) {
      const auto [lib_name, export_name] = SplitQualified(q);
      int lib = -1;
      for (const auto& l : boot->libraries) {
        if (l.name == lib_name) {
          lib = l.id;
        }
      }
      if (lib < 0) {
        throw std::invalid_argument(rt.name + " imports unknown library: " + q);
      }
      const int exp = FindExport(image.libraries[lib].exports, export_name);
      if (exp < 0) {
        throw std::invalid_argument(rt.name + " imports unknown library export: " + q);
      }
      const auto posture = image.libraries[lib].exports[exp].posture;
      OType sentry_type = OType::kSentryInheriting;
      if (posture == InterruptPosture::kEnabled) {
        sentry_type = OType::kSentryEnabling;
      } else if (posture == InterruptPosture::kDisabled) {
        sentry_type = OType::kSentryDisabling;
      }
      ImportBinding b;
      b.kind = ImportBinding::Kind::kLibraryCall;
      b.qualified_name = q;
      b.cap = boot->libraries[lib].code_cap.SealedAs(sentry_type);
      b.target_library = lib;
      b.target_export = exp;
      push(std::move(b));
    }

    for (const auto& m : def.mmio_imports) {
      PermissionSet perms({Permission::kGlobal, Permission::kLoad});
      if (m.writeable) {
        perms = perms.With(Permission::kStore);
      }
      Capability dev;
      {
        // MMIO is outside SRAM; derive a fresh root over device space. Only
        // the loader may do this (guests cannot forge MMIO pointers, §3.1.1
        // footnote 2).
        Capability mmio_root = Capability::RootReadWrite(m.base, m.base + m.size);
        dev = mmio_root.WithPermissions(perms);
      }
      ImportBinding b;
      b.kind = ImportBinding::Kind::kMmio;
      b.qualified_name = m.device;
      b.cap = dev;
      push(std::move(b));
    }

    for (size_t k = 0; k < def.alloc_caps.size(); ++k) {
      ImportBinding b;
      b.kind = ImportBinding::Kind::kSealedObject;
      b.qualified_name = def.alloc_caps[k].name;
      b.cap = alloc_cap_caps.at({rt.id, k});
      push(std::move(b));
    }
    for (size_t k = 0; k < def.sealed_objects.size(); ++k) {
      ImportBinding b;
      b.kind = ImportBinding::Kind::kSealedObject;
      b.qualified_name = def.sealed_objects[k].name;
      b.cap = sealed_obj_caps.at({rt.id, k});
      push(std::move(b));
    }
    for (const auto& type_name : def.sealing_types_owned) {
      const uint32_t id = boot->virtual_type_ids.at(type_name);
      // A virtual sealing key: permit-seal/unseal authority whose cursor and
      // bounds designate the virtual type (§3.2.1). Virtual type ids live
      // above the hardware otype space.
      const Capability key = Capability::MakeSealingAuthority(id, 1);
      ImportBinding b;
      b.kind = ImportBinding::Kind::kSealingKey;
      b.qualified_name = type_name;
      b.cap = key;
      push(std::move(b));
    }

    // Materialize the import table in simulated memory (addresses only; the
    // full capabilities live in the shadow map via the root store).
    for (const auto& b : rt.imports) {
      mem.RawStoreWord(b.slot_address, b.cap.cursor());
      mem.RawStoreWord(b.slot_address + 4,
                       static_cast<Word>(b.kind) << 24 | (b.cap.length() & 0xFFFFFF));
    }
  }

  // --- Native state objects + globals snapshots -------------------------------
  for (auto& rt : boot->compartments) {
    if (rt.def->state_factory) {
      rt.state = rt.def->state_factory();
    }
    // assign, not memcpy: a compartment without globals has an empty
    // snapshot, whose null data() memcpy may not be given even for 0 bytes.
    const uint8_t* globals = mem.raw(rt.globals_base);
    rt.globals_snapshot.assign(globals, globals + rt.globals_size);
  }

  // --- Self-erase (§3.1.1): scratch becomes heap -------------------------------
  std::memset(mem.raw(scratch_base), 0, scratch_size);
  // Zero the whole heap: "we zero the entire heap on boot" (§3.1.3).
  std::memset(mem.raw(boot->heap_base), 0, boot->heap_size);

  boot->image = std::move(image);
  // Rebind def pointers to the retained image copy.
  for (size_t i = 0; i < boot->compartments.size(); ++i) {
    boot->compartments[i].def = &boot->image.compartments[i];
  }
  for (size_t i = 0; i < boot->libraries.size(); ++i) {
    boot->libraries[i].def = &boot->image.libraries[i];
  }
  return boot;
}

// --- Snapshot (DESIGN.md §10) ---------------------------------------------

void SerializeBootInfo(snap::Writer& w, const BootInfo& boot) {
  w.U32(static_cast<uint32_t>(boot.compartments.size()));
  for (const CompartmentRuntime& c : boot.compartments) {
    w.I32(c.id);
    w.Str(c.name);
    w.Cap(c.pcc);
    w.Cap(c.cgp);
    w.U32(c.code_base);
    w.U32(c.code_size);
    w.U32(c.globals_base);
    w.U32(c.globals_size);
    w.U32(c.export_table);
    w.U32(c.import_table);
    w.U32(static_cast<uint32_t>(c.imports.size()));
    for (const ImportBinding& b : c.imports) {
      w.U8(static_cast<uint8_t>(b.kind));
      w.Str(b.qualified_name);
      w.Cap(b.cap);
      w.I32(b.target_compartment);
      w.I32(b.target_library);
      w.I32(b.target_export);
      w.U32(b.slot_address);
    }
    w.U32(static_cast<uint32_t>(c.globals_snapshot.size()));
    w.Bytes(c.globals_snapshot.data(), c.globals_snapshot.size());
  }
  w.U32(static_cast<uint32_t>(boot.libraries.size()));
  for (const LibraryRuntime& l : boot.libraries) {
    w.I32(l.id);
    w.Str(l.name);
    w.Cap(l.code_cap);
    w.U32(l.code_base);
    w.U32(l.code_size);
  }
  w.U32(static_cast<uint32_t>(boot.threads.size()));
  for (const ThreadLayout& t : boot.threads) {
    w.Str(t.name);
    w.U16(t.priority);
    w.U32(t.stack_base);
    w.U32(t.stack_size);
    w.U32(t.trusted_stack_base);
    w.U32(t.trusted_stack_size);
    w.U16(t.max_frames);
    w.I32(t.entry_compartment);
    w.I32(t.entry_export);
  }
  w.U32(boot.heap_base);
  w.U32(boot.heap_size);
  w.Cap(boot.heap_root);
  w.Cap(boot.trusted_stack_root);
  w.Cap(boot.switcher_seal_key);
  w.Cap(boot.allocator_seal_key);
  w.Cap(boot.token_seal_key);
  w.Cap(boot.globals_root);
  w.U32(static_cast<uint32_t>(boot.virtual_type_ids.size()));
  for (const auto& [name, id] : boot.virtual_type_ids) {
    w.Str(name);
    w.U32(id);
  }
  w.U32(boot.next_virtual_type_id);
  w.U32(static_cast<uint32_t>(boot.export_table_index.size()));
  for (const auto& [addr, comp] : boot.export_table_index) {
    w.U32(addr);
    w.I32(comp);
  }
  w.U32(boot.stats.code_bytes);
  w.U32(boot.stats.metadata_bytes);
  w.U32(boot.stats.sealed_object_bytes);
  w.U32(boot.stats.globals_bytes);
  w.U32(boot.stats.stack_bytes);
  w.U32(boot.stats.trusted_stack_bytes);
  w.U32(boot.stats.loader_scratch_bytes);
  w.U32(boot.stats.heap_bytes);
  w.U32(static_cast<uint32_t>(boot.stats.per_compartment_metadata.size()));
  for (const auto& [name, bytes] : boot.stats.per_compartment_metadata) {
    w.Str(name);
    w.U32(bytes);
  }
}

}  // namespace cheriot
