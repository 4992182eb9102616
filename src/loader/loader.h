// The boot loader (§3.1.1): consumes the firmware image, lays out SRAM
// deterministically, and refines the omnipotent root capabilities into the
// system's entire initial capability graph — compartment PCC/CGP pairs,
// export tables, import tables (sealed export capabilities, MMIO grants,
// library sentries, static sealed objects, allocation capabilities), thread
// stacks and trusted stacks. Its scratch region then becomes part of the
// shared heap, zero like all SRAM the loader did not write: it only ever runs
// on a fresh Machine.
#ifndef SRC_LOADER_LOADER_H_
#define SRC_LOADER_LOADER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/firmware/image.h"
#include "src/hw/machine.h"

namespace cheriot {

// Sizes of the metadata records the loader materializes. These determine the
// per-compartment memory overhead measured in Table 2 (§5.3.1).
inline constexpr Address kExportTableHeaderBytes = 16;
inline constexpr Address kExportEntryBytes = 8;
inline constexpr Address kImportEntryBytes = 8;
inline constexpr Address kCompartmentDescriptorBytes = 24;  // PCC+CGP+handler
inline constexpr Address kTrustedStackHeaderBytes = 16;
inline constexpr Address kRegisterSaveAreaBytes = 128;  // 16 caps x 8 B
inline constexpr Address kTrustedStackFrameBytes = 16;
inline constexpr Address kSealedObjectHeaderBytes = 8;  // virtual otype + size

// One resolved import-table slot.
struct ImportBinding {
  enum class Kind : uint8_t {
    kCompartmentCall,  // sealed capability to a callee export-table entry
    kLibraryCall,      // sentry capability to a shared-library function
    kMmio,             // capability to device registers
    kSealedObject,     // static sealed object (e.g. an allocation capability)
    kSealingKey,       // (un)sealing authority for an owned virtual type
  };
  Kind kind;
  std::string qualified_name;  // "callee.export", device or object name
  Capability cap;
  int target_compartment = -1;  // callee index for kCompartmentCall
  int target_library = -1;      // library index for kLibraryCall
  int target_export = -1;       // export index within the target
  Address slot_address = 0;     // where this entry lives in the import table
};

// Per-compartment runtime state assembled at boot.
struct CompartmentRuntime {
  int id = -1;
  std::string name;
  Capability pcc;
  Capability cgp;
  Address code_base = 0;
  uint32_t code_size = 0;
  Address globals_base = 0;
  uint32_t globals_size = 0;
  Address export_table = 0;
  Address import_table = 0;
  std::vector<ImportBinding> imports;
  const CompartmentDef* def = nullptr;
  // Native state object (model analog of compartment globals); re-created on
  // micro-reboot.
  std::shared_ptr<void> state;
  // Micro-reboot bookkeeping.
  bool call_guard_closed = false;  // §3.2.6 step 1
  uint32_t reboot_count = 0;
  Cycles last_reboot_at = 0;
  Cycles last_reboot_duration = 0;
  std::vector<uint8_t> globals_snapshot;  // pristine globals (step 4)
};

struct LibraryRuntime {
  int id = -1;
  std::string name;
  Capability code_cap;
  Address code_base = 0;
  uint32_t code_size = 0;
  const LibraryDef* def = nullptr;
};

// Thread layout (stacks are created by the loader; scheduling state lives in
// the kernel).
struct ThreadLayout {
  std::string name;
  uint16_t priority = 0;
  Address stack_base = 0;
  uint32_t stack_size = 0;
  Address trusted_stack_base = 0;
  uint32_t trusted_stack_size = 0;
  uint16_t max_frames = 0;
  int entry_compartment = -1;
  int entry_export = -1;
};

// Byte accounting for Table 2 / EXPERIMENTS.md.
struct LayoutStats {
  Address code_bytes = 0;
  Address metadata_bytes = 0;  // descriptors + export/import tables
  Address sealed_object_bytes = 0;
  Address globals_bytes = 0;
  Address stack_bytes = 0;
  Address trusted_stack_bytes = 0;
  Address loader_scratch_bytes = 0;
  Address heap_bytes = 0;
  // Per-compartment metadata contribution (descriptor + export table +
  // import entries), keyed by compartment name.
  std::map<std::string, Address> per_compartment_metadata;
};

struct BootInfo {
  std::vector<CompartmentRuntime> compartments;
  std::vector<LibraryRuntime> libraries;
  std::vector<ThreadLayout> threads;
  Address heap_base = 0;
  Address heap_size = 0;
  // Privileged capabilities retained by the TCB after boot.
  Capability heap_root;            // allocator: revocation-exempt heap access
  Capability trusted_stack_root;   // switcher only
  Capability switcher_seal_key;    // hardware otype 9
  Capability allocator_seal_key;   // hardware otype 10
  Capability token_seal_key;       // hardware otype 11
  Capability globals_root;         // switcher: for micro-reboot globals reset
  // Virtual sealing types (token API): name -> type id (ids >= 16).
  std::map<std::string, uint32_t> virtual_type_ids;
  uint32_t next_virtual_type_id = 16;
  // Map from export-table address to compartment id (switcher's view).
  std::map<Address, int> export_table_index;
  LayoutStats stats;
  FirmwareImage image;  // retained for auditing

  CompartmentRuntime* FindCompartment(const std::string& name);
  int CompartmentIndex(const std::string& name) const;
};

class Loader {
 public:
  // Runs the boot sequence. Throws std::invalid_argument on malformed
  // images (unresolvable imports, duplicate names, oversized layouts) —
  // the loader is "simple code with a lot of invariant checks" (§3.1.1).
  // The machine must be fresh: no cycle elapsed and no access made (a
  // CHERIOT_CHECK), so every byte it does not write is still zero.
  static std::unique_ptr<BootInfo> Load(Machine& machine, FirmwareImage image);
};

namespace snap {
class Writer;
}  // namespace snap

// Snapshot serialisation of the boot-time capability graph (DESIGN.md §10).
// Everything the loader computed is written EXCEPT the host-side handles:
// CompartmentRuntime::def/state and LibraryRuntime::def point into the
// firmware image's native closures, which cannot cross a snapshot. The
// mutable micro-reboot bookkeeping (call_guard_closed, reboot counts) is
// owned by the kernel section, not written here, so the BOOT section of a
// long-running board stays byte-identical to its post-boot form.
void SerializeBootInfo(snap::Writer& w, const BootInfo& boot);

}  // namespace cheriot

#endif  // SRC_LOADER_LOADER_H_
