// The CHERIoT capability value type (§2.1).
//
// A capability carries a cursor, bounds [base, top), a permission set, a seal
// otype and a tag. All derivation operations are rights-non-increasing;
// invalid derivations clear the tag rather than producing a more powerful
// capability. Untagged capabilities double as plain integers (the cursor is
// the value), matching the merged register file of the real ISA.
#ifndef SRC_CAP_CAPABILITY_H_
#define SRC_CAP_CAPABILITY_H_

#include <cstdint>
#include <string>

#include "src/base/types.h"
#include "src/cap/permissions.h"

namespace cheriot {

// Seal object types. The CHERIoT encoding reserves a handful of otypes for
// sentries (forward/backward control flow with interrupt posture, §2.1) and
// leaves seven usable data otypes — the scarcity that motivates the token
// API's virtualized sealing (§3.2.1).
enum class OType : uint8_t {
  kUnsealed = 0,
  // Forward sentries: unsealed by a jump; optionally switch interrupt status.
  kSentryInheriting = 1,
  kSentryEnabling = 2,
  kSentryDisabling = 3,
  // Backward (return) sentries: restore interrupt status on return.
  kReturnSentryEnabling = 4,
  kReturnSentryDisabling = 5,
  // Data sealing types 9..15 (7 usable). By RTOS convention the loader
  // reserves 9 for the switcher (sealed export-table entries), 10 for the
  // allocator (allocation capabilities), and 11 for the token API, which
  // virtualizes it into arbitrarily many software-defined types.
  kFirstData = 9,
  kSwitcherCompartment = 9,
  kAllocatorQuota = 10,
  kTokenApi = 11,
  kSchedulerState = 12,
  kLastData = 15,
};

inline constexpr bool IsSentryOType(OType t) {
  return t >= OType::kSentryInheriting && t <= OType::kReturnSentryDisabling;
}
inline constexpr bool IsDataOType(OType t) {
  return t >= OType::kFirstData && t <= OType::kLastData;
}

class Capability {
 public:
  // The default capability is the untagged null capability (integer 0).
  constexpr Capability() = default;

  // An untagged capability whose cursor is a plain integer value.
  static constexpr Capability FromWord(Word value) {
    Capability c;
    c.cursor_ = value;
    return c;
  }

  // --- Root capabilities (held only by the loader at boot, §3.1.1) ---
  static Capability RootReadWrite(Address base, Address top);
  static Capability RootExecute(Address base, Address top);
  static Capability RootSealing();
  // Sealing/unsealing authority over [first, first+count) type ids. Used by
  // the loader and the token service for *virtual* sealing types (ids >= 16,
  // outside the hardware otype space); TCB-only.
  static Capability MakeSealingAuthority(Address first, Address count);

  // --- Observers ---
  constexpr bool tag() const { return tag_; }
  constexpr Address cursor() const { return cursor_; }
  constexpr Word word() const { return cursor_; }
  constexpr Address base() const { return base_; }
  constexpr Address top() const { return top_; }  // exclusive
  constexpr Address length() const { return top_ - base_; }
  constexpr PermissionSet permissions() const { return perms_; }
  constexpr OType otype() const { return otype_; }
  constexpr bool IsSealed() const { return otype_ != OType::kUnsealed; }
  constexpr bool IsSentry() const { return IsSentryOType(otype_); }
  constexpr bool IsNull() const { return !tag_ && cursor_ == 0; }

  // True if [addr, addr+size) lies within bounds.
  constexpr bool InBounds(Address addr, Address size) const {
    return addr >= base_ && size <= top_ - addr && addr <= top_;
  }

  // --- Monotonic derivation. Each returns a new value; failures untag. ---

  // Moves the cursor. CHERI allows out-of-bounds cursors (checked at use).
  Capability WithAddress(Address addr) const;
  Capability AddOffset(int64_t delta) const { return WithAddress(cursor_ + static_cast<Address>(delta)); }

  // Narrows bounds to [new_base, new_base+len). Untags if not a subset of
  // the current bounds or if the capability is sealed. Cursor moves to base.
  Capability WithBounds(Address new_base, Address len) const;
  // Narrows bounds to [cursor, cursor+len).
  Capability WithBoundsAtCursor(Address len) const { return WithBounds(cursor_, len); }

  // Intersects permissions (can only remove rights). Untags if sealed.
  Capability WithPermissions(PermissionSet keep) const;
  Capability WithoutPermission(Permission p) const {
    return WithPermissions(perms_.Without(p));
  }

  // Seals this capability with `authority`'s otype (authority must be a
  // tagged sealing capability with kSeal whose cursor is the otype).
  Capability SealedWith(const Capability& authority) const;
  // Unseals using `authority` (kUnseal, cursor == otype).
  Capability UnsealedWith(const Capability& authority) const;
  // Direct seal used by the hardware model / switcher internals.
  Capability SealedAs(OType type) const;
  Capability UnsealedExact(OType type) const;

  // --- Deep-attenuation on load (applied by the memory model, §2.1) ---
  // Returns the capability as it appears after being loaded through
  // `authority`: MC missing => untag; LM missing => strip store rights;
  // LG missing => strip global rights.
  Capability AttenuatedForLoadVia(const Capability& authority) const;

  // The hardware model may clear tags (load filter, partial overwrite).
  Capability Untagged() const {
    Capability c = *this;
    c.tag_ = false;
    return c;
  }

  std::string ToString() const;
  constexpr bool operator==(const Capability&) const = default;

 private:
  Address cursor_ = 0;
  Address base_ = 0;
  Address top_ = 0;
  PermissionSet perms_{};
  OType otype_ = OType::kUnsealed;
  bool tag_ = false;
};

}  // namespace cheriot

#endif  // SRC_CAP_CAPABILITY_H_
