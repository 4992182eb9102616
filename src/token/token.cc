#include "src/token/token.h"

#include "src/base/costs.h"
#include "src/kernel/system.h"

namespace cheriot {

void TokenService::Init() { hw_key_ = system_->boot().token_seal_key; }

bool TokenService::ValidKey(const Capability& key, Permission perm) {
  return key.tag() && !key.IsSealed() && key.permissions().Has(perm) &&
         key.InBounds(key.cursor(), 1);
}

uint32_t TokenService::NextTypeId() {
  return system_->boot().next_virtual_type_id++;
}

Capability TokenService::SealWithHardwareType(const Capability& payload) const {
  system_->machine().Tick(cost::kHwSealOp);
  return payload.SealedWith(hw_key_);
}

Capability TokenService::UnsealHardwareType(const Capability& sealed) const {
  system_->machine().Tick(cost::kHwSealOp);
  return sealed.UnsealedWith(hw_key_);
}

Capability TokenService::Unseal(const Capability& key,
                                const Capability& sealed_obj) {
  Machine& m = system_->machine();
  m.Tick(cost::kLibTokenUnseal);
  if (!ValidKey(key, Permission::kUnseal)) {
    return Capability();
  }
  const Capability unsealed = UnsealHardwareType(sealed_obj);
  if (!unsealed.tag()) {
    return Capability();
  }
  // Header: virtual type id + payload size (§3.2.1).
  const Word vtype = m.memory().LoadWord(unsealed, unsealed.base());
  const Word size = m.memory().LoadWord(unsealed, unsealed.base() + 4);
  if (vtype != key.cursor()) {
    return Capability();
  }
  if (!m.observers().empty()) {
    // token_unseal is a library call: it runs in the caller's compartment
    // context, which is exactly the holder the sealing grant names.
    const int thread = system_->current_thread_id();
    const int comp =
        thread >= 0 ? system_->threads()[thread].current_compartment : -1;
    for (obs::Observer* o : m.observers()) {
      o->OnSealingUse(comp, key.cursor(), /*unseal=*/true);
    }
  }
  // Return a capability to the payload, exclusive of the header.
  Capability payload =
      unsealed.WithBounds(unsealed.base() + 8, size);
  return payload;
}

}  // namespace cheriot
