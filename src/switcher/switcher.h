// The switcher (§3.1.2): the most privileged post-boot component. Performs
// compartment calls and returns (unsealing export capabilities, pushing
// trusted-stack frames, truncating and zeroing stacks, clearing registers),
// first-level trap handling and error-handler dispatch (§3.2.6), the
// ephemeral-claim hazard slots (§3.2.5), and forced unwinding of threads out
// of a compartment (micro-reboot step 2).
#ifndef SRC_SWITCHER_SWITCHER_H_
#define SRC_SWITCHER_SWITCHER_H_

#include <vector>

#include "src/firmware/image.h"
#include "src/kernel/guest_thread.h"
#include "src/loader/loader.h"
#include "src/switcher/trusted_stack.h"

namespace cheriot {

class System;
class CompartmentCtx;

// Thrown to unwind a thread out of the current compartment into its caller
// (error-handler decision or default policy, §3.2.6).
struct UnwindException {
  bool handler_ran = false;
};

// Thrown to forcibly unwind a thread out of `target_compartment`
// (switcher API backing micro-reboot step 2).
struct ForcedUnwindException {
  int target_compartment;
};

class Switcher {
 public:
  explicit Switcher(System* system) : system_(system) {}

  // Cross-compartment call through a sealed export capability (from the
  // caller's import table). Returns the callee's a0. On callee fault the
  // thread unwinds back here and the caller receives
  // StatusCap(kCompartmentFail).
  Capability CompartmentCall(GuestThread& thread, const ImportBinding& binding,
                             const std::vector<Capability>& args);

  // Shared-library call through a sentry: same security context, no trusted
  // frame, no zeroing; interrupt posture may change per the sentry type.
  Capability LibraryCall(GuestThread& thread, const ImportBinding& binding,
                         const std::vector<Capability>& args);

  // Starts a thread: invokes its entry export with an empty caller frame.
  Capability InitialCall(GuestThread& thread);

  // Trap delivery for a fault raised by a guest operation. Consults the
  // compartment's global error handler. Returns the recovery decision
  // (kInstallContext => the caller retries the operation using info->regs);
  // throws UnwindException when the policy is to unwind.
  ErrorRecovery DeliverTrap(GuestThread& thread, CompartmentCtx& ctx,
                            TrapInfo* info);

  // Ephemeral claim (§3.2.5): records the object's base in one of the
  // thread's hazard slots in the trusted stack; slots are cleared at the
  // thread's next compartment call.
  Status EphemeralClaim(GuestThread& thread, const Capability& obj);
  bool IsEphemerallyClaimed(Address payload_base) const;

  // Marks every thread executing in (or blocked inside a call chain through)
  // `compartment` for forced unwind and wakes blocked ones. Returns the
  // number of threads flagged. The invoking thread is skipped.
  int UnwindThreadsIn(int compartment, int skip_thread_id);

  TrustedStackView TrustedStackFor(GuestThread& thread);

  // Guest traps delivered since boot (fingerprinted by determinism tests).
  uint64_t trap_count() const { return trap_count_; }

 private:
  Capability DoCall(GuestThread& thread, int callee_id, int export_index,
                    const std::vector<Capability>& args, bool saved_irq,
                    void* posture_guard_opaque);
  void ZeroStackRange(GuestThread& thread, Address from, Address to);

  System* system_;
  uint64_t trap_count_ = 0;
};

}  // namespace cheriot

#endif  // SRC_SWITCHER_SWITCHER_H_
