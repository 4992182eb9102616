// A guest thread: a statically-created schedulable entity with a simulated
// stack, register state and a trusted stack (§3). Execution state is hosted
// on a ucontext fiber so the whole system runs deterministically on one host
// thread.
#ifndef SRC_KERNEL_GUEST_THREAD_H_
#define SRC_KERNEL_GUEST_THREAD_H_

#include <ucontext.h>

#include <array>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "src/base/anon_mapping.h"
#include "src/base/types.h"
#include "src/cap/capability.h"

namespace cheriot {

class GuestThread {
 public:
  enum class State : uint8_t {
    kReady,
    kRunning,
    kBlocked,   // on a futex (possibly with timeout)
    kSleeping,  // pure timed sleep
    kExited,
  };

  int id = -1;
  std::string name;
  uint16_t priority = 1;
  State state = State::kReady;

  // --- Simulated stack (grows down; sp/high_water track usage) ---
  Address stack_base = 0;
  uint32_t stack_size = 0;
  Address sp = 0;          // current stack pointer
  Address high_water = 0;  // lowest address dirtied since last zeroing
  Capability stack_cap;    // full-range template (non-global, store-local)

  // --- Trusted stack (switcher-private, in simulated memory) ---
  Address trusted_stack_base = 0;
  uint16_t max_frames = 0;
  uint16_t frame_depth = 0;

  // --- Execution state ---
  int current_compartment = -1;
  // Native mirror of the trusted stack's compartment chain (outermost first,
  // current compartment last), maintained by the switcher at the same choke
  // points as frame_depth. Lets the TCB attribute an operation to the alloc
  // service's *caller*, and every observer (src/obs) read the call stack,
  // without reading simulated memory (which would tick the clock).
  std::vector<int> compartment_stack;
  bool interrupts_enabled = true;
  // Ephemeral-claim hazard slots (§3.2.5), cleared at each compartment call.
  std::array<Address, 2> hazard_slots{};
  // Compartments this thread must be forcibly unwound out of (§3.2.6 step 2).
  std::set<int> forced_unwind;

  // --- Blocking state ---
  Address futex_addr = 0;  // nonzero while blocked on a futex
  Cycles wake_at = kNoDeadline;
  bool timed_out = false;
  int multiwaiter_id = -1;  // nonzero while blocked on a multiwaiter
  // Monotonic stamp of the last time this thread parked on a futex or
  // multiwaiter. Wait queues are FIFO in this stamp (the documented wake
  // contract, src/sync/sync.h); survives snapshot/restore.
  uint64_t block_seq = 0;

  // --- Entry ---
  int entry_compartment = -1;
  int entry_export = -1;

  // --- Host fiber ---
  ucontext_t context{};
  AnonMapping host_stack;  // zero-filled by the OS, backed only where touched
  bool started = false;
  void* tsan_fiber = nullptr;  // ThreadSanitizer fiber handle (TSan builds)

  // --- Accounting ---
  Cycles run_cycles = 0;
  uint32_t compartment_calls = 0;
  // Deepest stack use ever reached, in bytes. Unlike high_water (which the
  // switcher resets when it zeroes the dirty region), this is monotonic over
  // the thread's whole life — it is what the metrics snapshot reports.
  uint32_t peak_stack_bytes = 0;

  static constexpr Cycles kNoDeadline = ~0ull;

  bool Runnable() const { return state == State::kReady; }
};

}  // namespace cheriot

#endif  // SRC_KERNEL_GUEST_THREAD_H_
