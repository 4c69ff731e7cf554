// Callbacks from the kernels back into the machine.
//
// Kernels mutate page tables; the machine owns the per-VM translation
// engines (TLBs).  These hooks let a kernel invalidate stale translations
// and read global state without a dependency cycle.
#ifndef SRC_OS_HOOKS_H_
#define SRC_OS_HOOKS_H_

#include <cstdint>

#include "base/types.h"

namespace osim {

class MachineHooks {
 public:
  virtual ~MachineHooks() = default;

  // Invalidates combined translations for a guest-virtual range of one VM
  // (guest-layer remap: targeted shootdown).
  virtual void ShootdownGuestRange(int32_t vm_id, uint64_t vpn,
                                   uint64_t pages) = 0;

  // Invalidates all combined translations of one VM (host-layer remap:
  // models INVEPT single-context).
  virtual void InvalidateVmTranslations(int32_t vm_id) = 0;

  // Cumulative TLB misses of the VM's translation engine.  Callers that
  // need deltas (Gemini Algorithm 1) keep their own cursor.
  virtual uint64_t VmTlbMisses(int32_t vm_id) const = 0;

  // The guest kernel wrote the guest-physical range in kernel context
  // (huge-fault zeroing, migration copies).  Ensures EPT backing exists —
  // each unbacked page is an EPT violation handled by the host — and
  // returns the cycles that took.  A host policy that backs the first
  // violation with a huge EPT leaf makes the remaining writes free, so the
  // cost of zeroing a guest huge page depends heavily on host behaviour.
  virtual base::Cycles EnsureHostBacking(int32_t vm_id, uint64_t gfn,
                                         uint64_t count) = 0;

  // Current simulated time in cycles.
  virtual base::Cycles Now() const = 0;
};

}  // namespace osim

#endif  // SRC_OS_HOOKS_H_
