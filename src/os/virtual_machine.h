// One virtual machine: a guest kernel, its slice of the host kernel (EPT +
// host policy), and the vCPU's translation engine over the two tables.
#ifndef SRC_OS_VIRTUAL_MACHINE_H_
#define SRC_OS_VIRTUAL_MACHINE_H_

#include <memory>

#include "mmu/translation_engine.h"
#include "os/guest_kernel.h"
#include "os/host_kernel.h"

namespace osim {

class VirtualMachine {
 public:
  VirtualMachine(int32_t id, std::unique_ptr<GuestKernel> guest,
                 HostVmKernel* host_slice, mmu::TlbView tlb_view);

  int32_t id() const { return id_; }
  GuestKernel& guest() { return *guest_; }
  HostVmKernel& host_slice() { return *host_slice_; }
  mmu::TranslationEngine& engine() { return engine_; }
  const mmu::TranslationEngine& engine() const { return engine_; }

  // One data access to guest virtual page `vpn`: translates, demand-pages
  // through the guest and host fault handlers as needed, retries, and
  // returns the cycles the access cost (translation + synchronous fault
  // work).  Also reports whether the access ultimately went through a
  // well-aligned huge mapping.
  struct AccessResult {
    base::Cycles cycles = 0;
    bool tlb_hit = false;
    bool well_aligned = false;
    uint32_t faults_taken = 0;
  };
  AccessResult Access(uint64_t vpn);

  // Epoch-parallel clean path (Machine::EpochAccessBatch): one translation
  // attempt, no fault handling.  On a clean hit/walk, fills `out` and
  // returns true.  If the translation would fault, returns false with the
  // VM untouched *except* the engine's deterministic miss bookkeeping for
  // the aborted attempt — the access runs again, from scratch, in the
  // serial phase (DESIGN.md §3g records the double-count).
  bool TryAccessClean(uint64_t vpn, AccessResult* out);

  uint64_t accesses() const { return accesses_; }

 private:
  int32_t id_;
  std::unique_ptr<GuestKernel> guest_;
  HostVmKernel* host_slice_;
  mmu::TranslationEngine engine_;
  uint64_t accesses_ = 0;
};

}  // namespace osim

#endif  // SRC_OS_VIRTUAL_MACHINE_H_
