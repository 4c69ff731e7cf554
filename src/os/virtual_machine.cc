#include "os/virtual_machine.h"

#include "base/check.h"

namespace osim {

VirtualMachine::VirtualMachine(
    int32_t id, std::unique_ptr<GuestKernel> guest, HostVmKernel* host_slice,
    mmu::TlbView tlb_view)
    : id_(id),
      guest_(std::move(guest)),
      host_slice_(host_slice),
      engine_(mmu::TranslationEngine::Config{}, &guest_->table(),
              &host_slice_->table(), tlb_view) {
  SIM_CHECK(guest_ != nullptr && host_slice_ != nullptr);
}

VirtualMachine::AccessResult VirtualMachine::Access(uint64_t vpn) {
  ++accesses_;
  AccessResult result;
  // A single access takes at most: guest fault, then host fault (the guest
  // mapping may target a not-yet-backed GFN), then a clean translation.
  for (int attempt = 0; attempt < 4; ++attempt) {
    const mmu::TranslateResult tr = engine_.Translate(vpn);
    switch (tr.status) {
      case mmu::TranslateStatus::kOk:
        result.cycles += tr.cycles;
        result.tlb_hit = tr.tlb_hit;
        result.well_aligned = tr.well_aligned_huge;
        return result;
      case mmu::TranslateStatus::kGuestFault:
        result.cycles += guest_->HandleFault(tr.fault_page);
        ++result.faults_taken;
        break;
      case mmu::TranslateStatus::kHostFault:
        result.cycles += host_slice_->HandleFault(tr.fault_page);
        ++result.faults_taken;
        break;
    }
  }
  SIM_CHECK_MSG(false, "access to vpn %llu did not converge",
                static_cast<unsigned long long>(vpn));
  return result;
}

bool VirtualMachine::TryAccessClean(uint64_t vpn, AccessResult* out) {
  const mmu::TranslateResult tr = engine_.Translate(vpn);
  if (tr.status != mmu::TranslateStatus::kOk) {
    return false;  // needs a kernel fault handler: serial-phase work
  }
  ++accesses_;  // only completed accesses count, as in Access
  out->cycles = tr.cycles;
  out->tlb_hit = tr.tlb_hit;
  out->well_aligned = tr.well_aligned_huge;
  out->faults_taken = 0;
  return true;
}

}  // namespace osim
