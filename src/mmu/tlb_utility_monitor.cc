#include "mmu/tlb_utility_monitor.h"

#include <algorithm>

#include "base/check.h"

namespace mmu {

TlbUtilityMonitor::TlbUtilityMonitor(const Config& config) : config_(config) {
  SIM_CHECK(config_.sets > 0 && (config_.sets & (config_.sets - 1)) == 0);
  SIM_CHECK(config_.ways > 0);
  SIM_CHECK(config_.sample_stride > 0 &&
            (config_.sample_stride & (config_.sample_stride - 1)) == 0 &&
            config_.sample_stride <= config_.sets);
  SIM_CHECK(config_.displaced_slots > 0 &&
            (config_.displaced_slots & (config_.displaced_slots - 1)) == 0);
  sampled_sets_ = config_.sets / config_.sample_stride;
  records_.resize(config_.displaced_slots);
}

void TlbUtilityMonitor::RegisterVm(uint16_t vmid) {
  (void)Shadow(vmid);
}

TlbUtilityMonitor::VmShadow& TlbUtilityMonitor::Shadow(uint16_t vmid) {
  if (vms_.size() <= vmid) {
    EnsureMatrix(vmid);
  }
  VmShadow& vm = vms_[vmid];
  if (vm.stacks.empty()) {
    vm.stacks.resize(sampled_sets_);
    vm.utility.way_hits.assign(config_.ways, 0);
  }
  return vm;
}

void TlbUtilityMonitor::EnsureMatrix(uint16_t vmid) {
  if (vmid < vms_.size()) {
    return;
  }
  const size_t old_n = vms_.size();
  const size_t new_n = static_cast<size_t>(vmid) + 1;
  vms_.resize(new_n);
  std::vector<uint64_t> grown(new_n * new_n, 0);
  for (size_t v = 0; v < old_n; ++v) {
    for (size_t e = 0; e < old_n; ++e) {
      grown[v * new_n + e] = matrix_[v * old_n + e];
    }
  }
  matrix_ = std::move(grown);
}

void TlbUtilityMonitor::ShadowAccess(uint64_t key, base::PageSize size,
                                     uint16_t vmid) {
  const uint32_t set = SetIndex(key);
  if (!Sampled(set)) {
    return;
  }
  VmShadow& vm = Shadow(vmid);
  std::vector<uint64_t>& stack = vm.stacks[set / config_.sample_stride];
  const uint64_t entry = tlb_tag::Pack(key, size, vmid);
  for (size_t d = 0; d < stack.size(); ++d) {
    if (stack[d] == entry) {
      ++vm.utility.way_hits[d];
      stack.erase(stack.begin() + static_cast<ptrdiff_t>(d));
      stack.insert(stack.begin(), entry);
      return;
    }
  }
  ++vm.utility.shadow_misses;
  stack.insert(stack.begin(), entry);
  if (stack.size() > config_.ways) {
    stack.pop_back();
  }
}

void TlbUtilityMonitor::OnAccess(uint64_t key, base::PageSize size,
                                 uint16_t vmid) {
  ShadowAccess(key, size, vmid);
}

void TlbUtilityMonitor::OnInsert(uint64_t key, base::PageSize size,
                                 uint16_t vmid) {
  // The mapping is present again: a displaced record left over from an
  // earlier eviction of this key (e.g. the attempt it was consumed for
  // faulted before reinsert, or the key returned via a direct Insert) must
  // not be charged against some future, unrelated miss.
  ClearRecord(key, size, vmid);
  ShadowAccess(key, size, vmid);
}

void TlbUtilityMonitor::OnEviction(uint64_t key, base::PageSize size,
                                   uint16_t victim_vmid,
                                   uint16_t evictor_vmid) {
  RegisterVm(victim_vmid);
  RegisterVm(evictor_vmid);
  DisplacedRecord& slot = records_[DisplacedSlot(key, size, victim_vmid)];
  slot.tag = tlb_tag::Pack(key, size, victim_vmid);
  slot.evictor = evictor_vmid;
}

int32_t TlbUtilityMonitor::TakeRecord(uint64_t key, base::PageSize size,
                                      uint16_t vmid) {
  DisplacedRecord& slot = records_[DisplacedSlot(key, size, vmid)];
  if (slot.tag != tlb_tag::Pack(key, size, vmid)) {
    return -1;
  }
  const int32_t evictor = slot.evictor;
  slot.tag = 0;
  return evictor;
}

int32_t TlbUtilityMonitor::AttributeMiss(uint64_t vpn, uint16_t vmid) {
  // Mirror Lookup's probe order: the huge entry would have served the
  // access first had it survived.
  int32_t evictor =
      TakeRecord(vpn >> base::kHugeOrder, base::PageSize::kHuge, vmid);
  if (evictor < 0) {
    evictor = TakeRecord(vpn, base::PageSize::kBase, vmid);
  }
  if (evictor >= 0) {
    RegisterVm(vmid);
    EnsureMatrix(static_cast<uint16_t>(evictor));
    ++matrix_[static_cast<size_t>(vmid) * vms_.size() +
              static_cast<size_t>(evictor)];
  }
  return evictor;
}

void TlbUtilityMonitor::ClearRecord(uint64_t key, base::PageSize size,
                                    uint16_t vmid) {
  DisplacedRecord& slot = records_[DisplacedSlot(key, size, vmid)];
  if (slot.tag == tlb_tag::Pack(key, size, vmid)) {
    slot.tag = 0;
  }
}

void TlbUtilityMonitor::OnShootdown(uint64_t vpn, uint16_t vmid) {
  const uint64_t region = vpn >> base::kHugeOrder;
  ClearRecord(vpn, base::PageSize::kBase, vmid);
  ClearRecord(region, base::PageSize::kHuge, vmid);
  // Drop the shot-down translations from the shadow stacks too: they
  // would not hit at any way count, so keeping them would overstate the
  // VM's utility curve.
  if (vmid < vms_.size() && !vms_[vmid].stacks.empty()) {
    VmShadow& vm = vms_[vmid];
    const uint64_t keys[2] = {
        tlb_tag::Pack(vpn, base::PageSize::kBase, vmid),
        tlb_tag::Pack(region, base::PageSize::kHuge, vmid)};
    const uint32_t sets[2] = {SetIndex(vpn), SetIndex(region)};
    for (int i = 0; i < 2; ++i) {
      if (!Sampled(sets[i])) {
        continue;
      }
      std::vector<uint64_t>& stack = vm.stacks[sets[i] / config_.sample_stride];
      stack.erase(std::remove(stack.begin(), stack.end(), keys[i]),
                  stack.end());
    }
  }
}

void TlbUtilityMonitor::OnShootdownRange(uint64_t vpn, uint64_t pages,
                                         uint16_t vmid) {
  const uint64_t end = vpn + pages;
  // One call per range shootdown: scan each fixed-size structure once.
  for (DisplacedRecord& slot : records_) {
    if (tlb_tag::Owned(slot.tag, vmid) &&
        tlb_tag::Overlaps(slot.tag, vpn, end)) {
      slot.tag = 0;
    }
  }
  if (vmid < vms_.size() && !vms_[vmid].stacks.empty()) {
    for (std::vector<uint64_t>& stack : vms_[vmid].stacks) {
      stack.erase(std::remove_if(stack.begin(), stack.end(),
                                 [&](uint64_t e) {
                                   return tlb_tag::Overlaps(e, vpn, end);
                                 }),
                  stack.end());
    }
  }
}

void TlbUtilityMonitor::OnInvalidateVm(uint16_t vmid) {
  for (DisplacedRecord& slot : records_) {
    if (tlb_tag::Owned(slot.tag, vmid)) {
      slot.tag = 0;
    }
  }
  // The VM's address space moved wholesale; its shadow working set is
  // meaningless now.  The histograms stay — they are cumulative counters.
  if (vmid < vms_.size()) {
    for (std::vector<uint64_t>& stack : vms_[vmid].stacks) {
      stack.clear();
    }
  }
}

const TlbUtilityMonitor::VmUtility& TlbUtilityMonitor::utility(
    uint16_t vmid) const {
  static const VmUtility kZero{};
  if (vmid >= vms_.size() || vms_[vmid].stacks.empty()) {
    return kZero;
  }
  return vms_[vmid].utility;
}

uint64_t TlbUtilityMonitor::displaced(uint16_t victim_vmid,
                                      uint16_t evictor_vmid) const {
  if (victim_vmid >= vms_.size() || evictor_vmid >= vms_.size()) {
    return 0;
  }
  return matrix_[static_cast<size_t>(victim_vmid) * vms_.size() +
                 evictor_vmid];
}

}  // namespace mmu
