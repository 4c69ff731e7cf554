#include "mmu/tlb_domain.h"

#include <algorithm>

#include "base/check.h"

namespace mmu {

const char* TlbShareModeName(TlbShareMode mode) {
  switch (mode) {
    case TlbShareMode::kPrivate:
      return "private";
    case TlbShareMode::kShared:
      return "shared";
    case TlbShareMode::kPartitioned:
      return "partitioned";
    case TlbShareMode::kDynamic:
      return "dynamic";
  }
  return "?";
}

TlbDomain::TlbDomain(const TlbDomainConfig& config) : config_(config) {
  if (config_.mode == TlbShareMode::kPartitioned ||
      config_.mode == TlbShareMode::kDynamic) {
    SIM_CHECK(PartitionWays() > 0);
  }
}

uint32_t TlbDomain::PartitionWays() const {
  if (config_.partition_ways != 0) {
    return config_.partition_ways;
  }
  SIM_CHECK(config_.expected_vms > 0);
  return config_.tlb.ways / config_.expected_vms;
}

TlbView TlbDomain::AddVm(uint16_t vmid) {
  if (config_.mode == TlbShareMode::kPrivate) {
    if (private_tlbs_.size() <= vmid) {
      private_tlbs_.resize(vmid + 1);
    }
    SIM_CHECK(private_tlbs_[vmid] == nullptr);
    private_tlbs_[vmid] = std::make_unique<Tlb>(config_.tlb);
    private_tlbs_[vmid]->RegisterVm(vmid);
    return TlbView(private_tlbs_[vmid].get(), vmid);
  }
  if (shared_ == nullptr) {
    shared_ = std::make_unique<Tlb>(config_.tlb);
    TlbUtilityMonitor::Config mc;
    mc.sets = config_.tlb.sets;
    mc.ways = config_.tlb.ways;
    // Tiny test geometries can have fewer sets than the default stride.
    mc.sample_stride = std::min(mc.sample_stride, mc.sets);
    monitor_ = std::make_unique<TlbUtilityMonitor>(mc);
    shared_->AttachUtilityMonitor(monitor_.get());
  }
  shared_->RegisterVm(vmid);
  monitor_->RegisterVm(vmid);
  if (config_.mode == TlbShareMode::kPartitioned) {
    const uint32_t k = PartitionWays();
    const uint32_t begin = static_cast<uint32_t>(vmid) * k;
    SIM_CHECK(begin + k <= config_.tlb.ways);
    shared_->SetVmWays(vmid, begin, k);
  }
  if (config_.mode == TlbShareMode::kDynamic) {
    if (repartitioner_ == nullptr) {
      TlbRepartitioner::Config rc;
      rc.min_ways = config_.repart_min_ways;
      repartitioner_ =
          std::make_unique<TlbRepartitioner>(shared_.get(), monitor_.get(), rc);
    }
    const auto it = std::lower_bound(vm_ids_.begin(), vm_ids_.end(), vmid);
    if (it == vm_ids_.end() || *it != vmid) {
      vm_ids_.insert(it, vmid);  // re-registering a vmid keeps one slot
    }
    // Boot split: re-tile the even layout over the *current* tenant set,
    // so late arrivals fit regardless of expected_vms (the repartitioner
    // owns the boundaries from the next tick on).  The first ways%n VMs
    // absorb the remainder — the allocator's lower-id tie-break.  An
    // earlier VM's entries stranded outside its shrunken window stay
    // probe-visible; the next applied repartition drops them.
    const uint32_t n = static_cast<uint32_t>(vm_ids_.size());
    SIM_CHECK(n <= config_.tlb.ways);
    const uint32_t k = config_.tlb.ways / n;
    const uint32_t extra = config_.tlb.ways % n;
    uint32_t begin = 0;
    for (uint32_t i = 0; i < n; ++i) {
      const uint32_t w = k + (i < extra ? 1 : 0);
      shared_->SetVmWays(vm_ids_[i], begin, w);
      begin += w;
    }
  }
  return TlbView(shared_.get(), vmid);
}

void TlbDomain::RepartitionTick() {
  SIM_CHECK(config_.mode == TlbShareMode::kDynamic);
  if (repartitioner_ != nullptr) {
    repartitioner_->Tick(vm_ids_);
  }
}

TlbEpochStage* TlbDomain::EpochStage(uint16_t vmid) {
  SIM_CHECK(config_.mode != TlbShareMode::kPrivate);
  SIM_CHECK(shared_ != nullptr);
  if (stages_.size() <= vmid) {
    stages_.resize(vmid + 1);
  }
  if (stages_[vmid] == nullptr) {
    stages_[vmid] = std::make_unique<TlbEpochStage>(shared_.get(), vmid);
  }
  return stages_[vmid].get();
}

uint32_t TlbDomain::InvalidateVm(uint16_t vmid) {
  if (config_.mode == TlbShareMode::kPrivate) {
    SIM_CHECK(vmid < private_tlbs_.size() &&
              private_tlbs_[vmid] != nullptr);
    return private_tlbs_[vmid]->InvalidateVm(vmid);
  }
  SIM_CHECK(shared_ != nullptr);
  return shared_->InvalidateVm(vmid);
}

}  // namespace mmu
