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
  }
  return "?";
}

TlbDomain::TlbDomain(const TlbDomainConfig& config) : config_(config) {
  if (config_.mode == TlbShareMode::kPartitioned) {
    SIM_CHECK(PartitionWays() > 0);
  }
}

uint32_t TlbDomain::PartitionWays() const {
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
  return TlbView(shared_.get(), vmid);
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
