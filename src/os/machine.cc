#include "os/machine.h"

#include <algorithm>

#include "base/check.h"
#include "os/cost_model.h"
#include "os/reclaim_daemon.h"

namespace osim {

Machine::Machine(const MachineConfig& config)
    : config_(config),
      host_(config.host_frames, this, config.seed * 2 + 1),
      tlb_domain_(mmu::TlbDomainConfig{
          .tlb = mmu::TlbConfig{},
          .mode = config.tlb_mode,
          .expected_vms = config.tlb_expected_vms}),
      next_daemon_(config.daemon_period),
      next_event_(config.daemon_period) {
  host_fragmenter_ = std::make_unique<vmem::Fragmenter>(
      &host_.buddy(), &host_.frames(), config_.seed ^ 0x9e3779b9ull);
  tracer_.SetClock(&logical_now_);
  // The host buddy is shared by every VM; its events carry vm_id -1.
  host_.buddy().SetTracer(&tracer_, base::Layer::kHost, -1);
  if (config_.reclaim.enabled) {
    host_tier_ = std::make_unique<vmem::TierSpace>(
        config_.reclaim.far_capacity_pages, kCosts.far_demote_page,
        kCosts.far_refault_page);
    auto daemon = std::make_unique<ReclaimDaemon>(this, config_.reclaim.policy);
    reclaim_daemon_ = daemon.get();
    const base::Cycles interval = config_.reclaim.interval != 0
                                      ? config_.reclaim.interval
                                      : config_.daemon_period;
    AddTask(std::move(daemon), interval);
  }
}

Machine::~Machine() = default;

VirtualMachine& Machine::AddVm(
    uint64_t gfn_count, std::unique_ptr<policy::HugePagePolicy> guest_policy,
    std::unique_ptr<policy::HugePagePolicy> host_policy) {
  SIM_CHECK(!in_epoch_);
  const int32_t id = static_cast<int32_t>(vms_.size());
  HostVmKernel& slice =
      host_.AddVm(id, gfn_count, std::move(host_policy));
  auto guest = std::make_unique<GuestKernel>(
      id, gfn_count, this, std::move(guest_policy),
      config_.seed * 131 + static_cast<uint64_t>(id) * 31 + 7);
  vms_.push_back(std::make_unique<VirtualMachine>(
      id, std::move(guest), &slice,
      tlb_domain_.AddVm(static_cast<uint16_t>(id))));
  VirtualMachine& vm = *vms_.back();
  vm.guest().AttachTracer(&tracer_);
  vm.guest().buddy().SetTracer(&tracer_, base::Layer::kGuest, id);
  vm.host_slice().AttachTracer(&tracer_);
  if (host_tier_ != nullptr) {
    // Every slice demotes to the one shared far tier, keyed by vm id, so
    // the far pool's capacity is contended by all tenants.
    vm.host_slice().AttachTier(host_tier_.get());
  }
  guest_fragmenters_.push_back(std::make_unique<vmem::Fragmenter>(
      &vms_.back()->guest().buddy(), &vms_.back()->guest().gpa_frames(),
      config_.seed + static_cast<uint64_t>(id) * 7919));
  return *vms_.back();
}

void Machine::AddTask(std::unique_ptr<PeriodicTask> task,
                      base::Cycles period) {
  SIM_CHECK(!in_epoch_);
  SIM_CHECK(period > 0);
  tasks_.push_back(ScheduledTask{std::move(task), period, now_ + period});
  next_event_ = std::min(next_event_, tasks_.back().next_run);
}

VirtualMachine& Machine::vm(int32_t id) {
  SIM_CHECK(id >= 0 && static_cast<size_t>(id) < vms_.size());
  return *vms_[id];
}

VirtualMachine::AccessResult Machine::Access(int32_t vm_id, uint64_t vpn,
                                             base::Cycles work_cycles) {
  SIM_CHECK(!in_epoch_);
  VirtualMachine::AccessResult result = vm(vm_id).Access(vpn);
  result.cycles += work_cycles;
  StepClock(result.cycles);
  return result;
}

void Machine::AccessBatch(int32_t vm_id, std::span<const uint64_t> vpns,
                          base::Cycles work_cycles,
                          std::vector<VirtualMachine::AccessResult>* out) {
  SIM_CHECK(!in_epoch_);
  out->resize(vpns.size());
  for (size_t i = 0; i < vpns.size(); ++i) {
    (*out)[i] = Access(vm_id, vpns[i], work_cycles);
  }
}

void Machine::AdvanceTime(base::Cycles cycles) {
  SIM_CHECK(!in_epoch_);
  StepClock(cycles);
}

void Machine::StepClock(base::Cycles cycles) {
  now_ += cycles;
  // next_event_ is the earliest due time (AddTask and RunDueDaemons keep
  // it so), so the common nothing-due case is one compare; RunDueDaemons
  // would reach the same conclusion by scanning every task.
  if (now_ >= next_event_) {
    RunDueDaemons();
  } else {
    logical_now_ = now_;
  }
}

void Machine::BeginEpoch() {
  SIM_CHECK(!in_epoch_);
  in_epoch_ = true;
  epoch_cycles_.assign(vms_.size(), 0);
  if (config_.tlb_mode != mmu::TlbShareMode::kPrivate) {
    for (const auto& vm : vms_) {
      mmu::TlbEpochStage* stage =
          tlb_domain_.EpochStage(static_cast<uint16_t>(vm->id()));
      stage->BeginEpoch();
      vm->engine().tlb().SetEpochStage(stage);
    }
  }
}

size_t Machine::EpochAccessBatch(
    int32_t vm_id, std::span<const uint64_t> vpns, base::Cycles work_cycles,
    std::vector<VirtualMachine::AccessResult>* out) {
  SIM_CHECK(in_epoch_);
  VirtualMachine& v = vm(vm_id);
  SIM_CHECK(out->size() >= vpns.size());
  base::Cycles lane_cycles = 0;
  size_t done = 0;
  for (; done < vpns.size(); ++done) {
    VirtualMachine::AccessResult result;
    if (!v.TryAccessClean(vpns[done], &result)) {
      break;  // would fault: suspend; the serial phase re-runs this access
    }
    result.cycles += work_cycles;
    lane_cycles += result.cycles;
    (*out)[done] = result;
  }
  // One accumulate per batch, not per access: only this lane's slot is
  // touched, so no other thread contends on it.
  epoch_cycles_[vm_id] += lane_cycles;
  return done;
}

void Machine::EpochBarrier() {
  SIM_CHECK(in_epoch_);
  // Canonical VM-ID-ordered merge of the staged shared-TLB traffic: the
  // replay order — not the racy thread completion order — defines which
  // entries evict which, so any GEMINI_VM_THREADS produces the same array.
  if (config_.tlb_mode != mmu::TlbShareMode::kPrivate) {
    for (const auto& vm : vms_) {
      vm->engine().tlb().SetEpochStage(nullptr);
      tlb_domain_.EpochStage(static_cast<uint16_t>(vm->id()))->Commit();
    }
  }
  base::Cycles total = 0;
  for (const base::Cycles c : epoch_cycles_) {
    total += c;
  }
  in_epoch_ = false;
  StepClock(total);
}

void Machine::RunDueDaemons() {
  // Process due events in timestamp order so a scanner firing between two
  // daemon ticks is observed by the next tick, exactly as on a live system.
  for (;;) {
    base::Cycles next_event = next_daemon_;
    for (const auto& scheduled : tasks_) {
      next_event = std::min(next_event, scheduled.next_run);
    }
    if (next_event > now_) {
      next_event_ = next_event;
      break;
    }
    // Daemons and tasks observe the boundary they fire at, never the raw
    // clock: a coarse clock step that overshoots the boundary must look
    // identical to many fine-grained steps reaching it exactly.
    logical_now_ = next_event;
    if (next_daemon_ == next_event) {
      for (auto& vm : vms_) {
        if (tracer_.enabled()) {
          tracer_.Emit(trace::EventKind::kDaemonTick, base::Layer::kGuest,
                       vm->id(), next_event / config_.daemon_period);
        }
        vm->guest().DaemonTick();
        vm->host_slice().DaemonTick();
      }
      next_daemon_ += config_.daemon_period;
    }
    for (auto& scheduled : tasks_) {
      if (scheduled.next_run == next_event) {
        scheduled.task->Run(next_event);
        scheduled.next_run += scheduled.period;
      }
    }
  }
  logical_now_ = now_;
}

double Machine::FragmentHostMemory(double target_fmfi) {
  SIM_CHECK(!in_epoch_);
  return host_fragmenter_->FragmentToTarget(target_fmfi);
}

double Machine::FragmentGuestMemory(int32_t vm_id, double target_fmfi) {
  SIM_CHECK(!in_epoch_);
  SIM_CHECK(vm_id >= 0 && static_cast<size_t>(vm_id) < vms_.size());
  return guest_fragmenters_[vm_id]->FragmentToTarget(target_fmfi);
}

void Machine::ShootdownGuestRange(int32_t vm_id, uint64_t vpn,
                                  uint64_t pages) {
  SIM_CHECK(!in_epoch_);
  vm(vm_id).engine().ShootdownRange(vpn, pages);
}

base::Cycles Machine::EnsureHostBacking(int32_t vm_id, uint64_t gfn,
                                        uint64_t count) {
  SIM_CHECK(!in_epoch_);
  HostVmKernel& slice = vm(vm_id).host_slice();
  base::Cycles cycles = 0;
  for (uint64_t g = gfn; g < gfn + count; ++g) {
    if (!slice.table().Lookup(g).has_value()) {
      cycles += slice.HandleFault(g);
    }
  }
  return cycles;
}

void Machine::InvalidateVmTranslations(int32_t vm_id) {
  SIM_CHECK(!in_epoch_);
  // Private arrays: stale combined entries are detected and dropped by the
  // translation engine's hit validation (modeling a tagged, precisely-
  // invalidated TLB), so a wholesale flush is unnecessary; the
  // invalidation latency is charged by the kernel as shootdown overhead.
  if (config_.tlb_mode == mmu::TlbShareMode::kPrivate) {
    return;
  }
  // Shared array: the same event is a tagged selective invalidation
  // (single-context INVEPT analogue) — only this VM's entries drop, and
  // the per-entry count lands in its vm_invalidated counter.  Hit
  // validation would also catch the staleness, but dropping eagerly means
  // the vacated ways are immediately reusable by the other tenants, which
  // is part of the sharing model being measured.
  tlb_domain_.InvalidateVm(static_cast<uint16_t>(vm_id));
}

uint64_t Machine::VmTlbMisses(int32_t vm_id) const {
  SIM_CHECK(vm_id >= 0 && static_cast<size_t>(vm_id) < vms_.size());
  return vms_[vm_id]->engine().tlb().misses();
}

}  // namespace osim
