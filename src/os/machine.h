// The whole simulated platform: host kernel, VMs, per-VM translation
// engines, the simulated clock, and the daemon scheduler.
//
// Periodic work — each layer's promotion daemon (khugepaged analogue) and
// any registered tasks such as Gemini's misaligned-huge-page scanner — runs
// whenever the workload driver advances simulated time across a period
// boundary.
#ifndef SRC_OS_MACHINE_H_
#define SRC_OS_MACHINE_H_

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "mmu/tlb_domain.h"
#include "os/hooks.h"
#include "os/host_kernel.h"
#include "os/virtual_machine.h"
#include "policy/reclaim.h"
#include "trace/tracer.h"
#include "vmem/fragmenter.h"
#include "vmem/tier_space.h"

namespace osim {

class ReclaimDaemon;

struct MachineConfig {
  // Host physical memory in 4 KiB frames.  Default 2 GiB simulated.
  uint64_t host_frames = 512 * 1024;
  // Promotion daemons tick every this many cycles.
  base::Cycles daemon_period = 2'000'000;
  uint64_t seed = 1;
  // How the VMs' L2 TLB arrays are arranged (see mmu/tlb_domain.h):
  // kPrivate gives each VM its own full array (the status quo), kShared
  // makes all VMs compete for one VMID-tagged array, kPartitioned statically
  // way-partitions one array.  Geometry is mmu::TlbConfig's.
  mmu::TlbShareMode tlb_mode = mmu::TlbShareMode::kPrivate;
  // kPartitioned / kDynamic: ways per VM at boot; 0 = even split over
  // tlb_expected_vms.
  uint32_t tlb_partition_ways = 0;
  uint32_t tlb_expected_vms = 2;
  // kDynamic: repartitioner tick interval (0 = daemon_period) and way
  // floor (see mmu/tlb_repartitioner.h).  The tick runs as a PeriodicTask,
  // so it only ever fires outside epoch-parallel phases.
  base::Cycles tlb_repart_interval = 0;
  uint32_t tlb_repart_min_ways = 1;
  // Tiered-memory overcommit (DESIGN.md §3i): when enabled, the machine
  // owns a far TierSpace shared by every VM's host kernel slice and runs a
  // watermark-driven ReclaimDaemon over it.  Disabled (the default), no
  // far tier exists and behavior is bit-identical to the pre-tiering
  // simulator.
  policy::ReclaimConfig reclaim;
};

// A periodic background component (e.g. Gemini's MHPS).  Owned by the
// machine so its lifetime covers the policies that reference it.
class PeriodicTask {
 public:
  virtual ~PeriodicTask() = default;
  virtual void Run(base::Cycles now) = 0;
};

class Machine final : public MachineHooks {
 public:
  explicit Machine(const MachineConfig& config);
  ~Machine() override;

  // Adds a VM with `gfn_count` frames of guest-physical memory and the two
  // policy instances (guest layer, host layer).
  VirtualMachine& AddVm(uint64_t gfn_count,
                        std::unique_ptr<policy::HugePagePolicy> guest_policy,
                        std::unique_ptr<policy::HugePagePolicy> host_policy);

  // Registers a periodic task; Run() fires every `period` cycles.
  void AddTask(std::unique_ptr<PeriodicTask> task, base::Cycles period);

  VirtualMachine& vm(int32_t id);
  size_t vm_count() const { return vms_.size(); }
  HostKernel& host() { return host_; }
  const MachineConfig& config() const { return config_; }

  // The machine-wide event tracer.  Disabled (zero-cost) until a caller
  // enables it; every kernel and allocator in the stack is pre-wired to it.
  trace::Tracer& tracer() { return tracer_; }
  const trace::Tracer& tracer() const { return tracer_; }

  // The TLB sharing domain the VMs' engines translate through.
  const mmu::TlbDomain& tlb_domain() const { return tlb_domain_; }

  // The shared far tier (null unless config.reclaim.enabled) and the
  // reclaim daemon driving it (null likewise).
  const vmem::TierSpace* host_tier() const { return host_tier_.get(); }
  vmem::TierSpace* host_tier() { return host_tier_.get(); }
  const ReclaimDaemon* reclaim_daemon() const { return reclaim_daemon_; }

  // One data access by the workload in `vm_id`, including `work_cycles` of
  // the workload's own compute.  Advances the clock and runs due daemons.
  VirtualMachine::AccessResult Access(int32_t vm_id, uint64_t vpn,
                                      base::Cycles work_cycles = 0);

  // A span of accesses, each including `work_cycles` of compute.  Resizes
  // `out` to vpns.size() and fills one result per VPN by calling Access per
  // element, so the clock advances and due daemons run after every access
  // and the way a stream is split into spans is unobservable
  // (tests/test_access_batch.cc pins this down).
  void AccessBatch(int32_t vm_id, std::span<const uint64_t> vpns,
                   base::Cycles work_cycles,
                   std::vector<VirtualMachine::AccessResult>* out);

  // Advances simulated time (e.g. think time) and runs due daemons.
  void AdvanceTime(base::Cycles cycles);

  // --- epoch-parallel execution (DESIGN.md §3g) ---------------------------
  //
  // Between BeginEpoch() and EpochBarrier(), each VM's lane may run on its
  // own worker thread, but only through EpochAccessBatch, and only for
  // *clean* (fault-free) translations: shared machine state (clock, daemon
  // scheduler, host kernel, shared TLB array) is frozen for the whole
  // epoch.  Private-mode VMs touch nothing shared on the clean path;
  // shared/partitioned VMs route TLB traffic through a per-VM
  // mmu::TlbEpochStage.  The barrier then (1) commits the stages in
  // canonical VM-ID order, (2) advances the clock by the sum of all lanes'
  // epoch cycles and runs due daemons, after which callers drain any
  // suspended lane remainders serially (faults, driver events).  Every
  // other mutating entry point checks !in_epoch().
  void BeginEpoch();
  // Runs the leading clean prefix of `vpns` for `vm_id`'s lane; returns how
  // many accesses completed (all of them, or the index of the first access
  // that would fault — that access is untouched and must be re-run
  // serially after the barrier).  Thread-safe across *distinct* VMs.
  // `out` must already have at least vpns.size() elements.
  size_t EpochAccessBatch(int32_t vm_id, std::span<const uint64_t> vpns,
                          base::Cycles work_cycles,
                          std::vector<VirtualMachine::AccessResult>* out);
  void EpochBarrier();
  bool in_epoch() const { return in_epoch_; }

  // Fragments host physical memory to the target FMFI (paper §6.1).
  double FragmentHostMemory(double target_fmfi);
  // Fragments one VM's guest-physical memory.
  double FragmentGuestMemory(int32_t vm_id, double target_fmfi);

  // --- MachineHooks --------------------------------------------------------
  void ShootdownGuestRange(int32_t vm_id, uint64_t vpn,
                           uint64_t pages) override;
  base::Cycles EnsureHostBacking(int32_t vm_id, uint64_t gfn,
                                 uint64_t count) override;
  void InvalidateVmTranslations(int32_t vm_id) override;
  uint64_t VmTlbMisses(int32_t vm_id) const override;
  // Logical time: equal to the raw clock between accesses, but pinned to
  // the period boundary while a daemon or periodic task runs.  A clock step
  // that overshoots a boundary therefore cannot leak the overshoot into
  // daemon decisions, keeping runs that chunk their cycles differently
  // byte-identical.
  base::Cycles Now() const override { return logical_now_; }

 private:
  // The one clock-step rule: advances now_ by `cycles`, then runs every
  // daemon and task that became due (or just tracks logical_now_).
  void StepClock(base::Cycles cycles);
  void RunDueDaemons();

  MachineConfig config_;
  base::Cycles now_ = 0;
  base::Cycles logical_now_ = 0;
  trace::Tracer tracer_;
  HostKernel host_;
  // Declared before vms_: the VMs' engines hold views into the domain's
  // physical arrays, so the domain must outlive them.
  mmu::TlbDomain tlb_domain_;
  std::vector<std::unique_ptr<VirtualMachine>> vms_;
  std::vector<std::unique_ptr<vmem::Fragmenter>> guest_fragmenters_;
  std::unique_ptr<vmem::Fragmenter> host_fragmenter_;
  // The far tier every host kernel slice demotes to (config.reclaim).
  std::unique_ptr<vmem::TierSpace> host_tier_;
  ReclaimDaemon* reclaim_daemon_ = nullptr;  // owned by tasks_

  struct ScheduledTask {
    std::unique_ptr<PeriodicTask> task;
    base::Cycles period;
    base::Cycles next_run;
  };
  std::vector<ScheduledTask> tasks_;
  base::Cycles next_daemon_ = 0;
  // min(next_daemon_, all tasks' next_run): the earliest time any periodic
  // work is due.  Maintained by AddTask and RunDueDaemons so the daemon
  // check in StepClock is one compare instead of a task scan.
  base::Cycles next_event_ = 0;
  // Epoch-parallel phase state: while in_epoch_, only EpochAccessBatch may
  // run, and each lane accumulates its cycles here (indexed by vm id) for
  // the barrier to fold into the clock.
  bool in_epoch_ = false;
  std::vector<base::Cycles> epoch_cycles_;
};

}  // namespace osim

#endif  // SRC_OS_MACHINE_H_
