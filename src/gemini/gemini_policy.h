// Gemini policy layer: the guest-side and host-side HugePagePolicy
// implementations plus the per-VM runtime (scanner task + channel) that
// couples them (paper §3-§5).
//
// Wiring (one per VM):
//
//   GeminiRuntime (host-side PeriodicTask)
//     owns: GeminiChannel, Mhps
//     Run(): scans guest table + EPT, refreshes misalignment lists
//        |                          |
//   GeminiGuestPolicy          GeminiHostPolicy
//     EMA spans (per VMA)        EMA anchors (per GPA region)
//     BookingManager (GFNs)      BookingManager (HPA blocks)
//     HugeBucket                 Promoter (EPT)
//     Promoter (process table)
//     BookingTimeoutController   BookingTimeoutController
//
// The ablation switches in GeminiOptions (EMA/booking, bucket) drive the
// Figure 16 performance-breakdown experiment.
#ifndef SRC_GEMINI_GEMINI_POLICY_H_
#define SRC_GEMINI_GEMINI_POLICY_H_

#include <memory>
#include <unordered_map>

#include "gemini/channel.h"
#include "gemini/ema.h"
#include "gemini/huge_booking.h"
#include "gemini/huge_bucket.h"
#include "gemini/mhps.h"
#include "gemini/promoter.h"
#include "os/machine.h"
#include "policy/policy.h"
#include "vmem/contiguity_list.h"

namespace gemini {

struct GeminiOptions {
  // Booking timeout start value and the measurement period P of
  // Algorithm 1.
  base::Cycles initial_booking_timeout = 40'000'000;
  base::Cycles controller_period = 20'000'000;
  // Ablation switches (Figure 16 breakdown).
  bool enable_ema = true;     // EMA placement + booking ("EMA/HB")
  bool enable_bucket = true;  // huge bucket
};

class GeminiRuntime;  // below

// Guest-layer policy: EMA placement of guest-physical frames, booking of
// gfn regions under misaligned host huge pages, the huge bucket, and the
// guest-side promoter.
class GeminiGuestPolicy final : public policy::HugePagePolicy {
 public:
  GeminiGuestPolicy(GeminiRuntime* runtime, const GeminiOptions& options);
  ~GeminiGuestPolicy() override;

  std::string_view name() const override { return "gemini-guest"; }
  policy::FaultDecision OnFault(policy::KernelOps& kernel,
                                const policy::FaultInfo& info) override;
  void OnDaemonTick(policy::KernelOps& kernel) override;
  bool OnFreeRegion(policy::KernelOps& kernel, uint64_t region, uint64_t frame,
                    bool contiguous) override;
  void OnVmaDestroy(int32_t vma_id) override;
  void OnMemoryPressure(policy::KernelOps& kernel) override;
  // Paper §8: under pressure, only misaligned and infrequently used huge
  // pages may be demoted; well-aligned hot ones survive.
  std::vector<uint64_t> RankHugeDemotionVictims(policy::KernelOps& kernel,
                                                size_t max_victims) override;
  policy::PolicyTelemetry Telemetry() const override;

  const Ema& ema() const { return ema_; }
  const Promoter& promoter() const { return promoter_; }
  const HugeBucket* bucket() const { return bucket_.get(); }
  const BookingManager* booking() const { return booking_.get(); }
  const BookingTimeoutController& controller() const { return controller_; }

 private:
  void EnsureComponents(policy::KernelOps& kernel);
  // Finds (or creates) the EMA target for a fault; sets `from_huge_backed`
  // when the placement region is already backed by a host huge page (a
  // booked or bucketed block), which makes an eager huge allocation safe
  // and immediately well-aligned.
  uint64_t PlacementTarget(policy::KernelOps& kernel,
                           const policy::FaultInfo& info,
                           bool& from_huge_backed);

  GeminiRuntime* runtime_;
  GeminiOptions options_;
  Ema ema_;
  Promoter promoter_;
  BookingTimeoutController controller_;
  std::unique_ptr<BookingManager> booking_;
  std::unique_ptr<HugeBucket> bucket_;
  std::unique_ptr<vmem::ContiguityList> contiguity_;
  uint64_t placement_retry_epoch_ = 0;  // backoff after placement failure
};

// Host-layer policy: EMA anchoring of EPT regions to huge-aligned host
// blocks, booking of host blocks for misaligned guest huge pages, and the
// host-side promoter.
class GeminiHostPolicy final : public policy::HugePagePolicy {
 public:
  GeminiHostPolicy(GeminiRuntime* runtime, const GeminiOptions& options);
  ~GeminiHostPolicy() override;

  std::string_view name() const override { return "gemini-host"; }
  policy::FaultDecision OnFault(policy::KernelOps& kernel,
                                const policy::FaultInfo& info) override;
  void OnDaemonTick(policy::KernelOps& kernel) override;
  policy::PolicyTelemetry Telemetry() const override;

  const Promoter& promoter() const { return promoter_; }
  const BookingManager* booking() const { return booking_.get(); }

 private:
  void EnsureComponents(policy::KernelOps& kernel);

  GeminiRuntime* runtime_;
  GeminiOptions options_;
  Promoter promoter_;
  BookingTimeoutController controller_;
  std::unique_ptr<BookingManager> booking_;
  std::unique_ptr<vmem::ContiguityList> contiguity_;
  // EMA anchors: guest-physical region -> first host frame backing it.
  std::unordered_map<uint64_t, uint64_t> anchors_;
  // Host blocks booked for specific guest-huge-misaligned regions.
  std::unordered_map<uint64_t, uint64_t> booked_for_;
  uint64_t placement_retry_epoch_ = 0;  // backoff after placement failure
};

// Per-VM runtime: owns the channel and the scanner, registered as a
// periodic machine task at the host layer.
class GeminiRuntime final : public osim::PeriodicTask {
 public:
  GeminiChannel& channel() { return channel_; }
  const Mhps& mhps() const { return mhps_; }

  // Called by InstallGemini once the VM exists.
  void Attach(const mmu::PageTable* guest_table, const mmu::PageTable* ept,
              const vmem::BuddyAllocator* guest_buddy);

  void Run(base::Cycles now) override;

 private:
  GeminiChannel channel_;
  Mhps mhps_;
  const vmem::BuddyAllocator* guest_buddy_ = nullptr;
};

// Creates a VM under Gemini: builds the runtime + both policies, adds the
// VM to the machine, attaches the scanner, and registers it to run every
// `scan_period` cycles.  Returns the VM.
osim::VirtualMachine& InstallGeminiVm(osim::Machine& machine,
                                      uint64_t gfn_count,
                                      const GeminiOptions& options = {},
                                      base::Cycles scan_period = 1'000'000);

}  // namespace gemini

#endif  // SRC_GEMINI_GEMINI_POLICY_H_
