#include "os/reclaim_daemon.h"

#include <algorithm>

#include "base/check.h"

namespace osim {

namespace {

// Watermark math (DESIGN.md §3i): with F host frames, reclaim wakes when
// free < kLowWatermark * F and each pass demotes cold pages until
// free >= kHighWatermark * F, or the per-pass budget is spent, or the far
// tier rejects (capacity).  The gap between the two watermarks is the
// burst headroom demand faults can consume between daemon ticks.
constexpr double kLowWatermark = 0.08;
constexpr double kHighWatermark = 0.15;
static_assert(kLowWatermark > 0.0 && kLowWatermark <= kHighWatermark &&
              kHighWatermark < 1.0);
// Per-pass demotion budget, bounding one tick's stall contribution.
constexpr uint64_t kMaxPagesPerPass = 8192;

}  // namespace

ReclaimDaemon::ReclaimDaemon(Machine* machine, policy::ReclaimPolicyKind kind)
    : machine_(machine), policy_(policy::MakeReclaimPolicy(kind)) {
  SIM_CHECK(machine_ != nullptr);
}

void ReclaimDaemon::Run(base::Cycles) {
  ++stats_.ticks;
  HostKernel& host = machine_->host();
  policy_->Observe(host);

  const uint64_t total = host.buddy().frame_count();
  const uint64_t low =
      static_cast<uint64_t>(kLowWatermark * static_cast<double>(total));
  const uint64_t high =
      static_cast<uint64_t>(kHighWatermark * static_cast<double>(total));
  if (host.buddy().free_frames() >= low) {
    return;
  }

  uint64_t freed = 0;
  bool progress = true;
  std::vector<policy::ReclaimVictim> victims;
  while (progress && freed < kMaxPagesPerPass &&
         host.buddy().free_frames() < high) {
    progress = false;
    victims.clear();
    policy_->RankVictims(host, /*max_victims=*/64, &victims);
    for (const policy::ReclaimVictim& v : victims) {
      if (freed >= kMaxPagesPerPass ||
          host.buddy().free_frames() >= high) {
        break;
      }
      const uint64_t got = host.vm_kernel(v.vm_id).DemoteRegionToTier(
          v.region, kMaxPagesPerPass - freed);
      freed += got;
      progress = progress || got > 0;
    }
  }
  if (freed > 0) {
    ++stats_.passes;
    stats_.pages_demoted += freed;
  }
  trace::Tracer& tracer = machine_->tracer();
  if (tracer.enabled()) {
    tracer.Emit(trace::EventKind::kReclaimPass, base::Layer::kHost, -1, freed,
                host.buddy().free_frames(), low);
  }
}

}  // namespace osim
