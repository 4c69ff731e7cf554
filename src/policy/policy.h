// Huge-page policy interface.
//
// A HugePagePolicy instance is attached to each translation layer: one to
// every guest kernel (driving its process page table and guest-physical
// buddy) and one to the host kernel per VM (driving the EPT and the
// host-physical buddy).  The kernel performs the mechanics — allocation,
// mapping, promotion, shootdowns, cost accounting — and consults the policy
// for decisions, mirroring how Linux THP / Ingens / HawkEye / Gemini are
// policies layered over the same mm substrate.
//
// Policies see the kernel through KernelOps, a narrow capability surface,
// so that every baseline and Gemini run on byte-identical mechanics and
// differ only in decisions.
#ifndef SRC_POLICY_POLICY_H_
#define SRC_POLICY_POLICY_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "base/types.h"
#include "mmu/page_table.h"
#include "vmem/buddy_allocator.h"
#include "vmem/frame_space.h"

namespace trace {
class Tracer;
}  // namespace trace

namespace policy {

// What the kernel should do for a faulting page.
struct FaultDecision {
  // Attempt a 2 MiB allocation + huge mapping for the faulting region
  // (only honoured when the VMA covers the whole region and the region has
  // no existing mappings).
  bool try_huge = false;
  // If the huge allocation fails, stall the fault on direct compaction
  // (Linux THP "always" behaviour).  Ignored unless try_huge.
  bool synchronous_compaction = false;
  // Placement hint for the base-page (or huge-page) allocation: the exact
  // frame to allocate if it is free.  kInvalidFrame means allocator's
  // choice.  This is how EMA and CA-paging steer physical placement.
  uint64_t target_frame = vmem::kInvalidFrame;
};

// Context the kernel passes with each fault.
struct FaultInfo {
  uint64_t page = 0;           // faulting VPN (guest layer) or GFN (host)
  uint64_t region = 0;         // page >> kHugeOrder
  int32_t vma_id = -1;         // guest layer only; -1 at the host layer
  uint64_t vma_start_page = 0; // first page of the VMA (or of guest memory)
  uint64_t vma_pages = 0;      // VMA length in pages
  bool vma_first_touch = false;  // no page of this VMA was mapped before
};

// The capability surface a policy gets over its kernel.  Implemented by
// GuestKernel and HostKernel.
class KernelOps {
 public:
  virtual ~KernelOps() = default;

  virtual base::Layer layer() const = 0;
  virtual int32_t vm_id() const = 0;

  virtual vmem::BuddyAllocator& buddy() = 0;
  virtual const vmem::BuddyAllocator& buddy() const = 0;
  virtual mmu::PageTable& table() = 0;
  virtual const mmu::PageTable& table() const = 0;
  virtual vmem::FrameSpace& frames() = 0;

  // Fragmentation of this layer's physical space at huge-page order.
  virtual double Fmfi() const = 0;

  // Charges asynchronous (daemon) overhead.
  virtual void ChargeOverhead(base::Cycles cycles) = 0;

  // In-place promotion of an eligible region (CanPromoteInPlace must
  // hold).  Performs the table rewrite, charges cost, shoots down TLBs.
  virtual void PromoteInPlace(uint64_t region) = 0;

  // Migration-based promotion: allocates a free huge block (at
  // `target_frame` if provided and free, else anywhere), copies the present
  // pages, frees the old frames, maps the huge leaf.  Returns false without
  // side effects if no huge block is available.  Charges copy + shootdown
  // costs as daemon overhead.
  virtual bool PromoteWithMigration(
      uint64_t region, uint64_t target_frame = vmem::kInvalidFrame) = 0;

  // Splits a huge mapping back into base pages.
  virtual void Demote(uint64_t region) = 0;

  // TLB misses observed by this layer's VM since the last call (used by
  // Gemini's Algorithm 1 timeout controller).
  virtual uint64_t DrainTlbMisses() = 0;

  // Current simulated time.
  virtual base::Cycles Now() const = 0;

  // The machine's tracer, for policy-owned components (bookings, buckets)
  // to emit tracepoints through.  Null when the kernel has no machine
  // (unit tests) — and emission is a no-op unless tracing is enabled.
  virtual trace::Tracer* tracer() const { return nullptr; }
};

// Mechanism counters and gauges a policy exposes for observability: the
// per-run aggregate view (metrics::StackSnapshot) and the trace sampler's
// time series both read this one struct, so the two views are computed
// from the same registry and can never disagree.  Counters are cumulative
// since policy creation; gauges are instantaneous.
struct PolicyTelemetry {
  uint64_t bookings_started = 0;   // successful BookingManager::Book calls
  uint64_t bookings_assigned = 0;  // bookings consumed by an allocation
  uint64_t bookings_expired = 0;   // bookings lost to timeout
  uint64_t bookings_active = 0;    // gauge: regions booked right now
  uint64_t bucket_deposits = 0;    // regions retained by the huge bucket
  uint64_t bucket_hits = 0;        // retained regions reused whole
  uint64_t bucket_evictions = 0;   // retention expiry + pressure releases
  uint64_t bucket_held = 0;        // gauge: regions held right now
  base::Cycles booking_timeout = 0;  // gauge: effective timeout (Algorithm 1)
};

class HugePagePolicy {
 public:
  virtual ~HugePagePolicy() = default;

  virtual std::string_view name() const = 0;

  // Decision for a demand fault.  Called before any allocation.
  virtual FaultDecision OnFault(KernelOps& kernel, const FaultInfo& info) = 0;

  // Periodic background pass (khugepaged analogue).
  virtual void OnDaemonTick(KernelOps& kernel) = 0;

  // A mapped region is being freed (guest layer: VMA teardown).  Return
  // true to take ownership of the region's frames (Gemini's huge bucket
  // does this for well-aligned regions); the kernel then skips the buddy
  // free.  `frame` is the first frame of the region's backing and is only
  // whole-region-meaningful when `contiguous` is set.
  virtual bool OnFreeRegion(KernelOps& kernel, uint64_t region, uint64_t frame,
                            bool contiguous) {
    (void)kernel;
    (void)region;
    (void)frame;
    (void)contiguous;
    return false;
  }

  // A VMA is fully unmapped (guest layer).  Lets policies drop per-VMA
  // state (EMA offset descriptors).
  virtual void OnVmaDestroy(int32_t vma_id) { (void)vma_id; }

  // The kernel is out of frames: release any memory the policy is holding
  // back (reservations, retained buckets).  Called before the kernel
  // resorts to demotion and swapping.
  virtual void OnMemoryPressure(KernelOps& kernel) { (void)kernel; }

  // Ranks huge regions for demotion under memory pressure, most-expendable
  // first.  The default prefers the coldest regions; Gemini's override
  // (paper §8) demotes misaligned and infrequently used huge pages first
  // so that well-aligned ones survive pressure.
  virtual std::vector<uint64_t> RankHugeDemotionVictims(KernelOps& kernel,
                                                        size_t max_victims);

  // Observability counters/gauges (see PolicyTelemetry).  Baselines with no
  // booking/bucket machinery report zeros.
  virtual PolicyTelemetry Telemetry() const { return {}; }
};

// True when the layer has enough free memory that creating another huge
// page will not push it towards OOM.  Promotion policies use this as the
// watermark guard Linux applies before huge allocations (fall back to base
// pages under pressure instead of reclaiming).
bool HasFreeMemoryHeadroom(const KernelOps& kernel,
                           double min_free_fraction = 1.0 / 16.0);

}  // namespace policy

#endif  // SRC_POLICY_POLICY_H_
