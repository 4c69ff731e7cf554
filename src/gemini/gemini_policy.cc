#include "gemini/gemini_policy.h"

#include <algorithm>
#include <vector>

#include "base/check.h"
#include "os/cost_model.h"

namespace gemini {

using base::kHugeOrder;
using base::kPagesPerHuge;
using policy::FaultDecision;
using policy::FaultInfo;
using policy::KernelOps;
using vmem::kInvalidFrame;

namespace {

// How long the huge bucket retains freed well-aligned regions.
constexpr base::Cycles kBucketRetention = 2'000'000'000;
// Bookings initiated per daemon tick (scan batching).
constexpr uint32_t kBookingsPerTick = 64;
// Algorithm 1's starting booking timeout (its period P is the
// controller's, in huge_booking.cc).
constexpr base::Cycles kInitialBookingTimeout = 40'000'000;
// How often the runtime's MHPS scan runs.
constexpr base::Cycles kScanPeriod = 1'000'000;

base::Cycles StartingTimeout(const GeminiOptions& options) {
  return options.fixed_booking_timeout != 0 ? options.fixed_booking_timeout
                                            : kInitialBookingTimeout;
}

}  // namespace

// --- GeminiGuestPolicy -----------------------------------------------------

GeminiGuestPolicy::GeminiGuestPolicy(GeminiRuntime* runtime,
                                     const GeminiOptions& options)
    : runtime_(runtime),
      options_(options),
      controller_(StartingTimeout(options)) {
  SIM_CHECK(runtime_ != nullptr);
}

GeminiGuestPolicy::~GeminiGuestPolicy() = default;

void GeminiGuestPolicy::EnsureComponents(KernelOps& kernel) {
  if (booking_ == nullptr) {
    booking_ = std::make_unique<BookingManager>(
        &kernel.buddy(), &kernel.frames(), kernel.vm_id(), kernel.tracer(),
        kernel.layer());
    bucket_ = std::make_unique<HugeBucket>(
        &kernel.buddy(), &kernel.frames(), kernel.vm_id(),
        kBucketRetention, kernel.tracer(), kernel.layer());
    contiguity_ = std::make_unique<vmem::ContiguityList>(&kernel.buddy());
  }
}

uint64_t GeminiGuestPolicy::PlacementTarget(KernelOps& kernel,
                                            const FaultInfo& info,
                                            bool& from_huge_backed) {
  from_huge_backed = false;
  if (!options_.enable_ema && !options_.enable_bucket) {
    return kInvalidFrame;
  }
  uint64_t target = ema_.TargetFor(info.vma_id, info.page);
  if (target != kInvalidFrame) {
    if (kernel.buddy().IsFrameFree(target)) {
      from_huge_backed = runtime_->channel().HostHuge(target >> kHugeOrder);
      return target;
    }
    // Target GPA unavailable (taken since placement): keep the consumed
    // prefix of the span and re-place the remainder (sub-VMA, Fig. 7).
    ema_.SplitSpanAt(info.vma_id, info.page);
  }

  const uint64_t vma_end = info.vma_start_page + info.vma_pages;
  uint64_t window_lo = 0;
  uint64_t window_hi = 0;
  ema_.UncoveredWindow(info.vma_id, info.page, info.vma_start_page, vma_end,
                       &window_lo, &window_hi);
  const uint64_t chunk_start =
      std::max(info.page & ~(kPagesPerHuge - 1), window_lo);
  SIM_CHECK(window_hi > chunk_start && info.page >= chunk_start);
  const uint64_t remaining = window_hi - chunk_start;

  uint64_t frame = kInvalidFrame;
  uint64_t span_pages = 0;

  // 1) A booked region: guest-physical space under a misaligned host huge
  //    page, reserved exactly for this moment.
  if (options_.enable_ema) {
    frame = booking_->AssignAny();
    if (frame != kInvalidFrame) {
      span_pages = std::min<uint64_t>(remaining, kPagesPerHuge);
      from_huge_backed = true;
    }
  }
  // 2) A bucketed region: freed well-aligned space still backed huge.
  if (frame == kInvalidFrame && options_.enable_bucket) {
    frame = bucket_->TakeAny();
    if (frame != kInvalidFrame) {
      span_pages = std::min<uint64_t>(remaining, kPagesPerHuge);
      from_huge_backed = runtime_->channel().HostHuge(frame >> kHugeOrder);
    }
  }
  // 3) A contiguous huge-aligned extent fitting the whole remaining VMA.
  //    Placement searches are throttled after a failure: re-trying on every
  //    fault while the free map is essentially unchanged is wasted work.
  const bool search_worthwhile =
      options_.enable_ema &&
      kernel.buddy().mutation_epoch() >= placement_retry_epoch_;
  if (frame == kInvalidFrame && search_worthwhile) {
    contiguity_->Refresh(remaining);
    frame = contiguity_->FindFit(remaining, /*huge_aligned=*/true);
    if (frame != kInvalidFrame) {
      span_pages = remaining;
    }
    // 4) Sub-VMA (Fig. 7): no extent fits the whole VMA; take the largest
    //    usable huge-aligned piece and cover what we can — one region at
    //    minimum — leaving the rest for later placements.
    if (frame == kInvalidFrame) {
      const vmem::ContiguityList::Extent ext = contiguity_->LargestExtent();
      const uint64_t aligned =
          (ext.frame + kPagesPerHuge - 1) & ~(kPagesPerHuge - 1);
      if (ext.count > 0 && aligned + kPagesPerHuge <= ext.frame + ext.count) {
        const uint64_t avail = ext.frame + ext.count - aligned;
        frame = aligned;
        span_pages = std::min<uint64_t>(remaining, avail);
        // The span reserves nothing: the list shows these frames as free
        // until faults allocate them and a later Refresh sees it, and the
        // next-fit cursor stays put (only a successful FindFit moves it),
        // so a later placement can be offered frames of this extent.
      } else if (ext.count >= 64) {
        // 5) No aligned space at all: still place contiguously in the
        //    largest extent.  Contiguity for its own sake pays later —
        //    when such a region is eventually migrated, the freed run is
        //    contiguous and re-merges into allocatable blocks ("fitting
        //    the entire VMA can increase memory contiguity and reduce
        //    memory fragmentation", paper §5).
        frame = ext.frame;
        span_pages = std::min<uint64_t>(remaining, ext.count);
      }
    }
    if (frame == kInvalidFrame) {
      // Exponentially backed-off retry: wait for the free map to change
      // materially before searching again.
      placement_retry_epoch_ = kernel.buddy().mutation_epoch() + 512;
    }
  }
  if (frame == kInvalidFrame) {
    return kInvalidFrame;  // no contiguity anywhere; default placement
  }
  const int64_t offset =
      static_cast<int64_t>(chunk_start) - static_cast<int64_t>(frame);
  ema_.AddSpan(info.vma_id, chunk_start, span_pages, offset);
  return static_cast<uint64_t>(static_cast<int64_t>(info.page) - offset);
}

FaultDecision GeminiGuestPolicy::OnFault(KernelOps& kernel,
                                         const FaultInfo& info) {
  EnsureComponents(kernel);
  FaultDecision decision;
  bool from_huge_backed = false;
  const uint64_t target = PlacementTarget(kernel, info, from_huge_backed);
  if (target == kInvalidFrame) {
    return decision;
  }
  decision.target_frame = target;
  // Huge pages are formed asynchronously (in-place promotion /
  // preallocation by the promoter) rather than at fault time: synchronous
  // 2 MiB zeroing on the request path is exactly the THP latency spike the
  // paper's design avoids.  `from_huge_backed` regions are preferred by
  // the promoter's preallocation pass.
  (void)from_huge_backed;
  return decision;
}

void GeminiGuestPolicy::OnDaemonTick(KernelOps& kernel) {
  EnsureComponents(kernel);
  const base::Cycles now = kernel.Now();
  GeminiChannel& channel = runtime_->channel();

  // Algorithm 1: when a measurement period ends, adjust the booking
  // timeout.  A fixed timeout never ticks the controller.
  if (options_.fixed_booking_timeout == 0) {
    controller_.OnDaemonTick(kernel);
  }

  booking_->ExpireTimeouts(now);

  if (!policy::HasFreeMemoryHeadroom(kernel)) {
    // Memory pressure: reservations and retained regions go back first.
    booking_->ReleaseAll();
    bucket_->ReleaseSome(bucket_->held_count() / 2 + 1);
  } else if (options_.enable_ema) {
    // Book the guest-physical regions of type-1 misaligned host huge
    // pages: nothing is allocated there yet, so reserving them keeps the
    // future fix migration-free.
    uint32_t quota = kBookingsPerTick;
    for (const auto& [region, status] : channel.host_huge_misaligned) {
      if (quota == 0) {
        break;
      }
      if (status.type2) {
        continue;
      }
      const uint64_t frame = region << kHugeOrder;
      kernel.ChargeOverhead(osim::kCosts.daemon_scan_region);
      if (booking_->IsBooked(frame)) {
        continue;
      }
      if (booking_->Book(frame, now, controller_.effective_timeout())) {
        --quota;
      }
    }
  }

  if (options_.enable_bucket) {
    bucket_->ExpireRetention(now);
  }

  promoter_.RunGuestTick(kernel, channel);
}

bool GeminiGuestPolicy::OnFreeRegion(KernelOps& kernel, uint64_t region,
                                     uint64_t frame, bool contiguous) {
  (void)region;
  if (!options_.enable_bucket || !contiguous ||
      frame % kPagesPerHuge != 0) {
    return false;
  }
  EnsureComponents(kernel);
  // Retain only regions whose host backing is huge: those are the
  // well-aligned (or instantly alignable) ones worth keeping whole.
  if (!runtime_->channel().HostHuge(frame >> kHugeOrder)) {
    return false;
  }
  bucket_->Deposit(frame, kernel.Now());
  return true;
}

void GeminiGuestPolicy::OnVmaDestroy(int32_t vma_id) {
  ema_.DropVma(vma_id);
}

void GeminiGuestPolicy::OnMemoryPressure(policy::KernelOps& kernel) {
  EnsureComponents(kernel);
  booking_->ReleaseAll();
  bucket_->ReleaseAll();
}

std::vector<uint64_t> GeminiGuestPolicy::RankHugeDemotionVictims(
    policy::KernelOps& kernel, size_t max_victims) {
  // Misaligned first (cheap to give up), then cold well-aligned ones;
  // never a hot well-aligned page while alternatives exist.
  struct Victim {
    bool aligned;
    uint64_t heat;
    uint64_t region;
  };
  std::vector<Victim> victims;
  kernel.table().ForEachHuge([&](uint64_t region, uint64_t frame) {
    victims.push_back(Victim{
        runtime_->channel().HostHuge(frame >> kHugeOrder),
        kernel.table().AccessCount(region), region});
  });
  std::sort(victims.begin(), victims.end(),
            [](const Victim& a, const Victim& b) {
              if (a.aligned != b.aligned) {
                return !a.aligned;  // misaligned first
              }
              return a.heat < b.heat;  // then coldest
            });
  std::vector<uint64_t> out;
  for (const Victim& v : victims) {
    if (out.size() >= max_victims) {
      break;
    }
    out.push_back(v.region);
  }
  return out;
}

policy::PolicyTelemetry GeminiGuestPolicy::Telemetry() const {
  policy::PolicyTelemetry t;
  if (booking_ != nullptr) {
    t.bookings_started = booking_->started();
    t.bookings_assigned = booking_->assigned();
    t.bookings_expired = booking_->expired();
    t.bookings_active = booking_->booked_count();
  }
  if (bucket_ != nullptr) {
    t.bucket_deposits = bucket_->deposits();
    t.bucket_hits = bucket_->reuses();
    t.bucket_evictions = bucket_->evictions();
    t.bucket_held = bucket_->held_count();
  }
  t.booking_timeout = controller_.effective_timeout();
  return t;
}

// --- GeminiHostPolicy --------------------------------------------------------

GeminiHostPolicy::GeminiHostPolicy(GeminiRuntime* runtime,
                                   const GeminiOptions& options)
    : runtime_(runtime),
      options_(options),
      controller_(StartingTimeout(options)) {
  SIM_CHECK(runtime_ != nullptr);
}

GeminiHostPolicy::~GeminiHostPolicy() = default;

void GeminiHostPolicy::EnsureComponents(KernelOps& kernel) {
  if (booking_ == nullptr) {
    booking_ = std::make_unique<BookingManager>(
        &kernel.buddy(), &kernel.frames(), kernel.vm_id(), kernel.tracer(),
        kernel.layer());
    contiguity_ = std::make_unique<vmem::ContiguityList>(&kernel.buddy());
  }
}

FaultDecision GeminiHostPolicy::OnFault(KernelOps& kernel,
                                        const FaultInfo& info) {
  EnsureComponents(kernel);
  FaultDecision decision;
  if (!options_.enable_ema) {
    return decision;
  }
  GeminiChannel& channel = runtime_->channel();
  const uint64_t region = info.region;

  uint64_t anchor = kInvalidFrame;
  auto anchor_it = anchors_.find(region);
  if (anchor_it != anchors_.end()) {
    anchor = anchor_it->second;
  }
  if (anchor == kInvalidFrame) {
    // A block booked for this region (the region is the target of a
    // misaligned guest huge page)?
    auto booked_it = booked_for_.find(region);
    if (booked_it != booked_for_.end() &&
        booking_->IsBooked(booked_it->second)) {
      anchor = booked_it->second;
      booking_->Assign(anchor);  // release for the targeted allocation
      booked_for_.erase(booked_it);
      anchors_[region] = anchor;
    }
  }
  // Anchoring spends scarce huge-aligned host contiguity, so it is strictly
  // reactive: only regions the scanner has identified as targets of guest
  // huge pages get aligned placement.  Everything else (VM boot, page
  // cache, not-yet-promoted data) takes default placement and leaves the
  // aligned extents for the regions where they buy alignment — the paper's
  // "preferentially ... from these regions and less from other regions".
  const bool anchor_worthy = channel.GuestHugeTarget(region);
  if (anchor == kInvalidFrame && anchor_worthy &&
      kernel.buddy().mutation_epoch() >= placement_retry_epoch_) {
    contiguity_->Refresh(kPagesPerHuge);
    const uint64_t fit =
        contiguity_->FindFit(kPagesPerHuge, /*huge_aligned=*/true);
    if (fit != kInvalidFrame) {
      anchor = fit;
      anchors_[region] = fit;
    } else {
      placement_retry_epoch_ = kernel.buddy().mutation_epoch() + 512;
    }
  }
  if (anchor == kInvalidFrame) {
    return decision;
  }

  const uint64_t slot = info.page & (kPagesPerHuge - 1);
  const uint64_t target = anchor + slot;
  if (!kernel.buddy().IsFrameFree(target)) {
    anchors_.erase(region);  // stale anchor; re-place on the next fault
    return decision;
  }
  decision.target_frame = target;
  // Misaligned guest huge page over an empty region (type-1): back the
  // whole region with one huge host page right now.
  if (channel.GuestHugeTarget(region) &&
      kernel.buddy().IsRangeFree(anchor, kPagesPerHuge)) {
    decision.try_huge = true;
    decision.target_frame = anchor;
  }
  return decision;
}

void GeminiHostPolicy::OnDaemonTick(KernelOps& kernel) {
  EnsureComponents(kernel);
  const base::Cycles now = kernel.Now();
  GeminiChannel& channel = runtime_->channel();

  if (options_.fixed_booking_timeout == 0) {
    controller_.OnDaemonTick(kernel);
  }

  booking_->ExpireTimeouts(now);
  for (auto it = booked_for_.begin(); it != booked_for_.end();) {
    if (!booking_->IsBooked(it->second)) {
      it = booked_for_.erase(it);  // expired underneath us
    } else {
      ++it;
    }
  }

  if (!policy::HasFreeMemoryHeadroom(kernel)) {
    booking_->ReleaseAll();
    booked_for_.clear();
  } else if (options_.enable_ema) {
    // Book host blocks for type-1 misaligned guest huge pages so the next
    // EPT fault can back them huge, in place.  The list is refreshed once,
    // before the tick's first fit, so a tick with nothing to book reads
    // nothing, and every fit of the tick reads the free map as it was
    // before the tick's bookings (DESIGN.md §3j).
    uint32_t quota = kBookingsPerTick;
    bool refreshed = false;
    for (const auto& [region, status] : channel.guest_huge_misaligned) {
      if (quota == 0) {
        break;
      }
      kernel.ChargeOverhead(osim::kCosts.daemon_scan_region);
      if (status.type2 || booked_for_.count(region) != 0) {
        continue;
      }
      if (!refreshed) {
        contiguity_->Refresh(kPagesPerHuge);
        refreshed = true;
      }
      const uint64_t frame =
          contiguity_->FindFit(kPagesPerHuge, /*huge_aligned=*/true);
      if (frame == kInvalidFrame) {
        break;
      }
      if (booking_->Book(frame, now, controller_.effective_timeout())) {
        booked_for_[region] = frame;
        --quota;
      }
    }
  }

  promoter_.RunHostTick(kernel, channel);
}

policy::PolicyTelemetry GeminiHostPolicy::Telemetry() const {
  policy::PolicyTelemetry t;
  if (booking_ != nullptr) {
    t.bookings_started = booking_->started();
    t.bookings_assigned = booking_->assigned();
    t.bookings_expired = booking_->expired();
    t.bookings_active = booking_->booked_count();
  }
  t.booking_timeout = controller_.effective_timeout();
  return t;
}

// --- GeminiRuntime -----------------------------------------------------------

void GeminiRuntime::Attach(const mmu::PageTable* guest_table,
                           const mmu::PageTable* ept,
                           const vmem::BuddyAllocator* guest_buddy) {
  channel_.guest_table = guest_table;
  channel_.ept = ept;
  guest_buddy_ = guest_buddy;
}

void GeminiRuntime::Run(base::Cycles now) {
  SIM_CHECK(channel_.guest_table != nullptr && channel_.ept != nullptr &&
            guest_buddy_ != nullptr);
  mhps_.ScanVm(*channel_.guest_table, *channel_.ept, *guest_buddy_, now,
               channel_);
}

osim::VirtualMachine& InstallGeminiVm(osim::Machine& machine,
                                      uint64_t gfn_count,
                                      const GeminiOptions& options) {
  auto runtime = std::make_unique<GeminiRuntime>();
  GeminiRuntime* rt = runtime.get();
  osim::VirtualMachine& vm = machine.AddVm(
      gfn_count, std::make_unique<GeminiGuestPolicy>(rt, options),
      std::make_unique<GeminiHostPolicy>(rt, options));
  rt->Attach(&vm.guest().table(), &vm.host_slice().table(),
             &vm.guest().buddy());
  machine.AddTask(std::move(runtime), kScanPeriod);
  return vm;
}

}  // namespace gemini
