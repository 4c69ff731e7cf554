#include "os/ksm.h"

#include <vector>

#include "base/check.h"
#include "os/cost_model.h"

namespace osim {

using base::kHugeOrder;
using base::kPagesPerHuge;

namespace {

// Only regions whose access count is at or below this are candidates (KSM
// targets cold memory).
constexpr uint64_t kMaxHeat = 8;
// Fraction of merged pages that are later written and take a CoW fault
// (charged at merge time as expected future work).
constexpr double kCowWriteFraction = 0.25;

}  // namespace

KsmScanner::KsmScanner(Machine* machine, int32_t vm_id,
                       const KsmOptions& options)
    : machine_(machine), vm_id_(vm_id), options_(options) {
  SIM_CHECK(machine_ != nullptr);
  SIM_CHECK(options_.mergeable_fraction >= 0.0 &&
            options_.mergeable_fraction <= 1.0);
}

void KsmScanner::Run(base::Cycles now) {
  (void)now;
  ++stats_.passes;
  HostVmKernel& host = machine_->vm(vm_id_).host_slice();
  mmu::PageTable& ept = host.table();

  if (shared_frame_ == vmem::kInvalidFrame) {
    shared_frame_ = machine_->host().buddy().Allocate(0);
    if (shared_frame_ == vmem::kInvalidFrame) {
      return;  // host has nothing to spare; try again next pass
    }
    machine_->host().frames().SetUse(shared_frame_, 1, vm_id_,
                                     vmem::FrameUse::kPinned);
  }

  // Scan huge EPT leaves from the cursor; cold ones get broken and merged.
  std::vector<uint64_t> victims;
  uint64_t wrap = vmem::kInvalidFrame;
  ept.ForEachHuge([&](uint64_t region, uint64_t frame) {
    (void)frame;
    if (ept.AccessCount(region) > kMaxHeat) {
      return;
    }
    if (region >= cursor_) {
      if (victims.size() < options_.regions_per_pass) {
        victims.push_back(region);
      }
    } else if (wrap == vmem::kInvalidFrame) {
      wrap = region;
    }
  });
  if (victims.empty() && wrap != vmem::kInvalidFrame) {
    cursor_ = wrap;
    victims.push_back(wrap);
  }

  for (uint64_t region : victims) {
    cursor_ = region + 1;
    // KSM merges base pages only: the huge mapping must be split first —
    // exactly the demotion the paper worries about.
    host.Demote(region);
    ++stats_.huge_pages_broken;
    const auto merge_count = static_cast<uint64_t>(
        options_.mergeable_fraction * static_cast<double>(kPagesPerHuge));
    std::vector<std::pair<uint32_t, uint64_t>> pages;
    ept.ForEachBasePage(region, [&](uint32_t slot, uint64_t frame) {
      if (pages.size() < merge_count && frame != shared_frame_) {
        pages.emplace_back(slot, frame);
      }
    });
    std::vector<uint64_t> merged;
    merged.reserve(pages.size());
    for (const auto& [slot, frame] : pages) {
      const uint64_t gfn = (region << kHugeOrder) + slot;
      ept.UnmapBase(gfn);
      ept.MapBase(gfn, shared_frame_);
      machine_->host().frames().ClearUse(frame, 1);
      merged.push_back(frame);
      ++stats_.pages_merged;
      ++stats_.frames_reclaimed;
    }
    machine_->host().buddy().FreeFrames(merged);
    // Breaking mappings invalidates combined translations; expected CoW
    // faults for later writes are charged now (as HawkEye's model does).
    machine_->InvalidateVmTranslations(vm_id_);
    host.ChargeOverhead(
        kCosts.tlb_shootdown +
        static_cast<base::Cycles>(kCowWriteFraction *
                                  static_cast<double>(pages.size())) *
            kCosts.cow_fault);
  }
}

KsmScanner* InstallKsm(Machine& machine, int32_t vm_id,
                       const KsmOptions& options, base::Cycles period) {
  auto scanner = std::make_unique<KsmScanner>(&machine, vm_id, options);
  KsmScanner* raw = scanner.get();
  machine.AddTask(std::move(scanner), period);
  return raw;
}

}  // namespace osim
