// KSM-style memory deduplication (paper §8, future work).
//
// The paper flags memory deduplication as a mechanism that "may demote huge
// pages that are created by Gemini and reduce [its] performance".  This
// module models the Linux KSM behaviour that matters for that interplay:
// a periodic host-side scanner that finds cold, duplicate-rich VM memory,
// breaks its huge EPT mappings (KSM only merges base pages), remaps the
// duplicate pages to a shared frame, and frees the rest — reclaiming host
// memory at the cost of alignment and later copy-on-write faults.
//
// Content equality is not simulated; instead a configurable fraction of a
// victim region's pages is treated as mergeable (zero/duplicate pages),
// which is how dedup ratios are usually characterized.
#ifndef SRC_OS_KSM_H_
#define SRC_OS_KSM_H_

#include <cstdint>

#include "os/machine.h"

namespace osim {

struct KsmOptions {
  // Fraction of a scanned region's pages assumed mergeable.
  double mergeable_fraction = 0.5;
  // Regions scanned per pass.
  uint32_t regions_per_pass = 4;
};

struct KsmStats {
  uint64_t passes = 0;
  uint64_t huge_pages_broken = 0;
  uint64_t pages_merged = 0;
  uint64_t frames_reclaimed = 0;
};

// Periodic host task deduplicating one VM's memory.
class KsmScanner final : public PeriodicTask {
 public:
  KsmScanner(Machine* machine, int32_t vm_id, const KsmOptions& options);

  void Run(base::Cycles now) override;

  const KsmStats& stats() const { return stats_; }

 private:
  Machine* machine_;
  int32_t vm_id_;
  KsmOptions options_;
  KsmStats stats_;
  uint64_t cursor_ = 0;  // EPT region scan cursor
  // The shared frame duplicate pages are remapped to.
  uint64_t shared_frame_ = vmem::kInvalidFrame;
};

// Convenience: installs a scanner on the machine (which owns it).
KsmScanner* InstallKsm(Machine& machine, int32_t vm_id,
                       const KsmOptions& options = {},
                       base::Cycles period = 4'000'000);

}  // namespace osim

#endif  // SRC_OS_KSM_H_
