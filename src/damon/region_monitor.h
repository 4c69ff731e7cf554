// Region-based access monitoring in the style of the DAMON work
// (sjp38, "DAMON: Data Access MONitor", merged in Linux 5.15).
//
// The core idea: instead of tracking every page's access bit (O(memory)),
// keep a bounded set of regions whose pages are assumed to have similar
// access frequency, sample ONE page per region per sampling interval, and
// adaptively split/merge regions so the assumption stays true.  Overhead is
// then O(regions), independent of memory size, while hot/cold resolution
// adapts to the workload's actual locality structure.
//
// This simulator drives the monitor as a PeriodicTask tick at daemon
// boundaries (see os/reclaim_daemon.h), so its observations — like every
// other daemon's — are a pure function of the simulated access stream and
// the seed, never of the executor's thread count or batch size.
//
// Sampling model.  On real hardware DAMON clears a page's accessed bit at
// the start of a sampling interval and reads it at the end.  The simulator
// has no async interval, but the page tables keep monotone per-region
// access counters; sampling is therefore two-phase across consecutive
// ticks: tick T *arms* one uniformly random page per region (recording the
// page's current access count), and tick T+1 *checks* it (accessed iff the
// count increased), then arms the next page.  This is exactly the
// mkold-then-check protocol with the tick period as the interval.  With a
// monotone counter the check is exact; if the counter is externally halved
// between arm and check (promotion policies age the same counters with
// DecayAccessCounts) the check stays conservative — a decayed-but-idle
// page never reads as accessed.
//
// Aggregation.  Every `aggregation_ticks` checks, each region's per-window
// access tally is published (last_nr_accesses), ages advance, and the
// layout adapts:
//   merge: adjacent regions whose tallies differ by <= merge_threshold
//          fuse (length-weighted average of tallies and ages), stopping at
//          min_regions;
//   split: while the region count is at or below half of max_regions every
//          region of length >= 2 splits at a uniformly random interior
//          point (exploration); otherwise the longest regions split first
//          until max_regions is reached.  Halves inherit the published
//          tally and age.
// Both passes are recorded in a layout-op log, and every check lands in a
// sample log, so tests can verify the monitor differentially against a
// brute-force per-page tracker without replicating the RNG stream
// (tests/test_damon.cc).
#ifndef SRC_DAMON_REGION_MONITOR_H_
#define SRC_DAMON_REGION_MONITOR_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "base/rng.h"
#include "base/types.h"

namespace damon {

struct MonitorConfig {
  // Adaptive region-count bounds (DAMON's min_nr_regions/max_nr_regions).
  uint32_t min_regions = 8;
  uint32_t max_regions = 64;
  // Sampling checks per aggregation window.
  uint32_t aggregation_ticks = 4;
  // Adjacent regions merge when |tally difference| <= this (in samples).
  uint32_t merge_threshold = 1;
  uint64_t seed = 1;
};

// One monitored region: [start, start + len) in abstract page units (the
// reclaim daemon monitors EPT huge-region indices, so one "page" here is
// one 2 MiB guest-physical region).
struct Region {
  uint64_t start = 0;
  uint64_t len = 0;
  // Accesses observed in the current (unfinished) window: one increment
  // per sampled-accessed check, so <= aggregation_ticks.
  uint32_t nr_accesses = 0;
  // The last completed window's tally — what cold ranking reads.
  uint32_t last_nr_accesses = 0;
  // Aggregation windows this region has existed (length-weighted average
  // across merges, inherited by splits).
  uint32_t age = 0;
};

// One sampling check (phase two of the two-phase protocol).
struct SampleRecord {
  uint64_t region_start = 0;  // region identity at check time
  uint64_t page = 0;          // the armed page
  uint64_t armed_count = 0;   // page's access count when armed
  uint64_t checked_count = 0; // page's access count at the check
  bool accessed = false;      // checked_count > armed_count
};

// One adaptive-layout operation from the most recent aggregation.
struct LayoutOp {
  enum class Kind : uint8_t { kMerge, kSplit };
  Kind kind = Kind::kMerge;
  // kMerge: left/right are the fused neighbors' starts.
  // kSplit: left is the split region's start, right the split point
  // (absolute page index strictly inside the region).
  uint64_t left = 0;
  uint64_t right = 0;
};

struct MonitorStats {
  uint64_t ticks = 0;
  uint64_t aggregations = 0;
  uint64_t samples_checked = 0;
  uint64_t samples_accessed = 0;
  uint64_t merges = 0;
  uint64_t splits = 0;
};

class RegionMonitor {
 public:
  // Monitors [0, span_pages).  span_pages must be >= 1; the initial layout
  // is min(min_regions, span_pages) equal slices.
  RegionMonitor(const MonitorConfig& config, uint64_t span_pages);

  // One sampling tick.  `access_count` maps a page index to a monotone
  // access counter (the simulator's per-region page-table counters).
  // Checks last tick's armed pages, then arms this tick's; every
  // aggregation_ticks checks, publishes tallies and adapts the layout.
  void Tick(const std::function<uint64_t(uint64_t)>& access_count);

  // Regions in address order (they tile [0, span) exactly).
  const std::vector<Region>& regions() const { return regions_; }

  // The most recent tick's checks and the most recent aggregation's
  // layout ops, for differential testing and tracing.
  const std::vector<SampleRecord>& last_samples() const {
    return last_samples_;
  }
  const std::vector<LayoutOp>& last_layout_ops() const {
    return last_layout_ops_;
  }

  // Region starts ordered coldest first: ascending last_nr_accesses, then
  // descending age (a long-cold region beats a freshly cold one), then
  // ascending start.  Only regions from completed windows are meaningful;
  // callers should skip regions whose pages are not reclaimable anyway.
  std::vector<Region> ColdOrder() const;

  const MonitorConfig& config() const { return config_; }
  const MonitorStats& stats() const { return stats_; }
  uint64_t span_pages() const { return span_; }

 private:
  struct Armed {
    uint64_t page = 0;
    uint64_t count = 0;
    bool valid = false;
  };

  void Aggregate();
  void MergePass();
  void SplitPass();
  void SplitRegionAt(size_t index, uint64_t at);

  MonitorConfig config_;
  uint64_t span_;
  base::Rng rng_;
  std::vector<Region> regions_;
  std::vector<Armed> armed_;  // parallel to regions_
  std::vector<SampleRecord> last_samples_;
  std::vector<LayoutOp> last_layout_ops_;
  uint32_t ticks_since_aggregation_ = 0;
  MonitorStats stats_;
};

}  // namespace damon

#endif  // SRC_DAMON_REGION_MONITOR_H_
