// Machine-readable result export: CSV and JSON renderings of RunResult
// collections, so bench outputs can be plotted or regression-tracked
// without scraping the text tables.
//
// Row schema (one object per (workload, system) sweep cell; identical
// field set and order in CSV and JSON — see BENCHMARKS.md for the env-var
// contract that triggers export from the bench binaries):
//
//   field             | type   | unit / meaning
//   ------------------+--------+------------------------------------------
//   workload          | string | workload spec name (JSON-escaped)
//   system            | string | harness::SystemName of the column
//   throughput        | number | ops per 1000 simulated cycles
//   mean_latency      | number | simulated cycles per request
//   p99_latency       | number | simulated cycles, 99th percentile
//   tlb_misses        | int    | count over the measured phase
//   stale_hits        | int    | TLB hits reclassified as misses because the
//                     |        | cached translation went stale (precise
//                     |        | invalidation); subset of tlb_misses
//   tlb_miss_rate     | number | misses / accesses, 0..1
//   well_aligned_rate | number | well-aligned huge pages / guest huge, 0..1
//   guest_huge        | int    | guest huge pages at end of run
//   host_huge         | int    | host (EPT) huge pages at end of run
//   bookings_started  | int    | booking reservations made (both layers)
//   bookings_expired  | int    | bookings lost to timeout (both layers)
//   bucket_hits       | int    | huge-bucket regions reused by placement
//   demotions         | int    | huge mappings demoted (both layers)
//   tier_demoted      | int    | host pages demoted to the far tier over the
//                     |        | measured phase (0 without GEMINI_OVERCOMMIT)
//   tier_refaults     | int    | far-tier pages faulted back to near memory
//   tier_resident     | int    | far-resident pages when the phase ended (a
//                     |        | level, like ways_assigned — not a count)
//   tlb_mode          | string | TLB sharing arrangement of the cell:
//                     |        | private / shared / partitioned
//   cross_vm_evictions| int    | this VM's TLB entries evicted by another
//                     |        | VM's fills (0 under private)
//   vm_invalidated    | int    | entries dropped by tagged selective
//                     |        | invalidation of this VM (0 under private)
//   conflict_evictions| int    | valid-entry evictions while free ways
//                     |        | remained elsewhere in the inserter's window
//   capacity_evictions| int    | valid-entry evictions with the window full
//   displaced_by_self | int    | misses the utility monitor proved were
//                     |        | caused by an entry this VM's own fills
//                     |        | displaced (0 under private: no monitor)
//   displaced_by_other| int    | misses proved caused by another VM's fill
//                     |        | (cross-VM interference, by attribution)
//   util_shadow_hits  | int    | shadow-tag sampler hits at any stack depth
//   util_shadow_misses| int    | sampled accesses missing the full-depth
//                     |        | per-VM LRU stack (would miss at any ways)
//   util_min_ways_90  | int    | smallest dedicated way count covering 90%
//                     |        | of the VM's shadow hits; 0 when none
//   ways_assigned     | int    | ways the VM could fill when the phase
//                     |        | ended (its way window's size; the full
//                     |        | associativity under private mode).  A
//                     |        | level, not a count — under dynamic mode it
//                     |        | moves with every repartition
//   repartitions      | int    | applied dynamic repartitions over the
//                     |        | phase, domain-wide — but deltaed over
//                     |        | each VM's own measured window, so
//                     |        | collocated rows can differ (0 outside
//                     |        | dynamic mode)
//   repartition_evictions | int| this VM's entries dropped because a
//                     |        | repartition moved its way window
//   lat_p50           | int    | translation-latency percentiles, cycles:
//   lat_p90           | int    | nearest-rank over the log2-bucket
//   lat_p99           | int    | histogram, bucket upper bound reported
//   walk_guest_mem_l{4,3,2,1}  | int | guest-dimension table reads served
//                     |        | from memory, per walk level (L4 = PML4 ..
//                     |        | L1 = PT); see DESIGN.md §3e
//   walk_guest_pwc_l{4,3} | int | guest-dimension reads served by the
//                     |        | page-walk cache (only L4/L3 are covered,
//                     |        | so lower levels are omitted)
//   walk_host_mem_l{4,3,2,1}   | int | host-dimension reads from memory
//   walk_host_pwc_l{4,3}  | int | host-dimension reads PWC-served
//   walk_nested_hit_l{4,3,2,1} | int | guest-table-page translations served
//                     |        | by the nested translation caches
//   walk_nested_walk_l{4,3,2,1}| int | guest-table-page translations that
//                     |        | needed a full host-dimension walk
//   walk_memo_hits    | int    | full walk-memo replays (all guest levels)
//   walk_memo_upper_hits | int | upper-level replays with a live PT probe
//   busy_cycles       | int    | simulated cycles of the measured phase
//   wall_ms           | number | host wall-clock of the cell, milliseconds
//   seed              | int    | BedOptions::seed that produced the cell
//
// Every field except wall_ms is deterministic: same seed, same values, at
// any GEMINI_JOBS count.  wall_ms is real host time — use it to track the
// simulator's own performance, never to compare systems.
#ifndef SRC_METRICS_EXPORT_H_
#define SRC_METRICS_EXPORT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace workload {
struct RunResult;
}  // namespace workload

namespace metrics {

// One measurement row: a (workload, system) cell of a sweep.
struct ResultRow {
  std::string workload;
  std::string system;
  const workload::RunResult* result = nullptr;
  double wall_ms = 0.0;  // host wall-clock spent computing the cell
  uint64_t seed = 0;     // harness::BedOptions::seed of the cell
  // TLB sharing arrangement the cell ran under (TlbShareModeName).
  std::string tlb_mode = "private";
};

// Renders rows as CSV with a fixed header:
// workload,system,throughput,mean_latency,p99_latency,tlb_misses,stale_hits,
// tlb_miss_rate,well_aligned_rate,guest_huge,host_huge,bookings_started,
// bookings_expired,bucket_hits,demotions,tier_demoted,tier_refaults,
// tier_resident,tlb_mode,cross_vm_evictions,vm_invalidated,conflict_evictions,
// capacity_evictions,displaced_by_self,displaced_by_other,util_shadow_hits,
// util_shadow_misses,util_min_ways_90,ways_assigned,repartitions,
// repartition_evictions,lat_p50,lat_p90,lat_p99,
// walk_guest_mem_l4..l1,walk_guest_pwc_l4..l3,
// walk_host_mem_l4..l1,walk_host_pwc_l4..l3,walk_nested_hit_l4..l1,
// walk_nested_walk_l4..l1,walk_memo_hits,walk_memo_upper_hits,
// busy_cycles,wall_ms,seed
std::string ToCsv(const std::vector<ResultRow>& rows);

// Renders rows as a JSON array of objects with the same fields.
std::string ToJson(const std::vector<ResultRow>& rows);

// Writes content to a file; aborts on I/O failure (results must not be
// silently lost).
void WriteFile(const std::string& path, const std::string& content);

}  // namespace metrics

#endif  // SRC_METRICS_EXPORT_H_
