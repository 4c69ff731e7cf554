// Figure 17 reproduction: throughput when two VMs are collocated on the
// same host — TLB-sensitive workloads paired with TLB-sensitive and
// non-TLB-sensitive companions — across all systems, normalized to
// Host-B-VM-B.
//
// Expected shape: Gemini best or tied on sensitive pairs; on insensitive
// workloads (Shore, SP.D) all systems are within a few percent of base —
// Gemini introduces negligible overhead (paper: ~2-3 %).
//
// GEMINI_TLB_MODE adds a sweep dimension over the TLB sharing arrangement
// (private / shared / partitioned / dynamic, see mmu/tlb_domain.h): one
// table per mode, and export rows tagged with the mode.  Default (unset)
// runs the historical private arrangement only, with byte-identical output.
//
// When the sweep includes the dynamic arrangement, a static-vs-dynamic
// comparison is appended: four collocated VMs with heterogeneous working
// sets and phase-shifted diurnal load — the scenario where a boot-time
// even way split is wrong for half the machine's lifetime — run under
// kPartitioned and kDynamic, reporting the aggregate hit fraction and the
// repartitioner's activity.  Base-page system (Host-B-VM-B) so TLB reach,
// not huge coverage, decides the outcome.
#include <algorithm>

#include "bench/bench_common.h"

int main() {
  bench::PairSweep sweep = bench::RunPairFigure(
      "Figure 17", "fig17_collocated",
      {
          {"Canneal", "Redis"},   // sensitive + sensitive
          {"Masstree", "SP.D"},   // sensitive + insensitive
          {"Silo", "Shore"},      // sensitive + insensitive
      },
      "Figure 17: collocated-VM throughput (normalized to Host-B-VM-B)",
      bench::Throughput);

  // Static-vs-dynamic comparison under phase-changing churn, exported with
  // the pair rows.  The results vector is reserved up front because the
  // rows keep pointers into it.
  std::vector<harness::CollocatedManyResult> churn_results;
  if (std::find(sweep.modes.begin(), sweep.modes.end(),
                mmu::TlbShareMode::kDynamic) != sweep.modes.end()) {
    std::vector<workload::WorkloadSpec> churn_specs;
    for (size_t i = 0; i < 4; ++i) {
      // VMs 0/2: working sets of ~8 pages per TLB set, so the hit rate
      // scales with every way they get (3 ways under the even split, ~5-6
      // at their deserved share); VMs 1/3: small sets saturated by a way
      // or two.  The diurnal phases put the big VMs at full load while the
      // small ones idle, so the right split drifts over time.
      const bool big = i % 2 == 0;
      workload::WorkloadSpec spec;
      spec.name = big ? "churn_big" : "churn_small";
      spec.working_set_pages = big ? 1024 : 64;
      spec.vma_count = big ? 4 : 2;
      spec.ops = 12000;
      spec.churn_period_ops = 2000;
      spec.work_per_access = 200;
      churn_specs.push_back(spec);
    }
    harness::ScaleOptions scale;
    scale.quantum = 128;  // threads resolve from GEMINI_VM_THREADS
    scale.load_phases = {100, 25};
    scale.load_phase_epochs = 32;
    scale.daemon_period = 250'000;  // several repartition ticks per phase

    const std::vector<mmu::TlbShareMode> compare = {
        mmu::TlbShareMode::kPartitioned, mmu::TlbShareMode::kDynamic};
    churn_results.reserve(compare.size());
    metrics::TextTable table(
        "Figure 17: static vs dynamic way partitioning, 4-VM "
        "phase-changing churn (aggregate over VMs)");
    table.SetColumns({"arrangement", "hit %", "tlb misses", "repartitions",
                      "repart evictions"});
    for (const mmu::TlbShareMode cmode : compare) {
      const char* cmode_name = mmu::TlbShareModeName(cmode);
      harness::BedOptions cbed;
      cbed.host_frames = bench::kPairHostFrames;
      cbed.tlb_mode = cmode;
      cbed.trace = trace::TraceConfigFromEnv(std::string("fig17_churn4_") +
                                             cmode_name);
      churn_results.push_back(harness::RunCollocatedMany(
          harness::SystemKind::kHostBVmB, churn_specs, cbed, scale));
      const harness::CollocatedManyResult& r = churn_results.back();
      uint64_t hits = 0;
      uint64_t misses = 0;
      uint64_t evictions = 0;
      // The repartition count is domain-wide but each VM's row deltas it
      // over that VM's own measured window, so take the widest view.
      uint64_t repartitions = 0;
      for (const workload::RunResult& vm : r.vms) {
        hits += vm.tlb_hits;
        misses += vm.tlb_misses;
        evictions += vm.counters.tlb_repartition_evictions;
        repartitions = std::max(repartitions, vm.counters.tlb_repartitions);
      }
      const uint64_t lookups = hits + misses;
      table.AddRow({cmode_name,
                    metrics::TextTable::Pct(
                        lookups > 0 ? static_cast<double>(hits) /
                                          static_cast<double>(lookups)
                                    : 0.0),
                    std::to_string(misses), std::to_string(repartitions),
                    std::to_string(evictions)});
      for (size_t v = 0; v < r.vms.size(); ++v) {
        sweep.rows.push_back(metrics::ResultRow{
            "churn4/vm" + std::to_string(v),
            std::string(harness::SystemName(harness::SystemKind::kHostBVmB)),
            &r.vms[v], r.exec_wall_ms, cbed.seed, cmode_name});
      }
    }
    table.Print();
  }

  bench::ExportRows("fig17_collocated", sweep.rows);
  return 0;
}
