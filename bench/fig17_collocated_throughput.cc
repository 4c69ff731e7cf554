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

namespace {

struct Cell {
  harness::CollocatedManyResult result;
  double wall_ms = 0.0;
};

}  // namespace

int main() {
  struct Pair {
    const char* vm0;
    const char* vm1;
  };
  const std::vector<Pair> pairs = {
      {"Canneal", "Redis"},   // sensitive + sensitive
      {"Masstree", "SP.D"},   // sensitive + insensitive
      {"Silo", "Shore"},      // sensitive + insensitive
  };
  const auto systems = harness::AllSystems();
  const auto modes = harness::TlbModesFromEnv();
  // The historical single-mode run prints the historical table; a mode
  // sweep annotates each table with its arrangement.
  const bool annotate_mode =
      modes.size() > 1 || modes[0] != mmu::TlbShareMode::kPrivate;
  harness::BedOptions bed;
  bed.host_frames = 640 * 1024;  // room for two VMs

  const size_t per_mode = pairs.size() * systems.size();
  harness::SweepRunnerOptions options;
  options.label = "fig17_collocated";
  options.cell_name = [&](size_t i) {
    const Pair& pair = pairs[(i % per_mode) / systems.size()];
    std::string name = std::string(pair.vm0) + "+" + pair.vm1 + " x " +
                       std::string(harness::SystemName(
                           systems[i % systems.size()]));
    if (annotate_mode) {
      name += std::string(" [tlb=") +
              mmu::TlbShareModeName(modes[i / per_mode]) + "]";
    }
    return name;
  };
  const auto cells = harness::ParallelMap(
      modes.size() * per_mode,
      [&](size_t i) {
        const Pair& pair = pairs[(i % per_mode) / systems.size()];
        harness::BedOptions cell_bed = bed;
        cell_bed.tlb_mode = modes[i / per_mode];
        // The pair figures never modelled VM boot.
        cell_bed.boot_noise_fraction = 0;
        const auto start = std::chrono::steady_clock::now();
        Cell cell;
        cell.result = harness::RunCollocatedMany(
            systems[i % systems.size()],
            {workload::SpecByName(pair.vm0), workload::SpecByName(pair.vm1)},
            bench::TracedBed(
                cell_bed, "fig17_collocated", i,
                std::string(pair.vm0) + "_" + pair.vm1 + "_" +
                    std::string(harness::SystemName(
                        systems[i % systems.size()])) +
                    (annotate_mode
                         ? std::string("_") +
                               mmu::TlbShareModeName(modes[i / per_mode])
                         : std::string())),
            harness::ScaleOptions{});
        cell.wall_ms = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - start)
                           .count();
        return cell;
      },
      std::move(options));

  std::vector<metrics::ResultRow> rows;
  std::string interference_text;
  for (size_t m = 0; m < modes.size(); ++m) {
    const char* mode_name = mmu::TlbShareModeName(modes[m]);
    std::string title =
        "Figure 17: collocated-VM throughput (normalized to Host-B-VM-B)";
    if (annotate_mode) {
      title += std::string(" [tlb=") + mode_name + "]";
    }
    metrics::TextTable table(title);
    std::vector<std::string> columns{"VM / workload"};
    for (harness::SystemKind kind : systems) {
      columns.emplace_back(harness::SystemName(kind));
    }
    table.SetColumns(columns);

    for (size_t p = 0; p < pairs.size(); ++p) {
      const Pair& pair = pairs[p];
      const Cell* row_cells = &cells[m * per_mode + p * systems.size()];
      size_t base_index = 0;
      for (size_t k = 0; k < systems.size(); ++k) {
        if (systems[k] == harness::SystemKind::kHostBVmB) {
          base_index = k;
        }
      }
      const double base0 = row_cells[base_index].result.vms[0].throughput;
      const double base1 = row_cells[base_index].result.vms[1].throughput;
      std::vector<std::string> row0{std::string("vm0 ") + pair.vm0};
      std::vector<std::string> row1{std::string("vm1 ") + pair.vm1};
      for (size_t k = 0; k < systems.size(); ++k) {
        row0.push_back(metrics::TextTable::Fmt(
            metrics::Normalize(row_cells[k].result.vms[0].throughput, base0)));
        row1.push_back(metrics::TextTable::Fmt(
            metrics::Normalize(row_cells[k].result.vms[1].throughput, base1)));
        const std::string tag =
            std::string(pair.vm0) + "+" + pair.vm1;
        const std::string system(harness::SystemName(systems[k]));
        rows.push_back(metrics::ResultRow{tag + "/vm0", system,
                                          &row_cells[k].result.vms[0],
                                          row_cells[k].wall_ms, bed.seed,
                                          mode_name});
        rows.push_back(metrics::ResultRow{tag + "/vm1", system,
                                          &row_cells[k].result.vms[1],
                                          row_cells[k].wall_ms, bed.seed,
                                          mode_name});
      }
      table.AddRow(row0);
      table.AddRow(row1);
    }
    table.Print();

    // Shared/partitioned modes append the monitor's interference view: who
    // displaced whom, and each VM's marginal-utility curve.  Private mode
    // renders nothing (no monitor), keeping the historical stdout intact.
    std::vector<std::pair<std::string, const metrics::InterferenceReport*>>
        interference_cells;
    for (size_t p = 0; p < pairs.size(); ++p) {
      for (size_t k = 0; k < systems.size(); ++k) {
        const Cell& cell = cells[m * per_mode + p * systems.size() + k];
        interference_cells.emplace_back(
            std::string(pairs[p].vm0) + "+" + pairs[p].vm1 + " x " +
                std::string(harness::SystemName(systems[k])),
            &cell.result.interference);
      }
    }
    const std::string section = bench::RenderInterferenceSection(
        "Figure 17", mode_name, interference_cells);
    std::fputs(section.c_str(), stdout);
    interference_text += section;
  }
  // Static-vs-dynamic comparison under phase-changing churn.  The results
  // vector is reserved up front because `rows` keeps pointers into it.
  std::vector<harness::CollocatedManyResult> churn_results;
  if (std::find(modes.begin(), modes.end(), mmu::TlbShareMode::kDynamic) !=
      modes.end()) {
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
      harness::BedOptions cbed = bed;
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
        rows.push_back(metrics::ResultRow{
            "churn4/vm" + std::to_string(v),
            std::string(harness::SystemName(harness::SystemKind::kHostBVmB)),
            &r.vms[v], r.exec_wall_ms, bed.seed, cmode_name});
      }
    }
    table.Print();
  }

  bench::WriteInterferenceArtifact(interference_text);
  bench::ExportRows("fig17_collocated", rows);
  return 0;
}
