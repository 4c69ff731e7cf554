// Figure 18 reproduction: mean latencies of collocated VMs (latency-
// reporting workloads), normalized to Host-B-VM-B; lower is better.
//
// GEMINI_TLB_MODE adds a sweep dimension over the TLB sharing arrangement
// (private / shared / partitioned, see mmu/tlb_domain.h): one table per
// mode, and export rows tagged with the mode.  Default (unset) runs the
// historical private arrangement only, with byte-identical output.
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
      {"Redis", "Memcached"},  // sensitive + sensitive
      {"Img-dnn", "Shore"},    // sensitive + insensitive
  };
  const auto systems = harness::AllSystems();
  const auto modes = harness::TlbModesFromEnv();
  const bool annotate_mode =
      modes.size() > 1 || modes[0] != mmu::TlbShareMode::kPrivate;
  harness::BedOptions bed;
  bed.host_frames = 640 * 1024;

  const size_t per_mode = pairs.size() * systems.size();
  harness::SweepRunnerOptions options;
  options.label = "fig18_collocated";
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
                cell_bed, "fig18_collocated", i,
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
        "Figure 18: collocated-VM mean latency (normalized to Host-B-VM-B; "
        "lower is better)";
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
      const double base0 = row_cells[base_index].result.vms[0].mean_latency;
      const double base1 = row_cells[base_index].result.vms[1].mean_latency;
      std::vector<std::string> row0{std::string("vm0 ") + pair.vm0};
      std::vector<std::string> row1{std::string("vm1 ") + pair.vm1};
      for (size_t k = 0; k < systems.size(); ++k) {
        row0.push_back(metrics::TextTable::Fmt(metrics::Normalize(
            row_cells[k].result.vms[0].mean_latency, base0)));
        row1.push_back(metrics::TextTable::Fmt(metrics::Normalize(
            row_cells[k].result.vms[1].mean_latency, base1)));
        const std::string tag = std::string(pair.vm0) + "+" + pair.vm1;
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

    // Shared/partitioned modes append the monitor's interference view; a
    // private-mode table renders nothing (no monitor, historical stdout).
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
        "Figure 18", mode_name, interference_cells);
    std::fputs(section.c_str(), stdout);
    interference_text += section;
  }
  bench::WriteInterferenceArtifact(interference_text);
  bench::ExportRows("fig18_collocated", rows);
  return 0;
}
