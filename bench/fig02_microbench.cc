// Figure 2 reproduction: a microbenchmark randomly accessing a data set of
// varying size under the four guest/host page-size combinations
// (Host-B-VM-B, Host-B-VM-H, Host-H-VM-B, Host-H-VM-H).
//
// Expected shape (paper §2.2): with small data sets all four are equal (no
// TLB pressure); with large data sets only Host-H-VM-H — the well-aligned
// configuration — improves performance substantially, while the two
// misaligned configurations stay near base-page performance because no
// 2 MiB TLB entries can be installed.
#include <cstdio>
#include <string>
#include <vector>

#include "base/rng.h"
#include "base/types.h"
#include "bench/bench_common.h"
#include "harness/sweep_runner.h"
#include "metrics/table.h"
#include "mmu/page_table.h"
#include "mmu/translation_engine.h"

namespace {

using base::kHugeOrder;
using base::kPagesPerHuge;

enum class Mapping { kBase, kHuge };

struct Config {
  const char* label;
  Mapping guest;
  Mapping host;
};

// Builds the two-layer mapping for `regions` huge regions of data.
void BuildMappings(uint64_t regions, Mapping guest_mode, Mapping host_mode,
                   mmu::PageTable& guest, mmu::PageTable& ept) {
  for (uint64_t r = 0; r < regions; ++r) {
    if (guest_mode == Mapping::kHuge) {
      guest.MapHuge(r, r * kPagesPerHuge);
    } else {
      for (uint64_t s = 0; s < kPagesPerHuge; ++s) {
        guest.MapBase((r << kHugeOrder) + s, r * kPagesPerHuge + s);
      }
    }
    if (host_mode == Mapping::kHuge) {
      ept.MapHuge(r, (regions + r) * kPagesPerHuge);
    } else {
      for (uint64_t s = 0; s < kPagesPerHuge; ++s) {
        ept.MapBase(r * kPagesPerHuge + s,
                    (regions + r) * kPagesPerHuge + s);
      }
    }
  }
}

// Random accesses through the translation engine; returns ops per kilocycle
// (translation + a fixed per-access compute cost).
double Measure(uint64_t regions, Mapping guest_mode, Mapping host_mode) {
  mmu::PageTable guest;
  mmu::PageTable ept;
  BuildMappings(regions, guest_mode, host_mode, guest, ept);
  mmu::TranslationEngine::Config config;  // paper-sized TLB (1536 entries)
  mmu::TranslationEngine engine(config, &guest, &ept);
  base::Rng rng(42);
  const uint64_t pages = regions * kPagesPerHuge;
  constexpr uint64_t kOps = 300000;
  constexpr base::Cycles kWorkPerAccess = 150;
  base::Cycles total = kOps * kWorkPerAccess;
  for (uint64_t i = 0; i < kOps; ++i) {
    const auto r = engine.Translate(rng.NextBelow(pages));
    total += r.cycles;
  }
  return 1000.0 * static_cast<double>(kOps) / static_cast<double>(total);
}

}  // namespace

int main() {
  bench::CheckEnvironment();
  const std::vector<Config> configs = {
      {"Host-B-VM-B", Mapping::kBase, Mapping::kBase},
      {"Host-B-VM-H", Mapping::kHuge, Mapping::kBase},
      {"Host-H-VM-B", Mapping::kBase, Mapping::kHuge},
      {"Host-H-VM-H", Mapping::kHuge, Mapping::kHuge},
  };
  // Data-set sizes in 2 MiB regions: 4 MiB ... 512 MiB.
  const std::vector<uint64_t> sizes = {2, 8, 32, 128, 256};

  metrics::TextTable table(
      "Figure 2: microbenchmark throughput (ops/kcycle) vs data-set size");
  std::vector<std::string> columns{"data set"};
  for (const auto& c : configs) {
    columns.emplace_back(c.label);
  }
  columns.emplace_back("HH/BB speedup");
  table.SetColumns(columns);

  // All (size, config) cells are independent measurements; run them on the
  // sweep pool and read them back in index order.
  harness::SweepRunnerOptions options;
  options.jobs = bench::SweepJobs();
  options.label = "fig02_microbench";
  options.cell_name = [&](size_t i) {
    return std::to_string(sizes[i / configs.size()] * 2) + " MiB x " +
           configs[i % configs.size()].label;
  };
  const auto measured = harness::ParallelMap(
      sizes.size() * configs.size(),
      [&](size_t i) {
        const Config& c = configs[i % configs.size()];
        return Measure(sizes[i / configs.size()], c.guest, c.host);
      },
      std::move(options));

  for (size_t s = 0; s < sizes.size(); ++s) {
    std::vector<std::string> cells;
    char label[32];
    std::snprintf(label, sizeof(label), "%llu MiB",
                  static_cast<unsigned long long>(sizes[s] * 2));
    cells.emplace_back(label);
    double bb = 0;
    double hh = 0;
    for (size_t k = 0; k < configs.size(); ++k) {
      const double v = measured[s * configs.size() + k];
      if (std::string(configs[k].label) == "Host-B-VM-B") {
        bb = v;
      }
      if (std::string(configs[k].label) == "Host-H-VM-H") {
        hh = v;
      }
      cells.push_back(metrics::TextTable::Fmt(v, 3));
    }
    cells.push_back(metrics::TextTable::Fmt(hh / bb, 2) + "x");
    table.AddRow(cells);
  }
  table.Print();
  std::printf(
      "\nShape check: misaligned configs (B-H / H-B) track Host-B-VM-B;\n"
      "only the well-aligned Host-H-VM-H gains once the data set exceeds\n"
      "the 4 KiB TLB reach (~6 MiB).\n");
  return 0;
}
