#include "metrics/export.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "base/check.h"
#include "base/stats.h"
#include "workload/driver.h"

namespace metrics {
namespace {

std::string EscapeJson(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string EscapeCsv(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) {
    return s;
  }
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') {
      out += "\"\"";
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

uint64_t UtilShadowHits(const StackSnapshot& c) {
  uint64_t total = 0;
  for (const uint64_t h : c.util_way_hits) {
    total += h;
  }
  return total;
}

// Smallest dedicated way count covering 90% of the VM's shadow hits; 0
// when the VM recorded none (private mode, or a VM that never sampled).
uint32_t UtilMinWays90(const StackSnapshot& c) {
  const uint64_t total = UtilShadowHits(c);
  if (total == 0) {
    return 0;
  }
  const double want = 0.9 * static_cast<double>(total);
  uint64_t cum = 0;
  for (size_t d = 0; d < c.util_way_hits.size(); ++d) {
    cum += c.util_way_hits[d];
    if (static_cast<double>(cum) >= want) {
      return static_cast<uint32_t>(d + 1);
    }
  }
  return static_cast<uint32_t>(c.util_way_hits.size());
}

}  // namespace

std::string ToCsv(const std::vector<ResultRow>& rows) {
  std::ostringstream out;
  out << "workload,system,throughput,mean_latency,p99_latency,tlb_misses,"
         "stale_hits,tlb_miss_rate,well_aligned_rate,guest_huge,host_huge,"
         "bookings_started,bookings_expired,bucket_hits,demotions,"
         "tier_demoted,tier_refaults,tier_resident,"
         "tlb_mode,cross_vm_evictions,vm_invalidated,conflict_evictions,"
         "capacity_evictions,"
         "displaced_by_self,displaced_by_other,util_shadow_hits,"
         "util_shadow_misses,util_min_ways_90,ways_assigned,repartitions,"
         "repartition_evictions,lat_p50,lat_p90,lat_p99,"
         "walk_guest_mem_l4,walk_guest_mem_l3,walk_guest_mem_l2,"
         "walk_guest_mem_l1,walk_guest_pwc_l4,walk_guest_pwc_l3,"
         "walk_host_mem_l4,walk_host_mem_l3,walk_host_mem_l2,"
         "walk_host_mem_l1,walk_host_pwc_l4,walk_host_pwc_l3,"
         "walk_nested_hit_l4,walk_nested_hit_l3,walk_nested_hit_l2,"
         "walk_nested_hit_l1,walk_nested_walk_l4,walk_nested_walk_l3,"
         "walk_nested_walk_l2,walk_nested_walk_l1,"
         "walk_memo_hits,walk_memo_upper_hits,"
         "busy_cycles,wall_ms,seed\n";
  for (const ResultRow& row : rows) {
    SIM_CHECK(row.result != nullptr);
    const workload::RunResult& r = *row.result;
    out << EscapeCsv(row.workload) << ',' << EscapeCsv(row.system) << ','
        << r.throughput << ',' << r.mean_latency << ',' << r.p99_latency
        << ',' << r.tlb_misses << ',' << r.counters.tlb_stale_hits << ','
        << r.tlb_miss_rate << ','
        << r.alignment.well_aligned_rate << ',' << r.alignment.guest_huge
        << ',' << r.alignment.host_huge << ','
        << r.counters.bookings_started << ',' << r.counters.bookings_expired
        << ',' << r.counters.bucket_hits << ',' << r.counters.demotions
        << ',' << r.counters.tier_demoted_pages << ','
        << r.counters.tier_refaults << ',' << r.counters.tier_resident
        << ',' << EscapeCsv(row.tlb_mode) << ','
        << r.counters.tlb_cross_vm_evictions << ','
        << r.counters.tlb_vm_invalidated << ','
        << (r.counters.tlb_conflict_evictions_base +
            r.counters.tlb_conflict_evictions_huge)
        << ','
        << (r.counters.tlb_capacity_evictions_base +
            r.counters.tlb_capacity_evictions_huge)
        << ',' << r.counters.tlb_displaced_by_self << ','
        << r.counters.tlb_displaced_by_other << ','
        << UtilShadowHits(r.counters) << ','
        << r.counters.util_shadow_misses << ','
        << UtilMinWays90(r.counters) << ','
        << r.counters.tlb_ways_assigned << ','
        << r.counters.tlb_repartitions << ','
        << r.counters.tlb_repartition_evictions << ','
        << base::Log2Histogram::PercentileOfCounts(r.counters.lat_hist, 0.50)
        << ','
        << base::Log2Histogram::PercentileOfCounts(r.counters.lat_hist, 0.90)
        << ','
        << base::Log2Histogram::PercentileOfCounts(r.counters.lat_hist, 0.99);
    const mmu::WalkLevelStats& w = r.counters.walk;
    for (const uint64_t v : w.guest_mem) {
      out << ',' << v;
    }
    out << ',' << w.guest_cached[0] << ',' << w.guest_cached[1];
    for (const uint64_t v : w.host_mem) {
      out << ',' << v;
    }
    out << ',' << w.host_cached[0] << ',' << w.host_cached[1];
    for (const uint64_t v : w.nested_hit) {
      out << ',' << v;
    }
    for (const uint64_t v : w.nested_walk) {
      out << ',' << v;
    }
    out << ',' << w.memo_hits << ',' << w.memo_upper_hits;
    out << ',' << r.busy_cycles << ',' << row.wall_ms << ',' << row.seed
        << '\n';
  }
  return out.str();
}

std::string ToJson(const std::vector<ResultRow>& rows) {
  std::ostringstream out;
  out << "[\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    SIM_CHECK(rows[i].result != nullptr);
    const workload::RunResult& r = *rows[i].result;
    out << "  {\"workload\": \"" << EscapeJson(rows[i].workload)
        << "\", \"system\": \"" << EscapeJson(rows[i].system)
        << "\", \"throughput\": " << r.throughput
        << ", \"mean_latency\": " << r.mean_latency
        << ", \"p99_latency\": " << r.p99_latency
        << ", \"tlb_misses\": " << r.tlb_misses
        << ", \"stale_hits\": " << r.counters.tlb_stale_hits
        << ", \"tlb_miss_rate\": " << r.tlb_miss_rate
        << ", \"well_aligned_rate\": " << r.alignment.well_aligned_rate
        << ", \"guest_huge\": " << r.alignment.guest_huge
        << ", \"host_huge\": " << r.alignment.host_huge
        << ", \"bookings_started\": " << r.counters.bookings_started
        << ", \"bookings_expired\": " << r.counters.bookings_expired
        << ", \"bucket_hits\": " << r.counters.bucket_hits
        << ", \"demotions\": " << r.counters.demotions
        << ", \"tier_demoted\": " << r.counters.tier_demoted_pages
        << ", \"tier_refaults\": " << r.counters.tier_refaults
        << ", \"tier_resident\": " << r.counters.tier_resident
        << ", \"tlb_mode\": \"" << EscapeJson(rows[i].tlb_mode) << '"'
        << ", \"cross_vm_evictions\": " << r.counters.tlb_cross_vm_evictions
        << ", \"vm_invalidated\": " << r.counters.tlb_vm_invalidated
        << ", \"conflict_evictions\": "
        << (r.counters.tlb_conflict_evictions_base +
            r.counters.tlb_conflict_evictions_huge)
        << ", \"capacity_evictions\": "
        << (r.counters.tlb_capacity_evictions_base +
            r.counters.tlb_capacity_evictions_huge)
        << ", \"displaced_by_self\": " << r.counters.tlb_displaced_by_self
        << ", \"displaced_by_other\": " << r.counters.tlb_displaced_by_other
        << ", \"util_shadow_hits\": " << UtilShadowHits(r.counters)
        << ", \"util_shadow_misses\": " << r.counters.util_shadow_misses
        << ", \"util_min_ways_90\": " << UtilMinWays90(r.counters)
        << ", \"ways_assigned\": " << r.counters.tlb_ways_assigned
        << ", \"repartitions\": " << r.counters.tlb_repartitions
        << ", \"repartition_evictions\": "
        << r.counters.tlb_repartition_evictions
        << ", \"lat_p50\": "
        << base::Log2Histogram::PercentileOfCounts(r.counters.lat_hist, 0.50)
        << ", \"lat_p90\": "
        << base::Log2Histogram::PercentileOfCounts(r.counters.lat_hist, 0.90)
        << ", \"lat_p99\": "
        << base::Log2Histogram::PercentileOfCounts(r.counters.lat_hist, 0.99);
    const mmu::WalkLevelStats& w = r.counters.walk;
    static constexpr const char* kLevel[] = {"l4", "l3", "l2", "l1"};
    for (size_t l = 0; l < 4; ++l) {
      out << ", \"walk_guest_mem_" << kLevel[l] << "\": " << w.guest_mem[l];
    }
    out << ", \"walk_guest_pwc_l4\": " << w.guest_cached[0]
        << ", \"walk_guest_pwc_l3\": " << w.guest_cached[1];
    for (size_t l = 0; l < 4; ++l) {
      out << ", \"walk_host_mem_" << kLevel[l] << "\": " << w.host_mem[l];
    }
    out << ", \"walk_host_pwc_l4\": " << w.host_cached[0]
        << ", \"walk_host_pwc_l3\": " << w.host_cached[1];
    for (size_t l = 0; l < 4; ++l) {
      out << ", \"walk_nested_hit_" << kLevel[l]
          << "\": " << w.nested_hit[l];
    }
    for (size_t l = 0; l < 4; ++l) {
      out << ", \"walk_nested_walk_" << kLevel[l]
          << "\": " << w.nested_walk[l];
    }
    out << ", \"walk_memo_hits\": " << w.memo_hits
        << ", \"walk_memo_upper_hits\": " << w.memo_upper_hits;
    out << ", \"busy_cycles\": " << r.busy_cycles
        << ", \"wall_ms\": " << rows[i].wall_ms
        << ", \"seed\": " << rows[i].seed << '}'
        << (i + 1 < rows.size() ? ",\n" : "\n");
  }
  out << "]\n";
  return out.str();
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::trunc);
  SIM_CHECK_MSG(out.good(), "cannot open %s for writing", path.c_str());
  out << content;
  out.close();
  SIM_CHECK_MSG(out.good(), "write to %s failed", path.c_str());
}

}  // namespace metrics
