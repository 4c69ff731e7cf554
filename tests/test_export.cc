// Tests for the CSV/JSON result export: the exact bytes of both
// renderings, string escaping, the BENCHMARKS.md schema tables checked
// against the rendered headers, and its environment table checked against
// the variables the code reads.
#include "metrics/export.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "os/machine.h"
#include "trace/sampler.h"
#include "workload/driver.h"

namespace {

workload::RunResult SampleResult() {
  workload::RunResult r;
  r.workload = "demo";
  r.throughput = 1.5;
  r.mean_latency = 1000.0;
  r.p99_latency = 2000.0;
  r.tlb_misses = 42;
  r.counters.tlb_stale_hits = 6;
  r.tlb_miss_rate = 0.25;
  r.alignment.guest_huge = 7;
  r.alignment.host_huge = 9;
  r.alignment.well_aligned_rate = 0.875;
  r.counters.bookings_started = 11;
  r.counters.bookings_expired = 3;
  r.counters.bucket_hits = 5;
  r.counters.demotions = 2;
  r.counters.tier_demoted_pages = 30;
  r.counters.tier_refaults = 12;
  r.counters.tier_resident = 18;
  r.counters.tlb_cross_vm_evictions = 4;
  r.counters.tlb_vm_invalidated = 8;
  r.counters.tlb_conflict_evictions_base = 3;
  r.counters.tlb_conflict_evictions_huge = 1;
  r.counters.tlb_capacity_evictions_base = 2;
  r.counters.tlb_capacity_evictions_huge = 2;
  r.counters.walk.guest_mem = {1, 2, 3, 4};
  r.counters.walk.guest_cached = {5, 6, 0, 0};  // only L4/L3 are PWC-covered
  r.counters.walk.host_mem = {7, 8, 9, 10};
  r.counters.walk.host_cached = {11, 12, 0, 0};
  r.counters.walk.nested_hit = {13, 14, 15, 16};
  r.counters.walk.nested_walk = {17, 18, 19, 20};
  r.counters.walk.memo_hits = 21;
  r.counters.walk.memo_upper_hits = 22;
  // Utility-monitor attribution + shadow sampler: 15 shadow hits with a
  // curve that crosses 90% at 2 ways (10 then 5), 5 full-depth misses.
  r.counters.tlb_displaced_by_self = 5;
  r.counters.tlb_displaced_by_other = 9;
  r.counters.util_way_hits[0] = 10;
  r.counters.util_way_hits[1] = 5;
  r.counters.util_shadow_misses = 5;
  // Dynamic repartitioning: a 6-way window after 2 applied repartitions
  // that dropped 14 stranded entries.
  r.counters.tlb_ways_assigned = 6;
  r.counters.tlb_repartitions = 2;
  r.counters.tlb_repartition_evictions = 14;
  // 100 translations: 50 in [2,3], 45 in [32,63], 5 in [128,255] — so
  // p50 = 3, p90 = 63, p99 = 255 (nearest-rank bucket upper bounds).
  r.counters.lat_hist[1] = 50;
  r.counters.lat_hist[5] = 45;
  r.counters.lat_hist[7] = 5;
  r.busy_cycles = 123456;
  return r;
}

// Both renderings of one default row and one row carrying a TLB mode, a
// wall time and a seed, byte for byte.  Captured from the hand-written
// renderers the column lists replaced, so any moved byte fails here.
constexpr char kPinnedCsv[] =
    "workload,system,throughput,mean_latency,p99_latency,tlb_misses,"
    "stale_hits,tlb_miss_rate,well_aligned_rate,guest_huge,host_huge,"
    "bookings_started,bookings_expired,bucket_hits,demotions,"
    "tier_demoted,tier_refaults,tier_resident,tlb_mode,"
    "cross_vm_evictions,vm_invalidated,conflict_evictions,"
    "capacity_evictions,displaced_by_self,displaced_by_other,"
    "util_shadow_hits,util_shadow_misses,util_min_ways_90,"
    "ways_assigned,repartitions,repartition_evictions,lat_p50,"
    "lat_p90,lat_p99,walk_guest_mem_l4,walk_guest_mem_l3,"
    "walk_guest_mem_l2,walk_guest_mem_l1,walk_guest_pwc_l4,"
    "walk_guest_pwc_l3,walk_host_mem_l4,walk_host_mem_l3,"
    "walk_host_mem_l2,walk_host_mem_l1,walk_host_pwc_l4,"
    "walk_host_pwc_l3,walk_nested_hit_l4,walk_nested_hit_l3,"
    "walk_nested_hit_l2,walk_nested_hit_l1,walk_nested_walk_l4,"
    "walk_nested_walk_l3,walk_nested_walk_l2,walk_nested_walk_l1,"
    "walk_memo_hits,walk_memo_upper_hits,busy_cycles,wall_ms,seed\n"
    "Redis,Gemini,1.5,1000,2000,42,6,0.25,0.875,7,9,11,3,5,2,30,12,"
    "18,private,4,8,4,4,5,9,15,5,2,6,2,14,3,63,255,1,2,3,4,5,6,7,8,9,"
    "10,11,12,13,14,15,16,17,18,19,20,21,22,123456,0,0\n"
    "Redis,THP,1.5,1000,2000,42,6,0.25,0.875,7,9,11,3,5,2,30,12,18,"
    "shared,4,8,4,4,5,9,15,5,2,6,2,14,3,63,255,1,2,3,4,5,6,7,8,9,10,"
    "11,12,13,14,15,16,17,18,19,20,21,22,123456,12.5,99\n";

constexpr char kPinnedJson[] =
    "[\n"
    "  {\"workload\": \"Redis\", \"system\": \"Gemini\", \"throughput\": 1.5, "
    "\"mean_latency\": 1000, \"p99_latency\": 2000, \"tlb_misses\": 42, "
    "\"stale_hits\": 6, \"tlb_miss_rate\": 0.25, "
    "\"well_aligned_rate\": 0.875, \"guest_huge\": 7, \"host_huge\": 9, "
    "\"bookings_started\": 11, \"bookings_expired\": 3, "
    "\"bucket_hits\": 5, \"demotions\": 2, \"tier_demoted\": 30, "
    "\"tier_refaults\": 12, \"tier_resident\": 18, "
    "\"tlb_mode\": \"private\", \"cross_vm_evictions\": 4, "
    "\"vm_invalidated\": 8, \"conflict_evictions\": 4, "
    "\"capacity_evictions\": 4, \"displaced_by_self\": 5, "
    "\"displaced_by_other\": 9, \"util_shadow_hits\": 15, "
    "\"util_shadow_misses\": 5, \"util_min_ways_90\": 2, "
    "\"ways_assigned\": 6, \"repartitions\": 2, "
    "\"repartition_evictions\": 14, \"lat_p50\": 3, \"lat_p90\": 63, "
    "\"lat_p99\": 255, \"walk_guest_mem_l4\": 1, \"walk_guest_mem_l3\": 2, "
    "\"walk_guest_mem_l2\": 3, \"walk_guest_mem_l1\": 4, "
    "\"walk_guest_pwc_l4\": 5, \"walk_guest_pwc_l3\": 6, "
    "\"walk_host_mem_l4\": 7, \"walk_host_mem_l3\": 8, "
    "\"walk_host_mem_l2\": 9, \"walk_host_mem_l1\": 10, "
    "\"walk_host_pwc_l4\": 11, \"walk_host_pwc_l3\": 12, "
    "\"walk_nested_hit_l4\": 13, \"walk_nested_hit_l3\": 14, "
    "\"walk_nested_hit_l2\": 15, \"walk_nested_hit_l1\": 16, "
    "\"walk_nested_walk_l4\": 17, \"walk_nested_walk_l3\": 18, "
    "\"walk_nested_walk_l2\": 19, \"walk_nested_walk_l1\": 20, "
    "\"walk_memo_hits\": 21, \"walk_memo_upper_hits\": 22, "
    "\"busy_cycles\": 123456, \"wall_ms\": 0, \"seed\": 0},\n"
    "  {\"workload\": \"Redis\", \"system\": \"THP\", \"throughput\": 1.5, "
    "\"mean_latency\": 1000, \"p99_latency\": 2000, \"tlb_misses\": 42, "
    "\"stale_hits\": 6, \"tlb_miss_rate\": 0.25, "
    "\"well_aligned_rate\": 0.875, \"guest_huge\": 7, \"host_huge\": 9, "
    "\"bookings_started\": 11, \"bookings_expired\": 3, "
    "\"bucket_hits\": 5, \"demotions\": 2, \"tier_demoted\": 30, "
    "\"tier_refaults\": 12, \"tier_resident\": 18, \"tlb_mode\": \"shared\", "
    "\"cross_vm_evictions\": 4, \"vm_invalidated\": 8, "
    "\"conflict_evictions\": 4, \"capacity_evictions\": 4, "
    "\"displaced_by_self\": 5, \"displaced_by_other\": 9, "
    "\"util_shadow_hits\": 15, \"util_shadow_misses\": 5, "
    "\"util_min_ways_90\": 2, \"ways_assigned\": 6, \"repartitions\": 2, "
    "\"repartition_evictions\": 14, \"lat_p50\": 3, \"lat_p90\": 63, "
    "\"lat_p99\": 255, \"walk_guest_mem_l4\": 1, \"walk_guest_mem_l3\": 2, "
    "\"walk_guest_mem_l2\": 3, \"walk_guest_mem_l1\": 4, "
    "\"walk_guest_pwc_l4\": 5, \"walk_guest_pwc_l3\": 6, "
    "\"walk_host_mem_l4\": 7, \"walk_host_mem_l3\": 8, "
    "\"walk_host_mem_l2\": 9, \"walk_host_mem_l1\": 10, "
    "\"walk_host_pwc_l4\": 11, \"walk_host_pwc_l3\": 12, "
    "\"walk_nested_hit_l4\": 13, \"walk_nested_hit_l3\": 14, "
    "\"walk_nested_hit_l2\": 15, \"walk_nested_hit_l1\": 16, "
    "\"walk_nested_walk_l4\": 17, \"walk_nested_walk_l3\": 18, "
    "\"walk_nested_walk_l2\": 19, \"walk_nested_walk_l1\": 20, "
    "\"walk_memo_hits\": 21, \"walk_memo_upper_hits\": 22, "
    "\"busy_cycles\": 123456, \"wall_ms\": 12.5, \"seed\": 99}\n"
    "]\n";

TEST(Export, RendersPinnedBytes) {
  const auto r = SampleResult();
  const std::vector<metrics::ResultRow> rows = {
      metrics::ResultRow{"Redis", "Gemini", &r},
      metrics::ResultRow{"Redis", "THP", &r, /*wall_ms=*/12.5, /*seed=*/99,
                         "shared"}};
  EXPECT_EQ(metrics::ToCsv(rows), kPinnedCsv);
  EXPECT_EQ(metrics::ToJson(rows), kPinnedJson);
}

TEST(Export, CsvEscapesCommasAndQuotes) {
  const auto r = SampleResult();
  const std::string csv = metrics::ToCsv(
      {metrics::ResultRow{"a,b", "say \"hi\"", &r}});
  EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
  EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(Export, JsonEscapesSpecialCharacters) {
  const auto r = SampleResult();
  const std::string json = metrics::ToJson(
      {metrics::ResultRow{"quote\"backslash\\", "sys", &r}});
  EXPECT_NE(json.find("quote\\\"backslash\\\\"), std::string::npos);
}

TEST(Export, JsonEscapesControlCharactersInWorkloadNames) {
  const auto r = SampleResult();
  const std::string json = metrics::ToJson(
      {metrics::ResultRow{"tab\there\nnewline", "sys", &r}});
  EXPECT_NE(json.find("tab\\u0009here\\u000anewline"), std::string::npos);
  // The raw control characters must not survive into the output value.
  EXPECT_EQ(json.find("tab\there"), std::string::npos);
}

// The CSV header and every data row agree on the column count, and every
// CSV column name is a JSON key: misaligned exports fail here.
TEST(Export, SchemaHeaderRowAndJsonKeysStayInSync) {
  const auto r = SampleResult();
  const std::string csv =
      metrics::ToCsv({metrics::ResultRow{"Redis", "Gemini", &r}});
  const size_t header_end = csv.find('\n');
  ASSERT_NE(header_end, std::string::npos);
  const size_t row_end = csv.find('\n', header_end + 1);
  ASSERT_NE(row_end, std::string::npos);
  const std::string header = csv.substr(0, header_end);
  const std::string row =
      csv.substr(header_end + 1, row_end - header_end - 1);
  EXPECT_EQ(std::count(header.begin(), header.end(), ','),
            std::count(row.begin(), row.end(), ','));

  const std::string json =
      metrics::ToJson({metrics::ResultRow{"Redis", "Gemini", &r}});
  std::stringstream names(header);
  std::string name;
  while (std::getline(names, name, ',')) {
    EXPECT_NE(json.find("\"" + name + "\":"), std::string::npos)
        << "CSV column '" << name << "' missing from the JSON export";
  }
}

TEST(Export, WriteFileRoundTrips) {
  const std::string path = ::testing::TempDir() + "/export_test.csv";
  metrics::WriteFile(path, "hello,world\n");
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "hello,world");
  std::remove(path.c_str());
}

TEST(Export, EmptyRowsProduceHeaderOnly) {
  const std::string csv = metrics::ToCsv({});
  EXPECT_EQ(csv.find('\n'), csv.size() - 1);
  EXPECT_EQ(metrics::ToJson({}), "[\n]\n");
}

// --- BENCHMARKS.md drift guard -------------------------------------------

using Column = std::pair<std::string, std::string>;  // {name, type}

// The rows of the first Markdown table after the line holding `anchor` in
// BENCHMARKS.md: {first cell, second cell}, backticks stripped, with a
// family row such as `walk_host_mem_l4..l1` or `host_free_o0..o10`
// expanded into one row per member.
std::vector<Column> DocumentedColumns(const std::string& anchor) {
  std::ifstream in(std::string(GEMINI_SOURCE_DIR) + "/BENCHMARKS.md");
  EXPECT_TRUE(in.good()) << "cannot read BENCHMARKS.md";
  std::string line;
  while (std::getline(in, line) && line.find(anchor) == std::string::npos) {
  }
  while (std::getline(in, line) && line.rfind('|', 0) != 0) {
  }
  std::getline(in, line);  // the |---| separator under the header row
  const auto cell = [](std::string s) {
    s.erase(std::remove(s.begin(), s.end(), '`'), s.end());
    const size_t b = s.find_first_not_of(' ');
    if (b == std::string::npos) {
      return std::string();
    }
    return s.substr(b, s.find_last_not_of(' ') - b + 1);
  };
  // The number ending `s`, and `s` without it.
  const auto split_number = [](const std::string& s) {
    const size_t digits = s.find_last_not_of("0123456789") + 1;
    return std::make_pair(s.substr(0, digits), std::stoi(s.substr(digits)));
  };
  std::vector<Column> columns;
  while (std::getline(in, line) && line.rfind('|', 0) == 0) {
    std::vector<std::string> cells;
    std::stringstream row(line.substr(1));
    for (std::string c; std::getline(row, c, '|');) {
      cells.push_back(cell(c));
    }
    if (cells.size() < 2) {
      ADD_FAILURE() << "malformed table row: " << line;
      continue;
    }
    const size_t range = cells[0].find("..");
    if (range == std::string::npos) {
      columns.emplace_back(cells[0], cells[1]);
      continue;
    }
    const auto [prefix, from] = split_number(cells[0].substr(0, range));
    const int to = split_number(cells[0].substr(range + 2)).second;
    for (int i = from;; i += from < to ? 1 : -1) {
      columns.emplace_back(prefix + std::to_string(i), cells[1]);
      if (i == to) {
        break;
      }
    }
  }
  EXPECT_FALSE(columns.empty()) << "no table after " << anchor;
  return columns;
}

std::vector<std::string> Names(const std::vector<Column>& columns) {
  std::vector<std::string> names;
  for (const Column& c : columns) {
    names.push_back(c.first);
  }
  return names;
}

std::vector<std::string> CsvHeader(const std::string& csv) {
  std::vector<std::string> names;
  std::stringstream header(csv.substr(0, csv.find('\n')));
  for (std::string name; std::getline(header, name, ',');) {
    names.push_back(name);
  }
  return names;
}

template <class T>
std::string SchemaType() {
  if constexpr (std::is_same_v<T, std::string>) {
    return "string";
  } else if constexpr (std::is_floating_point_v<T>) {
    return "number";
  } else {
    static_assert(std::is_integral_v<T>);
    return "integer";
  }
}

// The "Export schema" table lists every export column, in order, with the
// type the column list renders.
TEST(Export, SchemaTableMatchesColumnList) {
  const std::vector<Column> documented = DocumentedColumns("## Export schema");
  EXPECT_EQ(Names(documented), CsvHeader(metrics::ToCsv({})));
  std::vector<Column> rendered;
  const auto record = [&](std::string_view name, const auto& value) {
    rendered.emplace_back(std::string(name),
                          SchemaType<std::decay_t<decltype(value)>>());
  };
  const workload::RunResult r;
  metrics::ResultColumns(metrics::ResultRow{"", "", &r}, record);
  EXPECT_EQ(documented, rendered);
}

// The "Time series" table lists every series column, in order.
TEST(Export, TimeSeriesTableMatchesSamplerHeader) {
  osim::MachineConfig config;
  config.host_frames = 16384;
  osim::Machine machine(config);
  const trace::StackSampler sampler(&machine);
  EXPECT_EQ(Names(DocumentedColumns("**Time series**")),
            CsvHeader(sampler.ToCsv()));
}

// The "Environment-variable contract" table lists exactly the variables the
// code reads: the quoted "GEMINI_..." literals under src/ and bench/.
TEST(Export, EnvironmentTableMatchesCode) {
  const std::vector<std::string> names =
      Names(DocumentedColumns("## Environment-variable contract"));
  const std::set<std::string> documented(names.begin(), names.end());
  std::set<std::string> read;
  for (const char* dir : {"/src", "/bench"}) {
    for (const auto& entry : std::filesystem::recursive_directory_iterator(
             std::string(GEMINI_SOURCE_DIR) + dir)) {
      const std::string ext = entry.path().extension().string();
      if (ext != ".cc" && ext != ".h") {
        continue;
      }
      std::ifstream in(entry.path());
      const std::string text{std::istreambuf_iterator<char>(in), {}};
      for (size_t at = text.find("\"GEMINI_"); at != std::string::npos;
           at = text.find("\"GEMINI_", at + 1)) {
        const size_t end =
            text.find_first_not_of("ABCDEFGHIJKLMNOPQRSTUVWXYZ_", at + 1);
        if (end != std::string::npos && text[end] == '"') {
          read.insert(text.substr(at + 1, end - at - 1));
        }
      }
    }
  }
  EXPECT_EQ(documented, read);
}

}  // namespace
