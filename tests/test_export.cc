// Tests for the CSV/JSON result export.
#include "metrics/export.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

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

TEST(Export, CsvHasHeaderAndRow) {
  const auto r = SampleResult();
  const std::string csv =
      metrics::ToCsv({metrics::ResultRow{"Redis", "Gemini", &r}});
  EXPECT_NE(csv.find("workload,system,throughput"), std::string::npos);
  EXPECT_NE(csv.find("Redis,Gemini,1.5,1000,2000,42,6,0.25,0.875,7,9,11,3,5,"
                     "2,30,12,18,private,4,8,4,4,"
                     "5,9,15,5,2,6,2,14,3,63,255,"
                     "1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,"
                     "21,22,123456"),
            std::string::npos);
}

TEST(Export, CsvCarriesWallTimeAndSeedColumns) {
  const auto r = SampleResult();
  const std::string csv = metrics::ToCsv(
      {metrics::ResultRow{"Redis", "Gemini", &r, /*wall_ms=*/12.5,
                          /*seed=*/99}});
  // Header ends with the regression-tracking columns.
  EXPECT_NE(csv.find("busy_cycles,wall_ms,seed\n"), std::string::npos);
  EXPECT_NE(csv.find(",123456,12.5,99\n"), std::string::npos);
}

TEST(Export, CsvDefaultsWallTimeAndSeedToZero) {
  const auto r = SampleResult();
  const std::string csv =
      metrics::ToCsv({metrics::ResultRow{"Redis", "Gemini", &r}});
  EXPECT_NE(csv.find(",123456,0,0\n"), std::string::npos);
}

TEST(Export, CsvEscapesCommasAndQuotes) {
  const auto r = SampleResult();
  const std::string csv = metrics::ToCsv(
      {metrics::ResultRow{"a,b", "say \"hi\"", &r}});
  EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
  EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(Export, JsonIsWellFormedEnough) {
  const auto r = SampleResult();
  const std::string json = metrics::ToJson(
      {metrics::ResultRow{"Redis", "Gemini", &r},
       metrics::ResultRow{"Redis", "THP", &r}});
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"system\": \"Gemini\""), std::string::npos);
  EXPECT_NE(json.find("\"well_aligned_rate\": 0.875"), std::string::npos);
  // Exactly one separating comma between the two objects.
  EXPECT_NE(json.find("},"), std::string::npos);
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

TEST(Export, CarriesMechanismCounters) {
  const auto r = SampleResult();
  const std::string csv =
      metrics::ToCsv({metrics::ResultRow{"Redis", "Gemini", &r}});
  EXPECT_NE(csv.find("bookings_started,bookings_expired,bucket_hits,"
                     "demotions,tier_demoted,tier_refaults,tier_resident"),
            std::string::npos);
  const std::string json =
      metrics::ToJson({metrics::ResultRow{"Redis", "Gemini", &r}});
  EXPECT_NE(json.find("\"bookings_started\": 11"), std::string::npos);
  EXPECT_NE(json.find("\"bookings_expired\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"bucket_hits\": 5"), std::string::npos);
  EXPECT_NE(json.find("\"demotions\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"tier_demoted\": 30"), std::string::npos);
  EXPECT_NE(json.find("\"tier_refaults\": 12"), std::string::npos);
  EXPECT_NE(json.find("\"tier_resident\": 18"), std::string::npos);
}

TEST(Export, CarriesStaleHitColumn) {
  const auto r = SampleResult();
  const std::string csv =
      metrics::ToCsv({metrics::ResultRow{"Redis", "Gemini", &r}});
  EXPECT_NE(csv.find("tlb_misses,stale_hits,tlb_miss_rate"),
            std::string::npos);
  const std::string json =
      metrics::ToJson({metrics::ResultRow{"Redis", "Gemini", &r}});
  EXPECT_NE(json.find("\"stale_hits\": 6"), std::string::npos);
}

TEST(Export, TierColumnsAdjoinTlbMode) {
  const auto r = SampleResult();
  const std::string csv =
      metrics::ToCsv({metrics::ResultRow{"Redis", "Gemini", &r}});
  EXPECT_NE(csv.find("tier_resident,tlb_mode,cross_vm_evictions,"
                     "vm_invalidated,conflict_evictions,capacity_evictions,"
                     "displaced_by_self"),
            std::string::npos);
}

TEST(Export, CarriesWalkLevelColumns) {
  const auto r = SampleResult();
  const std::string csv =
      metrics::ToCsv({metrics::ResultRow{"Redis", "Gemini", &r}});
  // The walk-level block sits between the TLB-domain columns and the
  // trailing regression-tracking columns.
  EXPECT_NE(csv.find("walk_guest_mem_l4,walk_guest_mem_l3,walk_guest_mem_l2,"
                     "walk_guest_mem_l1,walk_guest_pwc_l4,walk_guest_pwc_l3,"
                     "walk_host_mem_l4"),
            std::string::npos);
  EXPECT_NE(csv.find("walk_nested_walk_l1,walk_memo_hits,"
                     "walk_memo_upper_hits,busy_cycles,wall_ms,seed\n"),
            std::string::npos);
  const std::string json =
      metrics::ToJson({metrics::ResultRow{"Redis", "Gemini", &r}});
  EXPECT_NE(json.find("\"walk_guest_mem_l4\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"walk_guest_pwc_l3\": 6"), std::string::npos);
  EXPECT_NE(json.find("\"walk_host_mem_l1\": 10"), std::string::npos);
  EXPECT_NE(json.find("\"walk_nested_hit_l2\": 15"), std::string::npos);
  EXPECT_NE(json.find("\"walk_nested_walk_l1\": 20"), std::string::npos);
  EXPECT_NE(json.find("\"walk_memo_hits\": 21"), std::string::npos);
  EXPECT_NE(json.find("\"walk_memo_upper_hits\": 22"), std::string::npos);
}

TEST(Export, CarriesTlbDomainColumns) {
  const auto r = SampleResult();
  // Default rows export as private mode; an explicit mode tag rides along.
  const std::string csv = metrics::ToCsv(
      {metrics::ResultRow{"Redis", "Gemini", &r, 0.0, 0, "shared"}});
  EXPECT_NE(csv.find(",shared,4,8,4,4,"), std::string::npos);
  const std::string json = metrics::ToJson(
      {metrics::ResultRow{"Redis", "Gemini", &r, 0.0, 0, "shared"}});
  EXPECT_NE(json.find("\"tlb_mode\": \"shared\""), std::string::npos);
  EXPECT_NE(json.find("\"cross_vm_evictions\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"vm_invalidated\": 8"), std::string::npos);
  // Conflict/capacity export as per-size sums (3+1 and 2+2).
  EXPECT_NE(json.find("\"conflict_evictions\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"capacity_evictions\": 4"), std::string::npos);
}

TEST(Export, CarriesUtilityAndLatencyColumns) {
  const auto r = SampleResult();
  const std::string csv =
      metrics::ToCsv({metrics::ResultRow{"Redis", "Gemini", &r}});
  EXPECT_NE(csv.find("capacity_evictions,displaced_by_self,"
                     "displaced_by_other,util_shadow_hits,"
                     "util_shadow_misses,util_min_ways_90,"
                     "ways_assigned,repartitions,repartition_evictions,"
                     "lat_p50,lat_p90,lat_p99,walk_guest_mem_l4"),
            std::string::npos);
  const std::string json =
      metrics::ToJson({metrics::ResultRow{"Redis", "Gemini", &r}});
  EXPECT_NE(json.find("\"displaced_by_self\": 5"), std::string::npos);
  EXPECT_NE(json.find("\"displaced_by_other\": 9"), std::string::npos);
  EXPECT_NE(json.find("\"util_shadow_hits\": 15"), std::string::npos);
  EXPECT_NE(json.find("\"util_shadow_misses\": 5"), std::string::npos);
  // 10 of 15 hits at depth 0 is 67%; the second way crosses 90%.
  EXPECT_NE(json.find("\"util_min_ways_90\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"ways_assigned\": 6"), std::string::npos);
  EXPECT_NE(json.find("\"repartitions\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"repartition_evictions\": 14"), std::string::npos);
  EXPECT_NE(json.find("\"lat_p50\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"lat_p90\": 63"), std::string::npos);
  EXPECT_NE(json.find("\"lat_p99\": 255"), std::string::npos);
}

// Schema drift guard: the CSV header and every data row must agree on the
// column count, and every CSV column name must appear as a JSON key — so a
// field added to one renderer but not the other fails here instead of
// producing silently misaligned exports.
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

TEST(Export, JsonCarriesWallTimeAndSeed) {
  const auto r = SampleResult();
  const std::string json = metrics::ToJson(
      {metrics::ResultRow{"Redis", "Gemini", &r, /*wall_ms=*/3.25,
                          /*seed=*/17}});
  EXPECT_NE(json.find("\"wall_ms\": 3.25"), std::string::npos);
  EXPECT_NE(json.find("\"seed\": 17"), std::string::npos);
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

}  // namespace
