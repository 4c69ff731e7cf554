// Machine-readable result export: CSV and JSON renderings of RunResult
// collections, so bench outputs can be plotted or regression-tracked
// without scraping the text tables.
//
// Every exported artifact (the result rows here, the time series in
// trace/sampler.cc, the BENCH_*.json writers in bench/) declares its
// columns once, as a column list: a generic lambda
//
//   [](const Row& row, auto& sink) { sink("name", value); ... }
//
// that calls sink(name, value) once per column, in output order.  A value
// is a std::string, a double or an integer; numbers print with default
// std::ostream formatting (doubles at 6 significant digits) and strings
// are escaped per format.  RenderCsv and RenderJson turn a column list
// into text.  BENCHMARKS.md describes every column; tests/test_export.cc
// fails when its tables drift from the rendered headers.
#ifndef SRC_METRICS_EXPORT_H_
#define SRC_METRICS_EXPORT_H_

#include <cstdint>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "base/check.h"
#include "metrics/counters.h"
#include "workload/driver.h"

namespace metrics {

std::string EscapeCsv(const std::string& s);
std::string EscapeJson(const std::string& s);

namespace column_sink {

// Column names joined by commas: the CSV header line.
struct CsvNames {
  std::ostream& out;
  bool first = true;
  template <class T>
  void operator()(std::string_view name, const T&) {
    out << (first ? "" : ",") << name;
    first = false;
  }
};

// One row's values joined by commas.
struct CsvValues {
  std::ostream& out;
  bool first = true;
  template <class T>
  void operator()(std::string_view, const T& value) {
    out << (first ? "" : ",");
    first = false;
    if constexpr (std::is_same_v<T, std::string>) {
      out << EscapeCsv(value);
    } else {
      out << value;
    }
  }
};

// One row's "name": value members joined by ", ".
struct JsonMembers {
  std::ostream& out;
  bool first = true;
  template <class T>
  void operator()(std::string_view name, const T& value) {
    out << (first ? "\"" : ", \"") << name << "\": ";
    first = false;
    if constexpr (std::is_same_v<T, std::string>) {
      out << '"' << EscapeJson(value) << '"';
    } else {
      out << value;
    }
  }
};

}  // namespace column_sink

// Renders rows as CSV: the header line, then one line per row.  The header
// is rendered from `header_row`, so it prints even when `rows` is empty.
template <class Row, class Columns>
std::string RenderCsv(const std::vector<Row>& rows, const Columns& columns,
                      const Row& header_row = Row{}) {
  std::ostringstream out;
  column_sink::CsvNames names{out};
  columns(header_row, names);
  out << '\n';
  for (const Row& row : rows) {
    column_sink::CsvValues values{out};
    columns(row, values);
    out << '\n';
  }
  return out.str();
}

// Renders rows as a JSON array holding one object per row.
template <class Row, class Columns>
std::string RenderJson(const std::vector<Row>& rows, const Columns& columns) {
  std::ostringstream out;
  out << "[\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    column_sink::JsonMembers members{out};
    out << "  {";
    columns(rows[i], members);
    out << '}' << (i + 1 < rows.size() ? ",\n" : "\n");
  }
  out << "]\n";
  return out.str();
}

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

// The export columns of one row.  Every value except wall_ms is
// deterministic: same seed, same values, at any GEMINI_JOBS count.
inline constexpr auto ResultColumns = [](const ResultRow& row, auto& sink) {
  SIM_CHECK(row.result != nullptr);
  const workload::RunResult& r = *row.result;
  const StackSnapshot& c = r.counters;
  sink("workload", row.workload);
  sink("system", row.system);
  sink("throughput", r.throughput);
  sink("mean_latency", r.mean_latency);
  sink("p99_latency", r.p99_latency);
  sink("tlb_misses", r.tlb_misses);
  StaleHitColumn(c, sink);
  sink("tlb_miss_rate", r.tlb_miss_rate);
  sink("well_aligned_rate", r.alignment.well_aligned_rate);
  sink("guest_huge", r.alignment.guest_huge);
  sink("host_huge", r.alignment.host_huge);
  sink("bookings_started", c.bookings_started);
  sink("bookings_expired", c.bookings_expired);
  sink("bucket_hits", c.bucket_hits);
  sink("demotions", c.demotions);
  TierColumns(c, sink);
  sink("tlb_mode", row.tlb_mode);
  SharingColumns(c, sink);
  sink("conflict_evictions",
       c.tlb_conflict_evictions_base + c.tlb_conflict_evictions_huge);
  sink("capacity_evictions",
       c.tlb_capacity_evictions_base + c.tlb_capacity_evictions_huge);
  UtilityColumns(c, sink);
  sink("util_min_ways_90", UtilMinWays90(c));
  WaysAssignedColumn(c, sink);
  LatencyColumns(c, sink);
  // Walk-level families, L4 first; the page-walk caches cover L4/L3 only.
  static constexpr const char* kLevel[] = {"l4", "l3", "l2", "l1"};
  const auto levels = [&](std::string_view family, const auto& values,
                          size_t count) {
    for (size_t l = 0; l < count; ++l) {
      sink(std::string(family) + kLevel[l], values[l]);
    }
  };
  levels("walk_guest_mem_", c.walk.guest_mem, 4);
  levels("walk_guest_pwc_", c.walk.guest_cached, 2);
  levels("walk_host_mem_", c.walk.host_mem, 4);
  levels("walk_host_pwc_", c.walk.host_cached, 2);
  levels("walk_nested_hit_", c.walk.nested_hit, 4);
  levels("walk_nested_walk_", c.walk.nested_walk, 4);
  sink("walk_memo_hits", c.walk.memo_hits);
  sink("walk_memo_upper_hits", c.walk.memo_upper_hits);
  sink("busy_cycles", r.busy_cycles);
  sink("wall_ms", row.wall_ms);
  sink("seed", row.seed);
};

std::string ToCsv(const std::vector<ResultRow>& rows);
std::string ToJson(const std::vector<ResultRow>& rows);

// Writes content to a file; aborts on I/O failure (results must not be
// silently lost).
void WriteFile(const std::string& path, const std::string& content);

}  // namespace metrics

#endif  // SRC_METRICS_EXPORT_H_
