#include <optional>
#include <set>
#include <string>
// Integration tests for the experiment harness: system factories, testbed
// construction, clean-slate / reused-VM / collocated scenarios, and the
// headline shape assertions the paper's evaluation rests on.
#include "harness/experiment.h"

#include <gtest/gtest.h>

#include "base/env.h"
#include "metrics/counters.h"

namespace {

using harness::AllSystems;
using harness::BedOptions;
using harness::MakeTestBed;
using harness::SystemKind;
using harness::SystemName;

BedOptions QuickBed() {
  BedOptions options;
  options.host_frames = 131072;
  options.vm_gfn_count = 49152;
  options.boot_noise_fraction = 0.3;
  options.seed = 77;
  return options;
}

workload::WorkloadSpec QuickSpec() {
  workload::WorkloadSpec spec = workload::SpecByName("Canneal");
  spec.working_set_pages = 12288;
  spec.ops = 60000;
  return spec;
}

TEST(Systems, NamesAreUniqueAndStable) {
  std::set<std::string> names;
  for (SystemKind kind : AllSystems()) {
    names.insert(std::string(SystemName(kind)));
  }
  EXPECT_EQ(names.size(), 8u);
  EXPECT_EQ(SystemName(SystemKind::kGemini), "Gemini");
  EXPECT_EQ(SystemName(SystemKind::kHostBVmB), "Host-B-VM-B");
}

TEST(Systems, PolicyFactoriesProduceDistinctPolicies) {
  for (SystemKind kind : AllSystems()) {
    if (kind == SystemKind::kGemini) {
      continue;  // wired via InstallGeminiVm
    }
    auto guest = harness::MakeGuestPolicy(kind);
    auto host = harness::MakeHostPolicy(kind);
    ASSERT_NE(guest, nullptr) << SystemName(kind);
    ASSERT_NE(host, nullptr) << SystemName(kind);
  }
}

TEST(Systems, AlignmentTableSystemsAreSixInPaperOrder) {
  const auto systems = harness::AlignmentTableSystems();
  ASSERT_EQ(systems.size(), 6u);
  EXPECT_EQ(systems.front(), SystemKind::kThp);
  EXPECT_EQ(systems.back(), SystemKind::kGemini);
}

TEST(TestBed, FragmentationApplied) {
  BedOptions options = QuickBed();
  options.fragmentation_target = 0.75;
  options.host_fragmentation_target = 0.85;
  auto bed = MakeTestBed(SystemKind::kHostBVmB, options);
  EXPECT_GE(bed.machine->host().Fmfi(), 0.8);
  EXPECT_GE(bed.vm().guest().Fmfi(), 0.7);
}

TEST(TestBed, UnfragmentedBedStaysClean) {
  BedOptions options = QuickBed();
  options.fragmented = false;
  options.boot_noise_fraction = 0.0;
  auto bed = MakeTestBed(SystemKind::kHostBVmB, options);
  EXPECT_LT(bed.machine->host().Fmfi(), 0.1);
}

TEST(TestBed, BootNoiseLeavesStaleEptState) {
  BedOptions options = QuickBed();
  options.fragmented = false;
  auto bed = MakeTestBed(SystemKind::kHostBVmB, options);
  // Guest memory is free again, but the EPT still maps what boot touched.
  EXPECT_EQ(bed.vm().guest().table().mapped_pages(), 0u);
  EXPECT_GT(bed.vm().host_slice().table().mapped_pages(), 1000u);
}

TEST(Scenario, CleanSlateRunsEverySystem) {
  const auto spec = QuickSpec();
  for (SystemKind kind : AllSystems()) {
    const auto result = harness::RunCleanSlate(kind, spec, QuickBed());
    EXPECT_GT(result.throughput, 0.0) << SystemName(kind);
    EXPECT_GT(result.ops, 0u);
  }
}

TEST(Scenario, GeminiOutperformsBasePagesOnTlbMisses) {
  const auto spec = QuickSpec();
  const auto base = harness::RunCleanSlate(SystemKind::kHostBVmB, spec,
                                           QuickBed());
  const auto gem = harness::RunCleanSlate(SystemKind::kGemini, spec,
                                          QuickBed());
  EXPECT_LT(gem.tlb_miss_rate, base.tlb_miss_rate);
  EXPECT_GT(gem.throughput, base.throughput);
  EXPECT_GT(gem.alignment.well_aligned_rate, 0.5);
  EXPECT_EQ(base.alignment.guest_huge, 0u);
}

TEST(Scenario, MisalignmentBarelyHelps) {
  // The motivating claim (§2.3): host-only huge pages move performance only
  // marginally because no 2 MiB TLB entries result.
  const auto spec = QuickSpec();
  const auto base = harness::RunCleanSlate(SystemKind::kHostBVmB, spec,
                                           QuickBed());
  const auto mis = harness::RunCleanSlate(SystemKind::kMisalignment, spec,
                                          QuickBed());
  EXPECT_EQ(mis.alignment.aligned_pairs, 0u);
  // Within ~15 % of base-only: page-walk savings only, no TLB coverage.
  EXPECT_LT(mis.throughput, base.throughput * 1.15);
  EXPECT_GT(mis.throughput, base.throughput * 0.9);
}

TEST(Scenario, ReusedVmKeepsAlignmentHigh) {
  workload::WorkloadSpec spec = QuickSpec();
  BedOptions options = QuickBed();
  options.vm_gfn_count = 65536;
  const auto reused =
      harness::RunReusedVm(SystemKind::kGemini, spec, options);
  EXPECT_GT(reused.alignment.well_aligned_rate, 0.6);
  EXPECT_GT(reused.throughput, 0.0);
}

TEST(Scenario, GeminiAblationsRun) {
  workload::WorkloadSpec spec = QuickSpec();
  BedOptions options = QuickBed();
  options.vm_gfn_count = 65536;
  gemini::GeminiOptions full;
  gemini::GeminiOptions no_bucket;
  no_bucket.enable_bucket = false;
  const auto with_bucket =
      harness::RunGeminiAblation(spec, options, full);
  const auto without_bucket =
      harness::RunGeminiAblation(spec, options, no_bucket);
  EXPECT_GT(with_bucket.throughput, 0.0);
  EXPECT_GT(without_bucket.throughput, 0.0);
}

TEST(Scenario, DefaultGeminiAblationIsTheReusedVm) {
  // With Gemini's default options the ablation is the reused-VM scenario
  // under Gemini: same bed, same prefill, same measured run.  Redis churns
  // its allocations, so the bucket and the booking path both see work.
  workload::WorkloadSpec spec = workload::SpecByName("Redis");
  spec.working_set_pages = 12288;
  spec.ops = 60000;
  BedOptions options = QuickBed();
  options.vm_gfn_count = 65536;
  const auto ablation =
      harness::RunGeminiAblation(spec, options, gemini::GeminiOptions{});
  const auto reused = harness::RunReusedVm(SystemKind::kGemini, spec, options);
  EXPECT_GT(reused.tlb_misses, 0u);
  EXPECT_GT(reused.alignment.guest_huge, 0u);
  EXPECT_DOUBLE_EQ(ablation.throughput, reused.throughput);
  EXPECT_DOUBLE_EQ(ablation.mean_latency, reused.mean_latency);
  EXPECT_DOUBLE_EQ(ablation.p99_latency, reused.p99_latency);
  EXPECT_EQ(ablation.alignment.guest_huge, reused.alignment.guest_huge);
  EXPECT_EQ(ablation.alignment.host_huge, reused.alignment.host_huge);
  EXPECT_EQ(ablation.alignment.aligned_pairs, reused.alignment.aligned_pairs);
  EXPECT_DOUBLE_EQ(ablation.alignment.well_aligned_rate,
                   reused.alignment.well_aligned_rate);
  EXPECT_DOUBLE_EQ(ablation.alignment.aligned_coverage,
                   reused.alignment.aligned_coverage);
  size_t word = 0;
  size_t nonzero = 0;
  metrics::ForEachField(
      [&](metrics::FieldKind, uint64_t a, uint64_t b) {
        EXPECT_EQ(a, b) << "StackSnapshot word " << word;
        ++word;
        nonzero += b != 0 ? 1 : 0;
      },
      ablation.counters, reused.counters);
  EXPECT_GT(nonzero, 20u);
}

TEST(Scenario, CollocatedVmsBothMakeProgress) {
  workload::WorkloadSpec spec0 = QuickSpec();
  workload::WorkloadSpec spec1 = workload::SpecByName("Shore");
  spec1.working_set_pages = 4096;
  spec1.ops = 30000;
  BedOptions options = QuickBed();
  options.host_frames = 262144;
  // The pair figures never modelled VM boot.
  options.boot_noise_fraction = 0;
  const auto result = harness::RunCollocatedMany(
      SystemKind::kGemini, {spec0, spec1}, options, harness::ScaleOptions{});
  EXPECT_GT(result.vms[0].throughput, 0.0);
  EXPECT_GT(result.vms[1].throughput, 0.0);
  // The default 60 % warm-up is excluded from measured ops.
  EXPECT_EQ(result.vms[0].ops, spec0.ops - spec0.ops * 6 / 10);
  EXPECT_EQ(result.vms[1].ops, spec1.ops - spec1.ops * 6 / 10);
}

TEST(Parse, NumbersParseWholeAndInRange) {
  // The rule GEMINI_* knobs and the examples' flags share.
  EXPECT_EQ(base::ParseInt("20", 1, 100), 20u);
  EXPECT_EQ(base::ParseInt("20x", 1, 100), std::nullopt);
  EXPECT_EQ(base::ParseInt("0", 1, 100), std::nullopt);
  EXPECT_EQ(base::ParseInt("-1", 0, 100), std::nullopt);
  EXPECT_EQ(base::ParseRatio("0.5", 0.0, 1.0), 0.5);
  EXPECT_EQ(base::ParseRatio("abc", 0.0, 1.0), std::nullopt);
  EXPECT_EQ(base::ParseRatio("1.5", 0.0, 1.0), std::nullopt);
  EXPECT_EQ(base::ParseRatio("nan", 0.0, 1.0), std::nullopt);
}

TEST(Scenario, ScaleSpecShrinksOps) {
  const auto spec = workload::SpecByName("Redis");
  const auto scaled = harness::ScaleSpec(spec, 0.25);
  EXPECT_EQ(scaled.ops, spec.ops / 4);
  EXPECT_GT(scaled.churn_period_ops, 0u);
}

TEST(Scenario, DeterministicAcrossRuns) {
  const auto spec = QuickSpec();
  const auto a = harness::RunCleanSlate(SystemKind::kThp, spec, QuickBed());
  const auto b = harness::RunCleanSlate(SystemKind::kThp, spec, QuickBed());
  EXPECT_EQ(a.tlb_misses, b.tlb_misses);
  EXPECT_EQ(a.busy_cycles, b.busy_cycles);
  EXPECT_DOUBLE_EQ(a.alignment.well_aligned_rate,
                   b.alignment.well_aligned_rate);
}

}  // namespace
