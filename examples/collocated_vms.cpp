// Collocated-VMs scenario (paper §6.5): two VMs share one host; one runs a
// TLB-sensitive workload, the other a non-TLB-sensitive one.  Measures
// Gemini's applicability (it still helps the sensitive VM) and its
// overhead (it must not hurt the insensitive VM).
//
//   $ ./build/examples/collocated_vms
#include <cstdio>
#include <string>

#include "harness/experiment.h"

int main() {
  workload::WorkloadSpec sensitive = workload::SpecByName("Canneal");
  sensitive.ops = 120000;
  workload::WorkloadSpec insensitive = workload::SpecByName("SP.D");
  insensitive.ops = 120000;

  harness::BedOptions bed;
  bed.host_frames = 640 * 1024;
  bed.boot_noise_fraction = 0;  // the pair figures never modelled VM boot

  std::printf("VM0: %s (TLB-sensitive)   VM1: %s (not TLB-sensitive)\n\n",
              sensitive.name.c_str(), insensitive.name.c_str());
  std::printf("%-13s %18s %18s\n", "system", "VM0 thr (ops/kc)",
              "VM1 thr (ops/kc)");

  double base0 = 0;
  double base1 = 0;
  for (harness::SystemKind kind :
       {harness::SystemKind::kHostBVmB, harness::SystemKind::kIngens,
        harness::SystemKind::kGemini}) {
    const harness::CollocatedManyResult r = harness::RunCollocatedMany(
        kind, {sensitive, insensitive}, bed, harness::ScaleOptions{});
    const workload::RunResult& vm0 = r.vms[0];
    const workload::RunResult& vm1 = r.vms[1];
    if (kind == harness::SystemKind::kHostBVmB) {
      base0 = vm0.throughput;
      base1 = vm1.throughput;
    }
    std::printf("%-13s %12.3f (%.2fx) %12.3f (%.2fx)\n",
                std::string(harness::SystemName(kind)).c_str(),
                vm0.throughput, vm0.throughput / base0, vm1.throughput,
                vm1.throughput / base1);
  }
  std::printf(
      "\nExpected shape: Gemini lifts the sensitive VM the most while the\n"
      "insensitive VM stays within a few percent of Host-B-VM-B — Gemini's\n"
      "scanning/booking overhead is negligible when there is nothing for\n"
      "it to win (paper: ~2-3%%).\n");
  return 0;
}
