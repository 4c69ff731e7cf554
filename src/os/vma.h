// Virtual memory areas of a guest process and the address-space map that
// owns them.
//
// The simulator gives each VM a single workload process (matching the
// paper's setup of one workload per VM).  VMAs are created huge-aligned —
// as Linux does for anonymous mmap()s above the THP size — so a VMA's
// alignment never prevents huge mappings; what decides alignment is the
// *physical* placement the policies choose.
#ifndef SRC_OS_VMA_H_
#define SRC_OS_VMA_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "base/types.h"

namespace osim {

struct Vma {
  int32_t id = -1;
  uint64_t start_page = 0;  // first VPN
  uint64_t pages = 0;       // length
  bool touched = false;     // any page ever faulted in

  uint64_t end_page() const { return start_page + pages; }
  bool Contains(uint64_t vpn) const {
    return vpn >= start_page && vpn < end_page();
  }
  // True if the whole 2 MiB region lies inside this VMA.
  bool CoversRegion(uint64_t region) const {
    const uint64_t first = region << base::kHugeOrder;
    return first >= start_page && first + base::kPagesPerHuge <= end_page();
  }
};

class AddressSpace {
 public:
  // Virtual layout starts at 4 GiB to keep low prefixes distinct from
  // guest-physical frame numbers in traces.
  explicit AddressSpace(uint64_t first_page = 1ull << 20);

  // Creates an anonymous VMA of `pages` pages at a huge-aligned address,
  // with a guard gap after the previous VMA.
  Vma& MapAnonymous(uint64_t pages);

  // Removes the VMA record (the kernel frees its pages first).
  void Remove(int32_t vma_id);

  Vma* Find(uint64_t vpn);
  Vma* FindById(int32_t vma_id);

  // All live VMAs in address order.  No simulated path lists them; it
  // stays as the tests' view of the address space (test_machine,
  // test_workload, test_vma).
  std::vector<Vma*> Vmas();
  size_t vma_count() const { return vmas_.size(); }

 private:
  uint64_t next_page_;
  int32_t next_id_ = 0;
  std::map<uint64_t, Vma> vmas_;  // keyed by start_page
};

}  // namespace osim

#endif  // SRC_OS_VMA_H_
