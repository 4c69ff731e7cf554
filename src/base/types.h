// Fundamental address/page types and constants shared by the whole
// simulator.  The simulated machine models an x86-64-like platform with
// 4 KiB base pages and 2 MiB huge pages (512 base pages per huge page).
#ifndef SRC_BASE_TYPES_H_
#define SRC_BASE_TYPES_H_

#include <cstdint>

namespace base {

inline constexpr uint64_t kPageShift = 12;
inline constexpr uint64_t kPageSize = 1ull << kPageShift;            // 4 KiB
inline constexpr uint64_t kHugeShift = 21;
inline constexpr uint64_t kHugeSize = 1ull << kHugeShift;            // 2 MiB
inline constexpr uint64_t kPagesPerHuge = kHugeSize / kPageSize;     // 512
inline constexpr uint64_t kHugeOrder = 9;  // log2(kPagesPerHuge)

// Largest buddy order (exclusive bound), mirroring Linux MAX_ORDER = 11,
// i.e. the largest block is 2^10 pages = 4 MiB.
inline constexpr int kMaxOrder = 11;

inline constexpr uint64_t HugeAlignDown(uint64_t addr) {
  return addr & ~(kHugeSize - 1);
}
inline constexpr uint64_t HugeAlignUp(uint64_t addr) {
  return (addr + kHugeSize - 1) & ~(kHugeSize - 1);
}

// A page mapping can be at either of two granularities.
enum class PageSize : uint8_t {
  kBase,  // 4 KiB
  kHuge,  // 2 MiB
};

// The two layers of the virtualization stack.
enum class Layer : uint8_t {
  kGuest,  // guest process page table: GVA -> GPA
  kHost,   // VM page table (EPT):      GPA -> HPA
};

inline constexpr const char* LayerName(Layer layer) {
  return layer == Layer::kGuest ? "guest" : "host";
}

// Simulated time.  One tick == one simulated CPU cycle.
using Cycles = uint64_t;

}  // namespace base

#endif  // SRC_BASE_TYPES_H_
