#include "mmu/page_table.h"

#include <algorithm>
#include <cstring>

#include "base/check.h"

namespace mmu {

using base::kPagesPerHuge;

PageTable::BaseRegion* PageTable::NodePool::Acquire() {
  BaseRegion* node;
  if (!free_.empty()) {
    node = free_.back();
    free_.pop_back();
  } else {
    if (used_in_last_chunk_ == kChunkNodes) {
      // For overwrite: the wipe below initializes each node as it is handed
      // out, so the slab's untouched tail is never zero-filled.
      chunks_.push_back(
          std::make_unique_for_overwrite<BaseRegion[]>(kChunkNodes));
      used_in_last_chunk_ = 0;
    }
    node = &chunks_.back()[used_in_last_chunk_++];
    ++handed_out_;
  }
  // A node starts (and restarts) empty: all frame cells at the absent
  // sentinel, all present words clear.  Doing the wipe here, once per
  // region (re)creation, keeps Release O(1).
  std::memset(node->frames.data(), 0xFF, sizeof(node->frames));
  node->present.fill(0);
  return node;
}

void PageTable::Grow(uint64_t region) {
  // Geometric growth keeps amortized slot creation O(1) even when the
  // address space expands one VMA at a time (churn workloads).  The first
  // region touched fixes where the vectors start; a later region below
  // them grows them downward, never past region 0.
  if (route_.empty()) {
    first_region_ = region & ~uint64_t{63};
  }
  const uint64_t size = route_.size();
  uint64_t below = 0;
  uint64_t target = size == 0 ? 64 : size;
  if (region < first_region_) {
    const uint64_t gap = (first_region_ - region + 63) & ~uint64_t{63};
    below = std::min(first_region_, std::max(size, gap));
    target = size + below;
  } else {
    while (first_region_ + target <= region) {
      target *= 2;
    }
  }
  first_region_ -= below;
  route_.insert(route_.begin(), below, 0);
  route_.resize(target, 0);
  huge_bits_.insert(huge_bits_.begin(), below / 64, 0);
  huge_bits_.resize(target / 64, 0);
  base_bits_.insert(base_bits_.begin(), below / 64, 0);
  base_bits_.resize(target / 64, 0);
  generations_.insert(generations_.begin(), below, 0);
  generations_.resize(target, 0);
  accesses_.insert(accesses_.begin(), below, AccessCell{});
  accesses_.resize(target);
}

void PageTable::SetRoute(uint64_t i, uint64_t route) {
  route_[i] = route;
  const uint64_t bit = 1ull << (i & 63);
  const bool huge = (route & 1) != 0;
  uint64_t& huge_word = huge_bits_[i >> 6];
  uint64_t& base_word = base_bits_[i >> 6];
  huge_word = huge ? huge_word | bit : huge_word & ~bit;
  base_word = route != 0 && !huge ? base_word | bit : base_word & ~bit;
}

void PageTable::MapBase(uint64_t vpn, uint64_t frame) {
  SIM_CHECK(frame < kAbsentFrame);  // frame cells are 32-bit (see header)
  const uint64_t region = vpn >> base::kHugeOrder;
  const uint32_t slot = static_cast<uint32_t>(vpn & (kPagesPerHuge - 1));
  const uint64_t i = EnsureRegion(region);
  SIM_CHECK_MSG((route_[i] & 1) == 0, "MapBase into huge-mapped region %llu",
                static_cast<unsigned long long>(region));
  BaseRegion* br = BaseNodeAt(i);
  if (br == nullptr) {
    br = pool_.Acquire();
    SetRoute(i, reinterpret_cast<uint64_t>(br));
    ++mapped_regions_;
  }
  SIM_CHECK_MSG(!br->Test(slot), "double map of vpn %llu",
                static_cast<unsigned long long>(vpn));
  br->frames[slot] = static_cast<uint32_t>(frame);
  br->Set(slot);
  BumpGeneration(i);
  ++mapped_base_pages_;
}

void PageTable::MapHuge(uint64_t region, uint64_t frame) {
  SIM_CHECK_MSG(frame % kPagesPerHuge == 0,
                "huge mapping target not huge-aligned: frame %llu",
                static_cast<unsigned long long>(frame));
  const uint64_t i = EnsureRegion(region);
  SIM_CHECK_MSG(route_[i] == 0, "MapHuge into non-empty region %llu",
                static_cast<unsigned long long>(region));
  // Huge leaves live entirely in the route word: no node is allocated, so
  // huge-heavy address spaces cost 8 bytes of hot state per region.
  SetRoute(i, (frame << 1) | 1);
  BumpGeneration(i);
  ++mapped_regions_;
  ++huge_leaves_;
}

uint64_t PageTable::UnmapBase(uint64_t vpn) {
  const uint64_t region = vpn >> base::kHugeOrder;
  const uint32_t slot = static_cast<uint32_t>(vpn & (kPagesPerHuge - 1));
  const uint64_t i = Index(region);
  SIM_CHECK(i < route_.size());
  BaseRegion* br = BaseNodeAt(i);
  SIM_CHECK(br != nullptr);
  SIM_CHECK(br->Test(slot));
  const uint64_t frame = br->frames[slot];
  br->frames[slot] = kAbsentFrame;
  br->Clear(slot);
  BumpGeneration(i);
  --mapped_base_pages_;
  if (br->None()) {
    pool_.Release(br);
    SetRoute(i, 0);
    --mapped_regions_;
  }
  return frame;
}

uint64_t PageTable::UnmapHuge(uint64_t region) {
  const uint64_t i = Index(region);
  SIM_CHECK(i < route_.size());
  SIM_CHECK(route_[i] & 1);
  const uint64_t frame = route_[i] >> 1;
  SetRoute(i, 0);
  BumpGeneration(i);
  --mapped_regions_;
  --huge_leaves_;
  return frame;
}

bool PageTable::CanPromoteInPlace(uint64_t region) const {
  const BaseRegion* br = BaseNode(region);
  if (br == nullptr || !br->All()) {
    return false;
  }
  const uint32_t first = br->frames[0];
  if (first % kPagesPerHuge != 0) {
    return false;
  }
  // Branchless reduction over the (fully present) frame cells; the 32-bit
  // cells and fixed trip count let the compiler vectorize the sweep.
  uint32_t diff = 0;
  for (uint32_t i = 0; i < kPagesPerHuge; ++i) {
    diff |= br->frames[i] ^ (first + i);
  }
  if (diff != 0) {
    return false;
  }
  return true;
}

void PageTable::PromoteInPlace(uint64_t region) {
  SIM_CHECK(CanPromoteInPlace(region));
  const uint64_t i = Index(region);
  BaseRegion* br = BaseNodeAt(i);
  const uint64_t frame = br->frames[0];
  pool_.Release(br);
  SetRoute(i, (frame << 1) | 1);
  BumpGeneration(i);
  mapped_base_pages_ -= kPagesPerHuge;
  ++huge_leaves_;
}

std::vector<std::pair<uint32_t, uint64_t>> PageTable::PromoteWithMigration(
    uint64_t region, uint64_t new_frame) {
  SIM_CHECK(new_frame % kPagesPerHuge == 0);
  const uint64_t i = Index(region);
  SIM_CHECK(i < route_.size());
  BaseRegion* br = BaseNodeAt(i);
  SIM_CHECK(br != nullptr);
  std::vector<std::pair<uint32_t, uint64_t>> old_pages;
  ForEachBasePage(region, [&old_pages](uint32_t slot, uint64_t frame) {
    old_pages.emplace_back(slot, frame);
  });
  mapped_base_pages_ -= old_pages.size();
  pool_.Release(br);
  SetRoute(i, (new_frame << 1) | 1);
  BumpGeneration(i);
  ++huge_leaves_;
  return old_pages;
}

void PageTable::Demote(uint64_t region) {
  const uint64_t i = Index(region);
  SIM_CHECK(i < route_.size());
  SIM_CHECK(route_[i] & 1);
  const uint64_t frame = route_[i] >> 1;
  SIM_CHECK(frame + kPagesPerHuge <= kAbsentFrame);  // must fit 32-bit cells
  BaseRegion* node = pool_.Acquire();
  FillContiguous(node, frame);
  SetRoute(i, reinterpret_cast<uint64_t>(node));
  BumpGeneration(i);
  --huge_leaves_;
  mapped_base_pages_ += kPagesPerHuge;
}

uint32_t PageTable::PresentBasePages(uint64_t region) const {
  const BaseRegion* br = BaseNode(region);
  return br != nullptr ? br->Count() : 0;
}

std::optional<uint64_t> PageTable::BaseFrame(uint64_t region,
                                             uint32_t slot) const {
  const BaseRegion* br = BaseNode(region);
  if (br == nullptr || !br->Test(slot)) {
    return std::nullopt;
  }
  return br->frames[slot];
}

namespace {

// Calls fn(i) for every set bit i of an occupancy bitmap, ascending.
// Each word is read once, before its regions are visited: the snapshot
// the visitor contract in page_table.h refers to.
template <typename Fn>
void ForEachSetBit(const std::vector<uint64_t>& bits, const Fn& fn) {
  for (uint64_t w = 0; w < bits.size(); ++w) {
    for (uint64_t word = bits[w]; word != 0; word &= word - 1) {
      fn(w * 64 + static_cast<uint64_t>(__builtin_ctzll(word)));
    }
  }
}

}  // namespace

void PageTable::ForEachHuge(
    const std::function<void(uint64_t, uint64_t)>& fn) const {
  const uint64_t mutations = mutations_;
  ForEachSetBit(huge_bits_, [&](uint64_t i) {
    const uint64_t region = first_region_ + i;
    fn(region, route_[i] >> 1);
    SIM_CHECK_MSG(mutations_ == mutations,
                  "ForEachHuge callback mutated the table at region %llu",
                  static_cast<unsigned long long>(region));
  });
}

void PageTable::ForEachBaseRegion(
    const std::function<void(uint64_t, uint32_t)>& fn) const {
  const uint64_t mutations = mutations_;
  ForEachSetBit(base_bits_, [&](uint64_t i) {
    const uint64_t region = first_region_ + i;
    fn(region, reinterpret_cast<const BaseRegion*>(route_[i])->Count());
    SIM_CHECK_MSG(
        mutations_ == mutations,
        "ForEachBaseRegion callback mutated the table at region %llu",
        static_cast<unsigned long long>(region));
  });
}

void PageTable::ForEachBasePage(
    uint64_t region,
    const std::function<void(uint32_t, uint64_t)>& fn) const {
  const BaseRegion* br = BaseNode(region);
  if (br == nullptr) {
    return;
  }
  for (uint32_t w = 0; w < br->present.size(); ++w) {
    uint64_t word = br->present[w];
    while (word != 0) {
      const uint32_t slot =
          w * 64 + static_cast<uint32_t>(__builtin_ctzll(word));
      fn(slot, br->frames[slot]);
      word &= word - 1;  // clear lowest set bit
    }
  }
}

std::optional<std::pair<uint32_t, uint64_t>> PageTable::FirstPresent(
    uint64_t region) const {
  const BaseRegion* br = BaseNode(region);
  if (br == nullptr) {
    return std::nullopt;
  }
  for (uint32_t w = 0; w < br->present.size(); ++w) {
    if (br->present[w] != 0) {
      const uint32_t slot =
          w * 64 + static_cast<uint32_t>(__builtin_ctzll(br->present[w]));
      return std::make_pair(slot, br->frames[slot]);
    }
  }
  return std::nullopt;
}

std::optional<uint64_t> PageTable::ContiguousAnchor(uint64_t region) const {
  const BaseRegion* br = BaseNode(region);
  if (br == nullptr) {
    return std::nullopt;
  }
  const auto first = FirstPresent(region);
  if (!first.has_value()) {
    return std::nullopt;
  }
  // Anchor implied by the first present page; every other present page must
  // agree (frames[slot] == anchor + slot) and it must be huge-aligned.
  if (first->second < first->first) {
    return std::nullopt;
  }
  const uint64_t anchor = first->second - first->first;
  if (anchor % kPagesPerHuge != 0) {
    return std::nullopt;
  }
  // Word-at-a-time: the sentinel makes absent cells all-ones, so comparing
  // frames[slot] - slot == anchor over present slots only needs the present
  // word to mask out the absent positions.
  for (uint32_t w = 0; w < br->present.size(); ++w) {
    uint64_t word = br->present[w];
    while (word != 0) {
      const uint32_t slot =
          w * 64 + static_cast<uint32_t>(__builtin_ctzll(word));
      if (br->frames[slot] != anchor + slot) {
        return std::nullopt;
      }
      word &= word - 1;
    }
  }
  return anchor;
}

void PageTable::MissingSlots(uint64_t region,
                             std::vector<uint32_t>* out) const {
  const BaseRegion* br = BaseNode(region);
  if (br == nullptr) {
    return;
  }
  for (uint32_t w = 0; w < br->present.size(); ++w) {
    uint64_t word = ~br->present[w];
    while (word != 0) {
      out->push_back(w * 64 + static_cast<uint32_t>(__builtin_ctzll(word)));
      word &= word - 1;
    }
  }
}

void PageTable::CheckInvariants() const {
  uint64_t bases = 0;
  uint64_t huges = 0;
  uint64_t mapped = 0;
  SIM_CHECK(huge_bits_.size() * 64 == route_.size());
  SIM_CHECK(base_bits_.size() * 64 == route_.size());
  SIM_CHECK(first_region_ % 64 == 0);
  for (uint64_t i = 0; i < route_.size(); ++i) {
    const uint64_t route = route_[i];
    // Occupancy bits agree with the route word: the visitors trust the
    // bits alone.
    const bool huge_bit = (huge_bits_[i >> 6] >> (i & 63)) & 1;
    const bool base_bit = (base_bits_[i >> 6] >> (i & 63)) & 1;
    SIM_CHECK(huge_bit == ((route & 1) != 0));
    SIM_CHECK(base_bit == (route != 0 && (route & 1) == 0));
    if (route & 1) {
      SIM_CHECK((route >> 1) % kPagesPerHuge == 0);
      ++huges;
      ++mapped;
    } else if (route != 0) {
      const BaseRegion* br = reinterpret_cast<const BaseRegion*>(route);
      SIM_CHECK(!br->None());  // empty tables are released
      bases += br->Count();
      ++mapped;
      // Sentinel/present agreement: the hot path trusts the frame cell
      // alone, the sweeps trust the present words alone.
      for (uint32_t slot = 0; slot < kPagesPerHuge; ++slot) {
        SIM_CHECK((br->frames[slot] != kAbsentFrame) == br->Test(slot));
      }
    }
  }
  SIM_CHECK(bases == mapped_base_pages_);
  SIM_CHECK(huges == huge_leaves_);
  SIM_CHECK(mapped == mapped_regions_);
  // Exactly the base-mapped regions hold arena nodes (huge leaves are
  // route-inline).
  SIM_CHECK(pool_.live() == mapped_regions_ - huge_leaves_);
}

}  // namespace mmu
