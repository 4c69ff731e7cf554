#include "mmu/tlb.h"

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define MMU_TLB_HAVE_AVX2_PROBE 1
#endif

#include "base/check.h"

namespace mmu {

namespace {

#ifdef MMU_TLB_HAVE_AVX2_PROBE
// 4-way-at-a-time packed-tag compare.  Probes are the innermost operation
// of every translation (two per lookup, plus insert/shootdown probes), and
// the scalar loop spends most of its time on loop overhead for a 12-way
// scan.  Returns the lowest matching way like the scalar loop would; tags
// are unique per (set, size, vmid) so at most one lane ever matches.
__attribute__((target("avx2"))) int64_t ProbeWaysAvx2(const uint64_t* tags,
                                                      uint32_t ways,
                                                      uint64_t target) {
  const __m256i want = _mm256_set1_epi64x(static_cast<long long>(target));
  uint32_t w = 0;
  for (; w + 4 <= ways; w += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(tags + w));
    const int m = _mm256_movemask_pd(
        _mm256_castsi256_pd(_mm256_cmpeq_epi64(v, want)));
    if (m != 0) {
      return w + static_cast<uint32_t>(__builtin_ctz(static_cast<uint32_t>(m)));
    }
  }
  for (; w < ways; ++w) {
    if (tags[w] == target) {
      return w;
    }
  }
  return -1;
}

bool HaveAvx2() {
  static const bool have = __builtin_cpu_supports("avx2");
  return have;
}
#endif  // MMU_TLB_HAVE_AVX2_PROBE

}  // namespace

Tlb::Tlb(const TlbConfig& config) : config_(config) {
  SIM_CHECK(config_.sets > 0 && (config_.sets & (config_.sets - 1)) == 0);
  SIM_CHECK(config_.ways > 0);
  const size_t n = static_cast<size_t>(config_.sets) * config_.ways;
  tags_.assign(n, 0);
  lru_.assign(n, 0);
  entries_.resize(n);
  set_valid_.assign(config_.sets, 0);
  RegisterVm(0);
}

void Tlb::RegisterVm(uint16_t vmid) {
  SIM_CHECK(vmid < kMaxVms);
  if (vms_.size() <= vmid) {
    vms_.resize(vmid + 1);
  }
  if (vms_[vmid].way_count == 0) {
    SetVmWays(vmid, 0, config_.ways);
  }
}

void Tlb::SetVmWays(uint16_t vmid, uint32_t way_begin, uint32_t way_count) {
  SIM_CHECK(vmid < kMaxVms);
  SIM_CHECK(way_count > 0 && way_begin + way_count <= config_.ways);
  if (vms_.size() <= vmid) {
    vms_.resize(vmid + 1);
  }
  VmState& vm = vms_[vmid];
  if (vm.way_count == 0) {
    windowed_.push_back(vmid);
  }
  vm.way_begin = way_begin;
  vm.way_count = way_count;
  // Recount residency inside the new window (setup-time; full scan is fine).
  vm.window_valid = 0;
  for (uint32_t s = 0; s < config_.sets; ++s) {
    const size_t base_i = static_cast<size_t>(s) * config_.ways;
    for (uint32_t w = way_begin; w < way_begin + way_count; ++w) {
      vm.window_valid += static_cast<uint32_t>(tags_[base_i + w] & 1);
    }
  }
}

uint32_t Tlb::RepartitionVmWays(uint16_t vmid, uint32_t way_begin,
                                uint32_t way_count) {
  SIM_CHECK(vmid < kMaxVms);
  SIM_CHECK(way_count > 0 && way_begin + way_count <= config_.ways);
  if (const VmState* vm = VmOrNull(vmid);
      vm != nullptr && vm->way_begin == way_begin &&
      vm->way_count == way_count) {
    return 0;
  }
  SetVmWays(vmid, way_begin, way_count);
  // Drop this VM's entries stranded outside the new window.  DropSlot keeps
  // every covering window's residency count correct, including windows of
  // VMs whose own repartition has not happened yet this tick.
  uint32_t dropped = 0;
  const uint32_t way_end = way_begin + way_count;
  for (size_t i = 0; i < tags_.size(); ++i) {
    const uint64_t t = tags_[i];
    if ((t & 1) == 0 || TagVmid(t) != vmid) {
      continue;
    }
    const uint32_t way = static_cast<uint32_t>(i % config_.ways);
    if (way < way_begin || way >= way_end) {
      DropSlot(i);
      ++dropped;
    }
  }
  Counters(vmid).repartition_evictions += dropped;
  return dropped;
}

uint32_t Tlb::entry_count_outside_window(uint16_t vmid) const {
  const VmState* vm = VmOrNull(vmid);
  if (vm == nullptr || vm->way_count == 0) {
    return entry_count(vmid);
  }
  uint32_t n = 0;
  for (size_t i = 0; i < tags_.size(); ++i) {
    const uint64_t t = tags_[i];
    if ((t & 1) == 0 || TagVmid(t) != vmid) {
      continue;
    }
    const uint32_t way = static_cast<uint32_t>(i % config_.ways);
    n += static_cast<uint32_t>(way < vm->way_begin ||
                               way >= vm->way_begin + vm->way_count);
  }
  return n;
}

Tlb::VmState& Tlb::Vm(uint16_t vmid) {
  if (vmid >= vms_.size() || vms_[vmid].way_count == 0) {
    RegisterVm(vmid);
  }
  return vms_[vmid];
}

const Tlb::VmState* Tlb::VmOrNull(uint16_t vmid) const {
  if (vmid >= vms_.size()) {
    return nullptr;
  }
  return &vms_[vmid];
}

const Tlb::VmTlbCounters& Tlb::vm_counters(uint16_t vmid) const {
  static const VmTlbCounters kZero{};
  const VmState* vm = VmOrNull(vmid);
  return vm != nullptr ? vm->counters : kZero;
}

uint64_t Tlb::Sum(uint64_t VmTlbCounters::* field) const {
  uint64_t total = 0;
  for (const VmState& vm : vms_) {
    total += vm.counters.*field;
  }
  return total;
}

int64_t Tlb::FindEntry(uint64_t key, base::PageSize size,
                       uint16_t vmid) const {
  const size_t base_i = static_cast<size_t>(SetIndex(key)) * config_.ways;
  const uint64_t target = PackedTag(key, size, vmid);
#ifdef MMU_TLB_HAVE_AVX2_PROBE
  if (HaveAvx2()) {
    const int64_t w = ProbeWaysAvx2(&tags_[base_i], config_.ways, target);
    return w >= 0 ? static_cast<int64_t>(base_i) + w : -1;
  }
#endif
  for (uint32_t w = 0; w < config_.ways; ++w) {
    if (tags_[base_i + w] == target) {
      return static_cast<int64_t>(base_i + w);
    }
  }
  return -1;
}

Tlb::LookupResult Tlb::Lookup(uint64_t vpn, uint16_t vmid) {
  ++clock_;
  // Probe the 2 MiB structure first (covers more), then 4 KiB.
  const uint64_t region = vpn >> base::kHugeOrder;
  if (const int64_t i = FindEntry(region, base::PageSize::kHuge, vmid);
      i >= 0) {
    lru_[i] = clock_;
    ++Counters(vmid).hits;
    last_hit_ = i;
    if (__builtin_expect(monitor_ != nullptr, 0)) {
      monitor_->OnAccess(region, base::PageSize::kHuge, vmid);
    }
    const Entry& e = entries_[i];
    return LookupResult{true, base::PageSize::kHuge, e.frame, e.stamp};
  }
  if (const int64_t i = FindEntry(vpn, base::PageSize::kBase, vmid); i >= 0) {
    lru_[i] = clock_;
    ++Counters(vmid).hits;
    last_hit_ = i;
    if (__builtin_expect(monitor_ != nullptr, 0)) {
      monitor_->OnAccess(vpn, base::PageSize::kBase, vmid);
    }
    const Entry& e = entries_[i];
    return LookupResult{true, base::PageSize::kBase, e.frame, e.stamp};
  }
  VmTlbCounters& c = Counters(vmid);
  ++c.misses;
  last_hit_ = -1;
  if (__builtin_expect(monitor_ != nullptr, 0)) {
    // Displaced-record probe: was this very translation evicted earlier?
    const int32_t evictor = monitor_->AttributeMiss(vpn, vmid);
    if (evictor >= 0) {
      ++(static_cast<uint16_t>(evictor) == vmid ? c.displaced_by_self
                                                : c.displaced_by_other);
    }
  }
  return LookupResult{};
}

void Tlb::RestampHit(const Stamp& stamp) {
  SIM_CHECK(last_hit_ >= 0 && (tags_[last_hit_] & 1) != 0);
  entries_[last_hit_].stamp = stamp;
}

void Tlb::UncountFaultMiss(uint16_t vmid) { --Counters(vmid).misses; }

void Tlb::DiscountStaleHit(uint16_t vmid) {
  VmTlbCounters& c = Counters(vmid);
  ++c.stale_drops;
  --c.hits;
  ++c.misses;
}

void Tlb::Insert(uint64_t vpn, base::PageSize size, uint64_t frame) {
  Insert(vpn, size, frame, Stamp{}, 0);
}

void Tlb::Insert(uint64_t vpn, base::PageSize size, uint64_t frame,
                 const Stamp& stamp, uint16_t vmid) {
  const uint64_t key =
      size == base::PageSize::kHuge ? (vpn >> base::kHugeOrder) : vpn;
  if (const int64_t i = FindEntry(key, size, vmid); i >= 0) {
    ++clock_;
    lru_[i] = clock_;
    entries_[i].frame = frame;
    entries_[i].stamp = stamp;
    if (monitor_ != nullptr) {
      monitor_->OnInsert(key, size, vmid);
    }
    return;
  }
  InsertMiss(vpn, size, frame, stamp, vmid);
}

void Tlb::InsertMiss(uint64_t vpn, base::PageSize size, uint64_t frame,
                     const Stamp& stamp, uint16_t vmid) {
  ++clock_;
  const uint64_t key =
      size == base::PageSize::kHuge ? (vpn >> base::kHugeOrder) : vpn;
  VmState& vm = Vm(vmid);
  const size_t base_i = static_cast<size_t>(SetIndex(key)) * config_.ways;
  const uint32_t way_end = vm.way_begin + vm.way_count;
  // LRU victim scan, branchless on the min update: which way is oldest is
  // data-dependent and mispredicts as a branch, so keep it as selects.
  // The free-way break stays a branch — it is rare once the set fills and
  // predicts well.
  size_t victim = base_i + vm.way_begin;
  uint64_t victim_lru = ~0ull;
  for (uint32_t w = vm.way_begin; w < way_end; ++w) {
    const size_t i = base_i + w;
    if ((tags_[i] & 1) == 0) {
      victim = i;
      break;
    }
    const uint64_t l = lru_[i];
    const bool older = l < victim_lru;
    victim = older ? i : victim;
    victim_lru = older ? l : victim_lru;
  }
  if ((tags_[victim] & 1) != 0) {
    // Evicting a valid entry: attribute the eviction to its owner, split
    // conflict vs true-capacity by whether the inserting VM's window still
    // has a free way in some other set (it has none in this one).
    const uint64_t vt = tags_[victim];
    const uint16_t victim_vmid = TagVmid(vt);
    const bool victim_huge = (vt & 2) != 0;
    const bool conflict =
        vm.window_valid <
        static_cast<uint64_t>(config_.sets) * vm.way_count;
    VmTlbCounters& vc = Counters(victim_vmid);
    if (victim_vmid != vmid) {
      ++vc.cross_vm_evictions;
    }
    if (conflict) {
      ++(victim_huge ? vc.conflict_evictions_huge
                     : vc.conflict_evictions_base);
    } else {
      ++(victim_huge ? vc.capacity_evictions_huge
                     : vc.capacity_evictions_base);
    }
    if (monitor_ != nullptr) {
      monitor_->OnEviction(vt >> (kVmidBits + 2),
                           victim_huge ? base::PageSize::kHuge
                                       : base::PageSize::kBase,
                           victim_vmid, vmid);
    }
    DropSlot(victim);
  }
  tags_[victim] = PackedTag(key, size, vmid);
  AddSlot(victim);
  lru_[victim] = clock_;
  entries_[victim].frame = frame;
  entries_[victim].stamp = stamp;
  if (monitor_ != nullptr) {
    monitor_->OnInsert(key, size, vmid);
  }
}

void Tlb::DropSlot(size_t i) {
  tags_[i] = 0;
  --set_valid_[i / config_.ways];
  --valid_total_;
  const uint32_t way = static_cast<uint32_t>(i % config_.ways);
  for (const uint16_t vmid : windowed_) {
    VmState& vm = vms_[vmid];
    if (way >= vm.way_begin && way < vm.way_begin + vm.way_count) {
      --vm.window_valid;
    }
  }
}

void Tlb::AddSlot(size_t i) {
  ++set_valid_[i / config_.ways];
  ++valid_total_;
  const uint32_t way = static_cast<uint32_t>(i % config_.ways);
  for (const uint16_t vmid : windowed_) {
    VmState& vm = vms_[vmid];
    if (way >= vm.way_begin && way < vm.way_begin + vm.way_count) {
      ++vm.window_valid;
    }
  }
}

void Tlb::Flush() {
  for (uint64_t& t : tags_) {
    t = 0;
  }
  for (uint32_t& s : set_valid_) {
    s = 0;
  }
  for (VmState& vm : vms_) {
    vm.window_valid = 0;
  }
  valid_total_ = 0;
  ++flushes_;
  if (monitor_ != nullptr) {
    monitor_->OnFlush();
  }
}

uint32_t Tlb::InvalidateVm(uint16_t vmid) {
  uint32_t dropped = 0;
  for (size_t i = 0; i < tags_.size(); ++i) {
    const uint64_t t = tags_[i];
    if ((t & 1) != 0 && TagVmid(t) == vmid) {
      DropSlot(i);
      ++dropped;
    }
  }
  Counters(vmid).vm_invalidated += dropped;
  if (monitor_ != nullptr) {
    monitor_->OnInvalidateVm(vmid);
  }
  return dropped;
}

uint32_t Tlb::ShootdownPage(uint64_t vpn, uint16_t vmid) {
  uint32_t dropped = 0;
  if (const int64_t i = FindEntry(vpn, base::PageSize::kBase, vmid); i >= 0) {
    DropSlot(i);
    ++dropped;
  }
  if (const int64_t i =
          FindEntry(vpn >> base::kHugeOrder, base::PageSize::kHuge, vmid);
      i >= 0) {
    DropSlot(i);
    ++dropped;
  }
  Counters(vmid).shootdowns += dropped;
  if (monitor_ != nullptr) {
    // Unconditional: stale displaced records / shadow entries for absent
    // keys must be cleared too.
    monitor_->OnShootdown(vpn, vmid);
  }
  return dropped;
}

uint32_t Tlb::ShootdownRange(uint64_t vpn, uint64_t pages, uint16_t vmid) {
  // For large ranges a full scan is cheaper than per-page probes.
  if (pages >= entries_.size()) {
    uint32_t dropped = 0;
    const uint64_t end = vpn + pages;
    for (size_t i = 0; i < tags_.size(); ++i) {
      const uint64_t t = tags_[i];
      if ((t & 1) == 0 || TagVmid(t) != vmid) {
        continue;
      }
      const bool huge = (t & 2) != 0;
      const uint64_t tag = t >> (kVmidBits + 2);
      const uint64_t lo = huge ? tag << base::kHugeOrder : tag;
      const uint64_t hi = lo + (huge ? base::kPagesPerHuge : 1);
      if (lo < end && hi > vpn) {
        DropSlot(i);
        ++dropped;
      }
    }
    Counters(vmid).shootdowns += dropped;
    if (monitor_ != nullptr) {
      monitor_->OnShootdownRange(vpn, pages, vmid);
    }
    return dropped;
  }
  uint32_t dropped = 0;
  for (uint64_t p = 0; p < pages; ++p) {
    dropped += ShootdownPage(vpn + p, vmid);
  }
  return dropped;
}

uint32_t Tlb::entry_count() const { return valid_total_; }

uint32_t Tlb::entry_count(uint16_t vmid) const {
  uint32_t n = 0;
  for (const uint64_t t : tags_) {
    n += static_cast<uint32_t>((t & 1) != 0 && TagVmid(t) == vmid);
  }
  return n;
}

uint32_t Tlb::set_occupancy(uint32_t set) const {
  SIM_CHECK(set < config_.sets);
  return set_valid_[set];
}

void Tlb::ResetCounters() {
  for (VmState& vm : vms_) {
    vm.counters = VmTlbCounters{};
  }
  flushes_ = 0;
}

void Tlb::ResetVmCounters(uint16_t vmid) {
  if (vmid < vms_.size()) {
    vms_[vmid].counters = VmTlbCounters{};
  }
}

}  // namespace mmu
