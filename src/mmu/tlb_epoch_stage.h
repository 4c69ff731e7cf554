// Per-VM epoch staging for a shared physical TLB array.
//
// The epoch-parallel execution backend (os/machine.h BeginEpoch /
// EpochBarrier, workload/epoch_executor.h) runs the clean translations of
// every VM concurrently within an epoch.  With a private TLB per VM that
// is trivially safe — each lane mutates only its own array — but the
// shared and partitioned arrangements of mmu::TlbDomain put every VM's
// entries, the LRU clock, and the utility monitor in one physical array.
//
// A TlbEpochStage is the thread-confined proxy one VM's TlbView routes
// through while an epoch is open:
//
//   * Reads see the *frozen* physical array (no other lane writes it
//     during the epoch) through an overlay of this VM's own staged
//     inserts, restamps, and shootdown tombstones, so a lane observes its
//     own effects immediately and other VMs' effects only at epoch
//     granularity.
//   * Every counter-moving operation appends an event to a log and bumps
//     a per-VM signed delta (so mid-epoch counter reads — latency-record
//     snapshots — include the lane's own activity).
//   * At the epoch barrier, Machine::EpochBarrier commits the stages in
//     canonical VM-ID order: each Commit() replays the event log onto the
//     live array, driving the real LRU clock, eviction accounting, and
//     utility-monitor hooks exactly as if the lane's operations had run
//     serially at the barrier, after every lower-ID VM's.
//
// The replayed semantics are deterministic at any worker-thread count —
// a lane's log is a pure function of its own access stream and the frozen
// array — which is the whole point: GEMINI_VM_THREADS must be
// unobservable in simulation output (DESIGN.md §3g).  Two deliberate
// deviations from fully-serial execution, identical at every thread
// count: a staged insert does not evict anything until replay (the epoch
// view has unbounded capacity for new entries), and a staged hit whose
// entry was evicted by an earlier replayed insert still counts as a hit
// (the LRU touch is skipped; the next epoch misses and refills).
//
// Kernel-side invalidation (ShootdownRange, InvalidateVm, Flush) never
// goes through a stage: faults, daemons, and teardown are barrier-
// confined by the execution model, and TlbView checks that invariant.
#ifndef SRC_MMU_TLB_EPOCH_STAGE_H_
#define SRC_MMU_TLB_EPOCH_STAGE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "base/types.h"
#include "mmu/tlb.h"

namespace mmu {

class TlbEpochStage {
 public:
  // `physical` must outlive the stage; `vmid` is fixed for its lifetime.
  TlbEpochStage(Tlb* physical, uint16_t vmid);

  // Opens an epoch: clears the overlay, the event log, and the deltas.
  void BeginEpoch();

  // Replays the event log onto the physical array in operation order and
  // clears all staged state.  Serial-phase only (the caller guarantees no
  // lane is running).
  void Commit();

  // Signed counter movement staged this epoch, added on top of the frozen
  // physical counters by TlbView's accessors so mid-epoch snapshots see
  // the lane's own activity.  Counters the lane's clean path cannot move
  // directly (evictions, displaced-by attribution) update at Commit.
  struct Deltas {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t stale_drops = 0;
    int64_t shootdowns = 0;
  };
  const Deltas& deltas() const { return deltas_; }

  // --- the TlbView operation surface, vmid bound at construction ---
  Tlb::LookupResult Lookup(uint64_t vpn);
  void Insert(uint64_t vpn, base::PageSize size, uint64_t frame,
              const Tlb::Stamp& stamp);
  void RestampHit(const Tlb::Stamp& stamp);
  void DiscountStaleHit();
  void UncountFaultMiss();
  uint32_t ShootdownPage(uint64_t vpn);

  uint16_t vmid() const { return vmid_; }

 private:
  enum class EventKind : uint8_t {
    kHit,        // key: entry key (region for huge, vpn for base)
    kMiss,       // key: the missing vpn (monitor attribution probes by vpn)
    kStale,      // DiscountStaleHit
    kUncount,    // UncountFaultMiss
    kInsert,     // key/frame/stamp: the inserted entry
    kShootdown,  // key: the shot-down vpn
    kRestamp,    // key/stamp: entry restamped in place
  };
  struct Event {
    EventKind kind;
    base::PageSize size;
    uint64_t key;
    uint64_t frame;
    Tlb::Stamp stamp;
  };
  // Overlay over the frozen array: present=false is a tombstone (the
  // lane shot the entry down this epoch).
  struct Overlay {
    bool present = false;
    uint64_t frame = 0;
    Tlb::Stamp stamp;
  };
  static uint64_t OverlayKey(uint64_t key, base::PageSize size) {
    return (key << 1) | (size == base::PageSize::kHuge ? 1ull : 0ull);
  }
  // Epoch-visible presence of (key, size): overlay first, then the frozen
  // physical array.  Fills frame/stamp on true.
  bool ProbeOne(uint64_t key, base::PageSize size, uint64_t* frame,
                Tlb::Stamp* stamp) const;
  void LogHit(uint64_t key, base::PageSize size);

  Tlb* physical_;
  uint16_t vmid_;
  std::unordered_map<uint64_t, Overlay> overlay_;
  std::vector<Event> events_;
  Deltas deltas_;
  // Entry the most recent staged Lookup hit (for RestampHit).
  bool last_was_hit_ = false;
  uint64_t last_hit_key_ = 0;
  base::PageSize last_hit_size_ = base::PageSize::kBase;
};

}  // namespace mmu

#endif  // SRC_MMU_TLB_EPOCH_STAGE_H_
