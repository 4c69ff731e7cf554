// Cross-layer trace subsystem: typed tracepoints on a simulated clock.
//
// Every layer of the stack (buddy allocators, kernels, promoters, Gemini's
// booking manager and huge bucket, the daemon scheduler) emits Events into
// one per-machine Tracer.  Three properties make the traces usable as a
// debugging and regression artifact:
//
//  * Simulated time only.  Events are stamped with base::Cycles read from
//    the machine's logical clock — never wall clock — so a trace is a pure
//    function of (workload, system, seed) and byte-reproducible at any
//    GEMINI_JOBS setting and on any host.
//  * Bounded memory.  Events live in a fixed-capacity ring buffer; when it
//    is full the oldest events are overwritten and counted in dropped(),
//    so long runs keep the most recent window instead of growing without
//    bound or silently losing the fact that they lost data.
//  * Zero cost when disabled.  A default-constructed Tracer owns no buffer
//    and Emit() is a single predictable branch; the simulator's hot paths
//    pay nothing unless GEMINI_TRACE is set.
//
// Rendering to Chrome/Perfetto JSON and time-series CSV lives in
// trace/perfetto.h and trace/sampler.h; activation (GEMINI_TRACE in the
// bench binaries) lives in trace/session.h.
#ifndef SRC_TRACE_TRACER_H_
#define SRC_TRACE_TRACER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "base/types.h"

namespace trace {

// Every tracepoint in the stack.  Arguments a/b/c are event-specific; the
// meaning (and the Perfetto arg names) are given by EventArgNames().
enum class EventKind : uint8_t {
  // vmem::BuddyAllocator
  kBuddySplit,     // a=head frame, b=order found, c=order requested
  kBuddyMerge,     // a=final head frame, b=order freed at, c=final order
  kBuddyAllocAt,   // a=first frame, b=frame count (targeted allocation)
  // osim::KernelBase (promoters act through these)
  kPromoteInPlace, // a=region
  kPromoteMigrate, // a=region, b=new first frame, c=pages copied
  kDemote,         // a=region
  kShootdown,      // a=first page, b=page count
  // gemini::BookingManager
  kBookingBook,    // a=first frame, b=deadline (cycles)
  kBookingAssign,  // a=first frame
  kBookingExpire,  // a=first frame
  kTimeoutChange,  // a=new effective timeout, b=previous effective timeout
  // gemini::HugeBucket
  kBucketDeposit,  // a=first frame, b=retention deadline (cycles)
  kBucketTake,     // a=first frame
  kBucketEvict,    // a=first frame
  // osim::Machine
  kDaemonTick,     // a=tick ordinal of this boundary
  // vmem::TierSpace migrations (emitted by the owning kernel)
  kTierDemote,     // a=region, b=pages demoted, c=owner far-resident after
  kTierRefault,    // a=page, b=owner far-resident after
  // osim::ReclaimDaemon
  kReclaimPass,    // a=pages freed, b=host free frames after, c=watermark
};

inline constexpr int kEventKindCount = static_cast<int>(EventKind::kReclaimPass) + 1;

// Stable lower_snake_case name, used as the Perfetto event name.
const char* EventName(EventKind kind);

// Names of the a/b/c arguments for a kind ("" for unused slots).
struct ArgNames {
  const char* a;
  const char* b;
  const char* c;
};
ArgNames EventArgNames(EventKind kind);

// One tracepoint hit.  `vm_id` is -1 for host-global origins (the shared
// host buddy allocator).
struct Event {
  base::Cycles ts = 0;  // simulated cycles (machine logical clock)
  uint64_t a = 0;
  uint64_t b = 0;
  uint64_t c = 0;
  EventKind kind = EventKind::kDaemonTick;
  base::Layer layer = base::Layer::kGuest;
  int16_t vm_id = -1;
};

class Tracer {
 public:
  // Disabled and bufferless by default: the zero-cost state every test and
  // non-traced run stays in.
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Allocates the ring (capacity events, capacity >= 1) and starts
  // recording.  Calling Enable again resizes and clears the ring.
  void Enable(size_t capacity);
  bool enabled() const { return enabled_; }

  // Points the tracer at the simulated clock cell it stamps events from
  // (the machine's logical now).  Null clock stamps 0 (tests).
  void SetClock(const base::Cycles* clock) { clock_ = clock; }

  void Emit(EventKind kind, base::Layer layer, int32_t vm_id, uint64_t a = 0,
            uint64_t b = 0, uint64_t c = 0) {
    if (!enabled_) {
      return;
    }
    Record(kind, layer, vm_id, a, b, c);
  }

  // Events currently retained (<= capacity).
  size_t size() const { return count_; }
  size_t capacity() const { return ring_.capacity(); }
  // Events overwritten because the ring was full.
  uint64_t dropped() const { return dropped_; }
  // Events ever emitted while enabled (= size() + dropped()).
  uint64_t emitted() const { return count_ + dropped_; }

  // Visits retained events oldest first.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    const size_t start = count_ < ring_.size() ? 0 : head_;
    for (size_t i = 0; i < count_; ++i) {
      fn(ring_[(start + i) % ring_.size()]);
    }
  }

 private:
  void Record(EventKind kind, base::Layer layer, int32_t vm_id, uint64_t a,
              uint64_t b, uint64_t c);

  bool enabled_ = false;
  const base::Cycles* clock_ = nullptr;
  std::vector<Event> ring_;
  size_t head_ = 0;   // next write position
  size_t count_ = 0;  // events retained
  uint64_t dropped_ = 0;
};

}  // namespace trace

#endif  // SRC_TRACE_TRACER_H_
