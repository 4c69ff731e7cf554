// Huge booking (paper §3, §4.1).
//
// For a type-1 misaligned huge page, Gemini temporarily reserves the
// huge-page-sized memory region at the other layer (taking it out of the
// buddy's general pool) so that ordinary small allocations cannot splinter
// it before an aligned huge page or aligned contiguous base pages can be
// formed there.  A booking ends when:
//   * the enhanced memory allocator assigns the region to an allocation
//     (the frames return to the buddy just-in-time for targeted
//     allocation), or
//   * the booking times out.
//
// The timeout is the key tunable: too long wastes memory and raises
// fragmentation, too short loses bookings to splintering.  Algorithm 1
// adjusts it online: probe +10 %, keep it if TLB misses decreased without
// fragmentation increasing, else probe -10 %, symmetrically.  The
// BookingTimeoutController below is a direct state-machine transcription of
// the algorithm's while-loop: each OnPeriod() call delivers one period P of
// measurements (TLB misses, FMFI), and OnDaemonTick() is the clock that
// ends the periods.
#ifndef SRC_GEMINI_HUGE_BOOKING_H_
#define SRC_GEMINI_HUGE_BOOKING_H_

#include <cstdint>
#include <map>

#include "base/types.h"
#include "trace/tracer.h"
#include "vmem/buddy_allocator.h"
#include "vmem/frame_space.h"

namespace policy {
class KernelOps;
}  // namespace policy

namespace gemini {

class BookingTimeoutController {
 public:
  explicit BookingTimeoutController(base::Cycles initial_timeout)
      : desired_(static_cast<double>(initial_timeout)),
        effective_(initial_timeout) {}

  // Feeds one measurement period: TLB misses observed during the period and
  // the FMFI at its end.  Returns the effective timeout to use next.
  base::Cycles OnPeriod(uint64_t tlb_misses, double fmfi);

  // The period clock, run on each daemon tick of a Gemini policy: once
  // `period` cycles have passed since the last period ended (the first
  // tick ends one at once), feeds the kernel's TLB misses and FMFI to
  // OnPeriod and traces a change of the effective timeout.
  void OnDaemonTick(policy::KernelOps& kernel, base::Cycles period);

  base::Cycles effective_timeout() const { return effective_; }
  double desired_timeout() const { return desired_; }

 private:
  enum class Phase : uint8_t {
    kBaseline,    // collecting at T_d
    kProbeUp,     // collecting at T_d * 1.1
    kRebaseline,  // probe-up rejected; re-collect at T_d
    kProbeDown,   // collecting at T_d * 0.9
  };

  // True if the probe period improved on the baseline: TLB misses strictly
  // decreased and fragmentation did not increase (Algorithm 1's
  // TestTimeout acceptance condition).
  bool ProbeAccepted(uint64_t misses, double fmfi) const {
    return misses < baseline_misses_ && fmfi <= baseline_fmfi_;
  }

  Phase phase_ = Phase::kBaseline;
  double desired_;
  base::Cycles effective_;
  uint64_t baseline_misses_ = 0;
  double baseline_fmfi_ = 0.0;
  base::Cycles next_period_ = 0;
};

// Reserves and hands out huge-page-sized physical regions.
class BookingManager {
 public:
  BookingManager(vmem::BuddyAllocator* buddy, vmem::FrameSpace* frames,
                 int32_t owner, trace::Tracer* tracer = nullptr,
                 base::Layer layer = base::Layer::kGuest)
      : buddy_(buddy),
        frames_(frames),
        owner_(owner),
        tracer_(tracer),
        layer_(layer) {}
  ~BookingManager();

  // Books the region starting at `frame` (huge-aligned, 512 frames) if the
  // whole range is free.  Returns false otherwise.
  bool Book(uint64_t frame, base::Cycles now, base::Cycles timeout);

  bool IsBooked(uint64_t frame) const { return bookings_.count(frame) != 0; }
  size_t booked_count() const { return bookings_.size(); }

  // Assigns a booked region to an allocation: the frames return to the
  // buddy (free) so the caller's targeted allocation will succeed.
  // Returns false if `frame` is not booked.
  bool Assign(uint64_t frame);

  // Pops any booked region, releasing it for targeted allocation, and
  // returns its first frame (kInvalidFrame if none booked).
  uint64_t AssignAny();

  // Releases bookings whose deadline passed.  Returns how many expired.
  uint64_t ExpireTimeouts(base::Cycles now);

  // Releases every booking (e.g. memory pressure).
  void ReleaseAll();

  // Cumulative lifetime counts, exported through PolicyTelemetry.
  uint64_t started() const { return started_; }
  uint64_t assigned() const { return assigned_; }
  uint64_t expired() const { return expired_; }

 private:
  void Release(uint64_t frame);

  vmem::BuddyAllocator* buddy_;
  vmem::FrameSpace* frames_;
  int32_t owner_;
  trace::Tracer* tracer_;
  base::Layer layer_;
  uint64_t started_ = 0;
  uint64_t assigned_ = 0;
  uint64_t expired_ = 0;
  std::map<uint64_t, base::Cycles> bookings_;  // first frame -> deadline
};

}  // namespace gemini

#endif  // SRC_GEMINI_HUGE_BOOKING_H_
