// Memory ballooning (paper §8, future work).
//
// A balloon driver lets the host reclaim memory from a cooperative guest:
// inflating the balloon makes the guest allocate (and pin) guest-physical
// frames it promises not to use; the host then unmaps their EPT backing and
// frees the host frames.  The simulated balloon only inflates.
//
// The interplay the paper cares about: which guest frames the balloon
// grabs decides how much huge-page alignment survives.  A naive balloon
// takes whatever the buddy hands out — splintering well-aligned regions; an
// alignment-aware balloon (Gemini's stance: demote only misaligned or idle
// huge pages) sources whole misaligned regions first.
#ifndef SRC_OS_BALLOON_H_
#define SRC_OS_BALLOON_H_

#include <cstdint>

#include "os/machine.h"

namespace osim {

struct BalloonStats {
  uint64_t inflated_frames = 0;   // currently held by the balloon
  uint64_t host_frames_released = 0;
  uint64_t huge_backings_broken = 0;  // huge EPT leaves demoted to release
};

class BalloonDriver {
 public:
  // `alignment_aware`: prefer guest frames whose host backing is not a
  // huge page (or whose huge backing is misaligned), preserving
  // well-aligned regions.
  BalloonDriver(Machine* machine, int32_t vm_id, bool alignment_aware);

  // Inflates by up to `frames` guest frames; unmaps and frees their host
  // backing.  Returns how many frames were actually reclaimed for the
  // host.
  uint64_t Inflate(uint64_t frames);

  const BalloonStats& stats() const { return stats_; }

 private:
  // Releases the host backing of one ballooned guest frame.
  void ReleaseHostBacking(uint64_t gfn);

  Machine* machine_;
  int32_t vm_id_;
  bool alignment_aware_;
  BalloonStats stats_;
};

}  // namespace osim

#endif  // SRC_OS_BALLOON_H_
