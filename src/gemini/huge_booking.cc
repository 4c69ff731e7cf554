#include "gemini/huge_booking.h"

#include "base/check.h"
#include "policy/policy.h"

namespace gemini {

using base::kPagesPerHuge;

namespace {

// Algorithm 1's measurement period P.
constexpr base::Cycles kControllerPeriod = 20'000'000;

}  // namespace

base::Cycles BookingTimeoutController::OnPeriod(uint64_t tlb_misses,
                                                double fmfi) {
  switch (phase_) {
    case Phase::kBaseline:
      baseline_misses_ = tlb_misses;
      baseline_fmfi_ = fmfi;
      // Start probing upward: T_e <- T_d * 1.1 for the next period.
      phase_ = Phase::kProbeUp;
      effective_ = static_cast<base::Cycles>(desired_ * 1.1);
      break;
    case Phase::kProbeUp:
      if (ProbeAccepted(tlb_misses, fmfi)) {
        // Keep the larger timeout and restart the loop (continue).
        desired_ *= 1.1;
        phase_ = Phase::kBaseline;
        effective_ = static_cast<base::Cycles>(desired_);
      } else {
        // Re-collect a baseline at T_d before probing down.
        phase_ = Phase::kRebaseline;
        effective_ = static_cast<base::Cycles>(desired_);
      }
      break;
    case Phase::kRebaseline:
      baseline_misses_ = tlb_misses;
      baseline_fmfi_ = fmfi;
      phase_ = Phase::kProbeDown;
      effective_ = static_cast<base::Cycles>(desired_ * 0.9);
      break;
    case Phase::kProbeDown:
      if (ProbeAccepted(tlb_misses, fmfi)) {
        desired_ *= 0.9;
      }
      phase_ = Phase::kBaseline;
      effective_ = static_cast<base::Cycles>(desired_);
      break;
  }
  return effective_;
}

void BookingTimeoutController::OnDaemonTick(policy::KernelOps& kernel) {
  const base::Cycles now = kernel.Now();
  if (now < next_period_) {
    return;
  }
  const base::Cycles before = effective_;
  const base::Cycles after = OnPeriod(kernel.DrainTlbMisses(), kernel.Fmfi());
  next_period_ = now + kControllerPeriod;
  if (after != before && kernel.tracer() != nullptr) {
    kernel.tracer()->Emit(trace::EventKind::kTimeoutChange, kernel.layer(),
                          kernel.vm_id(), after, before);
  }
}

BookingManager::~BookingManager() { ReleaseAll(); }

bool BookingManager::Book(uint64_t frame, base::Cycles now,
                          base::Cycles timeout) {
  SIM_CHECK(frame % kPagesPerHuge == 0);
  if (bookings_.count(frame) != 0) {
    return true;  // already booked; keep the earlier deadline
  }
  if (!buddy_->AllocateAt(frame, kPagesPerHuge)) {
    return false;
  }
  frames_->SetUse(frame, kPagesPerHuge, owner_, vmem::FrameUse::kBooked);
  bookings_.emplace(frame, now + timeout);
  ++started_;
  if (tracer_ != nullptr) {
    tracer_->Emit(trace::EventKind::kBookingBook, layer_, owner_, frame,
                  now + timeout);
  }
  return true;
}

bool BookingManager::Assign(uint64_t frame) {
  auto it = bookings_.find(frame);
  if (it == bookings_.end()) {
    return false;
  }
  Release(it->first);
  bookings_.erase(it);
  ++assigned_;
  if (tracer_ != nullptr) {
    tracer_->Emit(trace::EventKind::kBookingAssign, layer_, owner_, frame);
  }
  return true;
}

uint64_t BookingManager::AssignAny() {
  if (bookings_.empty()) {
    return vmem::kInvalidFrame;
  }
  auto it = bookings_.begin();
  const uint64_t frame = it->first;
  Release(frame);
  bookings_.erase(it);
  ++assigned_;
  if (tracer_ != nullptr) {
    tracer_->Emit(trace::EventKind::kBookingAssign, layer_, owner_, frame);
  }
  return frame;
}

uint64_t BookingManager::ExpireTimeouts(base::Cycles now) {
  uint64_t expired = 0;
  for (auto it = bookings_.begin(); it != bookings_.end();) {
    if (it->second <= now) {
      if (tracer_ != nullptr) {
        tracer_->Emit(trace::EventKind::kBookingExpire, layer_, owner_,
                      it->first);
      }
      Release(it->first);
      it = bookings_.erase(it);
      ++expired;
    } else {
      ++it;
    }
  }
  expired_ += expired;
  return expired;
}

void BookingManager::ReleaseAll() {
  for (const auto& [frame, deadline] : bookings_) {
    (void)deadline;
    Release(frame);
  }
  bookings_.clear();
}

void BookingManager::Release(uint64_t frame) {
  frames_->ClearUse(frame, kPagesPerHuge);
  buddy_->Free(frame, kPagesPerHuge);
}

}  // namespace gemini
