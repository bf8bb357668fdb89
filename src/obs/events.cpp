#include "obs/events.h"

namespace vmlp::obs {

const char* decision_kind_name(DecisionKind kind) {
  switch (kind) {
    case DecisionKind::kAdmitProbe:
      return "admit_probe";
    case DecisionKind::kAdmitPrune:
      return "admit_prune";
    case DecisionKind::kAdmitHintHit:
      return "admit_hint_hit";
    case DecisionKind::kCoalesce:
      return "coalesce";
    case DecisionKind::kAlign:
      return "align";
    case DecisionKind::kDelaySlotFill:
      return "delay_slot_fill";
    case DecisionKind::kStretch:
      return "stretch";
    case DecisionKind::kCrash:
      return "crash";
    case DecisionKind::kRecover:
      return "recover";
    case DecisionKind::kOrphan:
      return "orphan";
    case DecisionKind::kRetry:
      return "retry";
    case DecisionKind::kKindCount:
      break;
  }
  return "unknown";
}

std::vector<DecisionEvent> EventRing::ordered() const {
  std::vector<DecisionEvent> out;
  out.reserve(size_);
  const std::size_t start = size_ < buf_.size() ? 0 : head_;
  for (std::size_t i = 0; i < size_; ++i) {
    out.push_back(buf_[(start + i) % buf_.size()]);
  }
  return out;
}

}  // namespace vmlp::obs
