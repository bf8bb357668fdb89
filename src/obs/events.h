// Structured decision-event ring buffer.
//
// Every scheduler decision worth explaining — admission probes, prunes,
// plan coalesces, stage alignments, delay-slot fills, stretches, failures —
// is recorded as one fixed-size typed record stamped with simulated time.
// The ring overwrites its oldest record when full and counts the
// overwritten tail, so recording cost is flat and a run can never grow
// telemetry without bound. Purely an output channel: nothing in the
// simulator reads it back, which is what keeps collection zero-perturbation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.h"

namespace vmlp::obs {

enum class DecisionKind : std::uint8_t {
  kAdmitProbe = 0,    ///< one admission stage: detail = (machine,start) probes spent
  kAdmitPrune,        ///< stage pruned probes: detail = probes pruned
  kAdmitHintHit,      ///< stage's ledger queries resolved via cover hints: detail = hits
  kCoalesce,          ///< a request's chain plan committed: detail = plan stage count
  kAlign,             ///< one stage aligned to its predecessor: detail = slack (us)
  kDelaySlotFill,     ///< healer moved a candidate into a late node's vacancy
  kStretch,           ///< healer granted extra resources to a running node
  kCrash,             ///< machine outage window entered
  kRecover,           ///< machine outage window exited
  kOrphan,            ///< a running/pending execution lost to a failure
  kRetry,             ///< bounded-retry re-placement armed: detail = attempt #
  kKindCount,
};

[[nodiscard]] const char* decision_kind_name(DecisionKind kind);

struct DecisionEvent {
  static constexpr std::uint64_t kNoRequest = ~0ULL;
  static constexpr std::uint32_t kNoIndex = ~0U;

  DecisionKind kind = DecisionKind::kAdmitProbe;
  SimTime at = 0;                       ///< simulated time of the decision
  std::uint64_t request = kNoRequest;   ///< RequestId::value() when applicable
  std::uint32_t node = kNoIndex;        ///< DAG node index when applicable
  std::uint32_t machine = kNoIndex;     ///< MachineId::value() when applicable
  std::int64_t detail = 0;              ///< kind-specific payload (see enum docs)
};

class EventRing {
 public:
  explicit EventRing(std::size_t capacity) : buf_(capacity) {}

  void push(const DecisionEvent& e) {
    ++total_;
    if (buf_.empty()) return;
    buf_[head_] = e;
    head_ = head_ + 1 == buf_.size() ? 0 : head_ + 1;
    if (size_ < buf_.size()) ++size_;
  }

  /// Records oldest -> newest (at most capacity of the most recent pushes).
  [[nodiscard]] std::vector<DecisionEvent> ordered() const;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return buf_.size(); }
  [[nodiscard]] std::uint64_t total_recorded() const { return total_; }
  [[nodiscard]] std::uint64_t dropped() const { return total_ - size_; }

 private:
  std::vector<DecisionEvent> buf_;
  std::size_t head_ = 0;  ///< next write position
  std::size_t size_ = 0;
  std::uint64_t total_ = 0;
};

}  // namespace vmlp::obs
