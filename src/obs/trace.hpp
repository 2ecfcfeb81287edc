// The transaction event vocabulary and its flight recorder: one TraceEvent
// struct with one JSONL encoder and one decoder, and a bounded ring buffer of
// begin/commit/abort/fallback/request events with deterministic sampling.
// The record stream (obs/record.hpp) is the unsampled projection of the same
// events onto the kinds replay needs.
//
// Design goals (docs/OBSERVABILITY.md describes the on-disk schema):
//   * low overhead — one branch when disabled, O(1) append when enabled,
//     memory bounded by the configured capacity (oldest events are evicted);
//   * coherent transactions — sampling decides per transaction *attempt
//     group* at the begin event, so a retained begin always keeps its
//     matching commit/abort instead of orphaning half a transaction;
//   * determinism — the sampling RNG is seeded from the engine seed, and
//     every timestamp is virtual cycles, so the same seed produces a
//     byte-identical trace.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "fault/fault_kind.hpp"
#include "htm/abort_reason.hpp"
#include "stm/abort_cause.hpp"

namespace gilfree::obs {

class JsonValue;

enum class EventKind : u8 {
  kTxBegin,          ///< TBEGIN attempt entered transactional execution or
                     ///< eager-aborted (the matching kTxAbort follows).
  kTxCommit,         ///< TEND succeeded; the transaction's work reached memory.
  kTxAbort,          ///< The transaction died: reason says why.
  kGilFallback,      ///< Execution reverted to the GIL (Fig. 1 fallback path).
  kRequest,          ///< httpsim request completed; latency is response-arrival.
  kQuarantineEnter,  ///< Yield point tripped the circuit breaker → GIL route.
  kQuarantineProbe,  ///< Recovery probe attempt at a quarantined yield point.
  kQuarantineExit,   ///< A probe committed; the yield point left quarantine.
  kFault,            ///< The fault injector fired (detail = fault::FaultKind).
  kWatchdog,         ///< Starvation watchdog report (detail = WatchdogKind).
  kStmBegin,         ///< A tier-2 software transaction started (docs/TIERS.md).
  kStmCommit,        ///< The software transaction validated and published.
  kStmAbort,         ///< The software transaction died: detail says why.
  kTier,             ///< Escalation-tier transition (detail = TierTransition).
  kShed,             ///< A request past its deadline was shed mid-service:
                     ///< the engine abandoned the serving thread at a yield
                     ///< point (docs/ROBUSTNESS.md).
  kSched,            ///< The engine picked `tid` to run its next burst.
                     ///< Record-only: never offered to the FlightRecorder.
};
inline constexpr std::size_t kNumEventKinds = 16;

constexpr std::string_view event_kind_name(EventKind k) {
  switch (k) {
    case EventKind::kTxBegin: return "tx_begin";
    case EventKind::kTxCommit: return "tx_commit";
    case EventKind::kTxAbort: return "tx_abort";
    case EventKind::kGilFallback: return "gil_fallback";
    case EventKind::kRequest: return "request";
    case EventKind::kQuarantineEnter: return "quarantine_enter";
    case EventKind::kQuarantineProbe: return "quarantine_probe";
    case EventKind::kQuarantineExit: return "quarantine_exit";
    case EventKind::kFault: return "fault";
    case EventKind::kWatchdog: return "watchdog";
    case EventKind::kStmBegin: return "stm_begin";
    case EventKind::kStmCommit: return "stm_commit";
    case EventKind::kStmAbort: return "stm_abort";
    case EventKind::kTier: return "tier";
    case EventKind::kShed: return "shed";
    case EventKind::kSched: return "sched";
  }
  return "?";
}

/// Which escalation-tier boundary a kTier event crossed (docs/TIERS.md).
/// HTM → GIL crossings keep their original kGilFallback event (emitted since
/// the first release); only transitions involving the STM tier are new.
enum class TierTransition : u8 {
  kHtmToStm,  ///< HTM retries exhausted / persistent abort / quarantine.
  kStmToGil,  ///< STM retries exhausted, overflow, or restricted operation.
  kStmToHtm,  ///< A completed STM slice handed routing back to HTM.
};
inline constexpr std::size_t kNumTierTransitions = 3;

constexpr std::string_view tier_transition_name(TierTransition t) {
  switch (t) {
    case TierTransition::kHtmToStm: return "htm-stm";
    case TierTransition::kStmToGil: return "stm-gil";
    case TierTransition::kStmToHtm: return "stm-htm";
  }
  return "?";
}

/// What the starvation watchdog detected (TraceEvent::detail of kWatchdog).
enum class WatchdogKind : u8 {
  kAbortLoop,  ///< Consecutive aborts without progress exceeded the budget.
  kSpinLoop,   ///< GIL-release spin rounds exceeded the budget.
  kGilWait,    ///< One GIL wait exceeded the cycle budget.
};
inline constexpr std::size_t kNumWatchdogKinds = 3;

constexpr std::string_view watchdog_kind_name(WatchdogKind k) {
  switch (k) {
    case WatchdogKind::kAbortLoop: return "abort-loop";
    case WatchdogKind::kSpinLoop: return "spin-loop";
    case WatchdogKind::kGilWait: return "gil-wait";
  }
  return "?";
}

/// One flight-recorder entry. Fields that do not apply to a kind hold their
/// neutral value and are omitted from the JSONL encoding (see
/// trace_event_to_jsonl).
struct TraceEvent {
  u64 seq = 0;          ///< Per-run sequence number (total order).
  EventKind kind = EventKind::kTxBegin;
  Cycles t = 0;         ///< Virtual-cycle timestamp on the event's CPU.
  u32 tid = 0;          ///< VM thread id.
  CpuId cpu = 0;        ///< Simulated CPU the event happened on.
  i32 yp = -1;          ///< Yield-point id ("pc"); -1 = thread entry.
  u32 length = 0;       ///< Chosen transaction length (begin/commit/abort).
  htm::AbortReason reason = htm::AbortReason::kNone;  ///< kTxAbort only.
  i64 req = -1;         ///< Request id (kRequest only).
  Cycles latency = 0;   ///< Request latency in cycles (kRequest only).
  Cycles queue = 0;     ///< Queue-delay component (arrival → accept) of the
                        ///< latency (kRequest only; 0 for ports that do not
                        ///< track accept times).
  u8 detail = 0;        ///< fault::FaultKind (kFault) / WatchdogKind
                        ///< (kWatchdog) / stm::StmAbortCause (kStmAbort) /
                        ///< TierTransition (kTier); 0 otherwise.
  u64 gaddr = 0;        ///< Guest address of the conflicting line (kTxAbort
                        ///< with reason kConflict only; 0 = none/unknown).
                        ///< Guest addresses are process-independent, so this
                        ///< field may appear in byte-compared traces.
  u16 src_line = 0;     ///< MiniRuby source line executing at the abort
                        ///< (kTxAbort/kStmAbort; 0 = unknown).

  bool operator==(const TraceEvent&) const = default;
};

/// Encodes one event as a single JSON Lines record (no trailing newline).
/// `run` tags the owning run within a multi-run trace file.
std::string trace_event_to_jsonl(const TraceEvent& e, u32 run);

/// The inverse of trace_event_to_jsonl for one parsed line (the `run` tag is
/// not part of the event). Throws std::runtime_error on an unknown event
/// kind or an unknown reason/cause/kind/transition name.
TraceEvent trace_event_from_json(const JsonValue& v);

class FlightRecorder {
 public:
  /// `sample` is the probability that a transaction attempt group (or an
  /// independent fallback/request event) is retained; 1.0 = keep all.
  FlightRecorder(std::size_t capacity, double sample, u64 seed);

  /// Appends an event, applying the sampling decision and ring eviction.
  /// Assigns the event's sequence number.
  void record(TraceEvent e);

  /// Retained events in sequence order (oldest surviving first).
  std::vector<TraceEvent> drain();

  u64 seen() const { return seen_; }             ///< All offered events.
  u64 recorded() const { return recorded_; }     ///< Passed sampling.
  u64 evicted() const { return evicted_; }       ///< Overwritten by the ring.
  u64 sampled_out() const { return seen_ - recorded_; }
  std::size_t capacity() const { return capacity_; }
  double sample() const { return sample_; }

 private:
  bool sample_decision(const TraceEvent& e);

  std::size_t capacity_;
  double sample_;
  Rng rng_;
  std::vector<TraceEvent> ring_;
  std::size_t head_ = 0;  ///< Next write slot once the ring is full.
  u64 seq_ = 0;
  u64 seen_ = 0;
  u64 recorded_ = 0;
  u64 evicted_ = 0;
  /// Sampling decision of the last kTxBegin per VM thread; commit/abort
  /// events inherit it so transaction attempt groups stay coherent.
  std::vector<u8> tid_sampled_;
};

}  // namespace gilfree::obs
