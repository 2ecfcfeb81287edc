#include "obs/trace.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/check.hpp"
#include "obs/json.hpp"

namespace gilfree::obs {

namespace {

/// Maps an encoded name back to its enum value by scanning the `n` values
/// `name_of` knows; throws std::runtime_error naming `what` when none match.
template <typename Enum, typename NameOf>
Enum enum_from_name(const std::string& name, std::size_t n, NameOf name_of,
                    const char* what) {
  for (std::size_t i = 0; i < n; ++i) {
    if (name_of(static_cast<Enum>(i)) == name) return static_cast<Enum>(i);
  }
  throw std::runtime_error(std::string("trace: unknown ") + what + " '" +
                           name + "'");
}

i32 yp_of(const JsonValue& v) { return static_cast<i32>(v.at("yp").as_i64()); }

u16 line_of(const JsonValue& v) {
  return v.has("line") ? static_cast<u16>(v.at("line").as_u64()) : 0;
}

}  // namespace

std::string trace_event_to_jsonl(const TraceEvent& e, u32 run) {
  std::string out;
  out.reserve(160);
  out += "{\"ev\":";
  json_append_string(out, event_kind_name(e.kind));
  out += ",\"run\":";
  json_append_number(out, static_cast<u64>(run));
  out += ",\"seq\":";
  json_append_number(out, e.seq);
  out += ",\"t\":";
  json_append_number(out, e.t);
  out += ",\"tid\":";
  json_append_number(out, static_cast<u64>(e.tid));
  out += ",\"cpu\":";
  json_append_number(out, static_cast<u64>(e.cpu));
  switch (e.kind) {
    case EventKind::kTxBegin:
    case EventKind::kTxCommit:
      out += ",\"yp\":";
      json_append_number(out, static_cast<i64>(e.yp));
      out += ",\"len\":";
      json_append_number(out, static_cast<u64>(e.length));
      break;
    case EventKind::kTxAbort:
      out += ",\"yp\":";
      json_append_number(out, static_cast<i64>(e.yp));
      out += ",\"len\":";
      json_append_number(out, static_cast<u64>(e.length));
      out += ",\"reason\":";
      json_append_string(out, htm::abort_reason_name(e.reason));
      // Guest addresses are process-independent, so they may appear in
      // byte-compared traces; host addresses never could.
      if (e.gaddr != 0) {
        out += ",\"gaddr\":";
        json_append_number(out, e.gaddr);
      }
      if (e.src_line != 0) {
        out += ",\"line\":";
        json_append_number(out, static_cast<u64>(e.src_line));
      }
      break;
    case EventKind::kGilFallback:
      out += ",\"yp\":";
      json_append_number(out, static_cast<i64>(e.yp));
      break;
    case EventKind::kRequest:
      out += ",\"req\":";
      json_append_number(out, e.req);
      out += ",\"latency\":";
      json_append_number(out, e.latency);
      out += ",\"queue\":";
      json_append_number(out, e.queue);
      break;
    case EventKind::kQuarantineEnter:
    case EventKind::kQuarantineProbe:
    case EventKind::kQuarantineExit:
      out += ",\"yp\":";
      json_append_number(out, static_cast<i64>(e.yp));
      break;
    case EventKind::kFault:
      out += ",\"kind\":";
      json_append_string(
          out, fault::fault_kind_name(static_cast<fault::FaultKind>(e.detail)));
      break;
    case EventKind::kWatchdog:
      out += ",\"kind\":";
      json_append_string(out,
                         watchdog_kind_name(static_cast<WatchdogKind>(e.detail)));
      out += ",\"yp\":";
      json_append_number(out, static_cast<i64>(e.yp));
      break;
    case EventKind::kStmBegin:
    case EventKind::kStmCommit:
      out += ",\"yp\":";
      json_append_number(out, static_cast<i64>(e.yp));
      break;
    case EventKind::kStmAbort:
      out += ",\"yp\":";
      json_append_number(out, static_cast<i64>(e.yp));
      out += ",\"cause\":";
      json_append_string(out, stm::stm_abort_cause_name(
                                  static_cast<stm::StmAbortCause>(e.detail)));
      if (e.src_line != 0) {
        out += ",\"line\":";
        json_append_number(out, static_cast<u64>(e.src_line));
      }
      break;
    case EventKind::kTier:
      out += ",\"yp\":";
      json_append_number(out, static_cast<i64>(e.yp));
      out += ",\"transition\":";
      json_append_string(
          out, tier_transition_name(static_cast<TierTransition>(e.detail)));
      break;
    case EventKind::kShed:
      out += ",\"req\":";
      json_append_number(out, e.req);
      break;
    case EventKind::kSched:
      break;
  }
  out.push_back('}');
  return out;
}

TraceEvent trace_event_from_json(const JsonValue& v) {
  TraceEvent e;
  e.kind = enum_from_name<EventKind>(v.at("ev").as_string(), kNumEventKinds,
                                     event_kind_name, "event kind");
  e.seq = v.at("seq").as_u64();
  e.t = v.at("t").as_u64();
  e.tid = static_cast<u32>(v.at("tid").as_u64());
  e.cpu = static_cast<CpuId>(v.at("cpu").as_u64());
  switch (e.kind) {
    case EventKind::kTxBegin:
    case EventKind::kTxCommit:
      e.yp = yp_of(v);
      e.length = static_cast<u32>(v.at("len").as_u64());
      break;
    case EventKind::kTxAbort:
      e.yp = yp_of(v);
      e.length = static_cast<u32>(v.at("len").as_u64());
      e.reason = enum_from_name<htm::AbortReason>(
          v.at("reason").as_string(), htm::kNumAbortReasons,
          htm::abort_reason_name, "abort reason");
      e.gaddr = v.has("gaddr") ? v.at("gaddr").as_u64() : 0;
      e.src_line = line_of(v);
      break;
    case EventKind::kGilFallback:
    case EventKind::kQuarantineEnter:
    case EventKind::kQuarantineProbe:
    case EventKind::kQuarantineExit:
    case EventKind::kStmBegin:
    case EventKind::kStmCommit:
      e.yp = yp_of(v);
      break;
    case EventKind::kRequest:
      e.req = v.at("req").as_i64();
      e.latency = v.at("latency").as_u64();
      e.queue = v.at("queue").as_u64();
      break;
    case EventKind::kFault:
      e.detail = static_cast<u8>(enum_from_name<fault::FaultKind>(
          v.at("kind").as_string(), fault::kNumFaultKinds,
          fault::fault_kind_name, "fault kind"));
      break;
    case EventKind::kWatchdog:
      e.detail = static_cast<u8>(enum_from_name<WatchdogKind>(
          v.at("kind").as_string(), kNumWatchdogKinds, watchdog_kind_name,
          "watchdog kind"));
      e.yp = yp_of(v);
      break;
    case EventKind::kStmAbort:
      e.yp = yp_of(v);
      e.detail = static_cast<u8>(enum_from_name<stm::StmAbortCause>(
          v.at("cause").as_string(), stm::kNumStmAbortCauses,
          stm::stm_abort_cause_name, "stm abort cause"));
      e.src_line = line_of(v);
      break;
    case EventKind::kTier:
      e.yp = yp_of(v);
      e.detail = static_cast<u8>(enum_from_name<TierTransition>(
          v.at("transition").as_string(), kNumTierTransitions,
          tier_transition_name, "tier transition"));
      break;
    case EventKind::kShed:
      e.req = v.at("req").as_i64();
      break;
    case EventKind::kSched:
      break;
  }
  return e;
}

FlightRecorder::FlightRecorder(std::size_t capacity, double sample, u64 seed)
    : capacity_(capacity), sample_(sample), rng_(seed) {
  GILFREE_CHECK(capacity_ >= 1);
  GILFREE_CHECK(sample_ >= 0.0 && sample_ <= 1.0);
  ring_.reserve(std::min<std::size_t>(capacity_, 4096));
}

bool FlightRecorder::sample_decision(const TraceEvent& e) {
  if (sample_ >= 1.0) return true;
  switch (e.kind) {
    case EventKind::kTxBegin:
    case EventKind::kStmBegin: {
      // One decision per transaction attempt group, remembered per thread so
      // the matching commit/abort stays with its begin. Software-transaction
      // attempt groups reuse the same per-thread slot: a thread is in at
      // most one transaction (of either tier) at a time.
      const bool keep = rng_.next_double() < sample_;
      if (e.tid >= tid_sampled_.size()) tid_sampled_.resize(e.tid + 1, 0);
      tid_sampled_[e.tid] = keep ? 1 : 0;
      return keep;
    }
    case EventKind::kTxCommit:
    case EventKind::kTxAbort:
    case EventKind::kStmCommit:
    case EventKind::kStmAbort:
      return e.tid < tid_sampled_.size() && tid_sampled_[e.tid] != 0;
    case EventKind::kGilFallback:
    case EventKind::kRequest:
      return rng_.next_double() < sample_;
    case EventKind::kQuarantineEnter:
    case EventKind::kQuarantineProbe:
    case EventKind::kQuarantineExit:
    case EventKind::kWatchdog:
    case EventKind::kTier:
    case EventKind::kShed:
      return true;  // rare state transitions: always keep
    case EventKind::kFault:
      return rng_.next_double() < sample_;
    case EventKind::kSched:
      break;  // record-only: RunObserver never offers it
  }
  return true;
}

void FlightRecorder::record(TraceEvent e) {
  ++seen_;
  if (!sample_decision(e)) return;
  e.seq = seq_++;
  ++recorded_;
  if (ring_.size() < capacity_) {
    ring_.push_back(e);
    return;
  }
  ring_[head_] = e;
  head_ = (head_ + 1) % capacity_;
  ++evicted_;
}

std::vector<TraceEvent> FlightRecorder::drain() {
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  // The ring holds [head_, end) then [0, head_) in sequence order.
  for (std::size_t i = head_; i < ring_.size(); ++i) out.push_back(ring_[i]);
  for (std::size_t i = 0; i < head_; ++i) out.push_back(ring_[i]);
  ring_.clear();
  head_ = 0;
  return out;
}

}  // namespace gilfree::obs
