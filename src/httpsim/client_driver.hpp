// HTTP client drivers for the server simulation.
//
// Two load models share one driver interface (runtime::ServerPort):
//
//   * ClosedLoopDriver (§5.3, Fig. 7): N concurrent clients, each issuing
//     its next request as soon as the previous response arrives. Throughput
//     self-limits to the server's service rate, which hides queueing delay.
//   * OpenLoopDriver: requests arrive on a seeded stochastic schedule
//     (Poisson or bursty MMPP) at a configured offered rate, independent of
//     responses — the regime where queue delay and tail latency surface. A
//     bounded admission queue tail-drops arrivals past the backlog limit.
//
// The clients run on the simulated network side, not on the Ruby VM's CPUs —
// the paper notes they consumed <5% of the CPU — so they only inject arrival
// events. Both drivers keep a deterministic per-request log (arrival, accept,
// response timestamps) and latency/queue-delay histograms; with the same
// seed, schedule, log, and histograms are bit-identical across runs.
#pragma once

#include <deque>
#include <queue>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "httpsim/overload.hpp"
#include "obs/latency_hist.hpp"
#include "runtime/engine.hpp"

namespace gilfree {
class CliFlags;
}

namespace gilfree::httpsim {

/// Arrival process of the load (--arrival=).
enum class Arrival : u8 {
  kClosed,   ///< Closed loop: next request only after the previous response.
  kPoisson,  ///< Open loop, exponential inter-arrivals at --rps.
  kMmpp,     ///< Open loop, 2-state Markov-modulated Poisson (bursty).
  kTrace,    ///< Open loop, replayed verbatim from --arrival-file=.
};

constexpr std::string_view arrival_name(Arrival a) {
  switch (a) {
    case Arrival::kClosed: return "closed";
    case Arrival::kPoisson: return "poisson";
    case Arrival::kMmpp: return "mmpp";
    case Arrival::kTrace: return "trace";
  }
  return "?";
}

/// Parses "closed"/"poisson"/"mmpp"/"trace"; throws std::invalid_argument
/// otherwise.
Arrival parse_arrival(const std::string& s);

/// Request → shard assignment policy of a sharded run (--router=).
enum class Router : u8 {
  kHash,        ///< mix64(seed, id): uniform, placement-independent.
  kRoundRobin,  ///< id % shards: perfectly balanced.
};

constexpr std::string_view router_name(Router r) {
  switch (r) {
    case Router::kHash: return "hash";
    case Router::kRoundRobin: return "rr";
  }
  return "?";
}

/// Parses "hash"/"rr"; throws std::invalid_argument otherwise.
Router parse_router(const std::string& s);

struct DriverConfig {
  u32 clients = 4;          ///< Closed-loop concurrency.
  u32 total_requests = 400;
  /// Virtual cycles between receiving a response and issuing the next
  /// request (closed loop: network + client turnaround).
  Cycles client_turnaround = 20'000;
  /// Requested paths; the request mix cycles through this list (exercises
  /// parsing variety on the server side).
  std::vector<std::string> paths = {"/index.html", "/books", "/about",
                                    "/static/logo.png"};

  // --- Open-loop arrival process (arrival != kClosed) ----------------------
  Arrival arrival = Arrival::kClosed;
  double rps = 2'000.0;       ///< Offered rate, requests per virtual second.
  double burst_factor = 8.0;  ///< MMPP: burst-state rate multiplier (>= 1).
  Cycles burst_on = 1'500'000;   ///< MMPP mean dwell cycles in burst state.
  Cycles burst_off = 4'500'000;  ///< MMPP mean dwell cycles in quiet state.
  /// Bounded admission queue: an arrival finding this many requests already
  /// waiting (arrived, not yet accepted) is tail-dropped.
  u32 queue_limit = 256;
  /// Connection churn: probability a request tears its connection down
  /// ("Connection: close"); the follow-up on that slot pays a handshake.
  double churn = 0.0;
  /// Seed of the arrival/mix schedule. Independent of the engine seed so
  /// the same offered load can be replayed against different engines.
  u64 seed = 0x6112024;
  /// First global request id issued by this driver; sharded closed-loop
  /// runs partition the id space so merged logs stay globally unique.
  i64 first_id = 0;
  /// Keyed routing (--keys=): size of the logical key space. 0 keeps the
  /// key generator off entirely — no extra RNG draws, so every pre-existing
  /// schedule stays byte-identical. Keys are guest-segment-style handles
  /// ((rank + 1) << 32), never raw ranks, so they survive cross-process
  /// transport like any other guest address.
  u32 key_space = 0;
  /// Zipf skew exponent of the key popularity distribution (--zipf=);
  /// 0 = uniform over the key space. Requires key_space > 0 to matter.
  double zipf = 0.0;
  /// --arrival=trace input: path of a schedule dump to replay verbatim.
  std::string arrival_file;
  /// When non-empty, the generated schedule is also written here in the
  /// dump_schedule() text form (--arrival-dump=), closing the record loop:
  /// a later run replays it with --arrival=trace --arrival-file=.
  std::string arrival_dump;
  /// Overload protection (docs/ROBUSTNESS.md): deadlines, retries, CoDel
  /// shedding. Disabled by default, which keeps every artifact byte-
  /// identical to the pre-overload driver. Open-loop only.
  OverloadConfig overload;

  /// Reads the uniform httpsim load flags: --arrival=, --rps=, --clients=,
  /// --requests=, --turnaround=, --burst-factor=, --burst-on=, --burst-off=,
  /// --queue-limit=, --churn=, --load-seed=, --keys=, --zipf=,
  /// --arrival-file=, --arrival-dump=, plus the overload group
  /// (--deadline-*, --shed-*; see OverloadConfig::from_flags). Semantic
  /// errors throw std::invalid_argument (strict-CLI convention: callers
  /// exit 2).
  static DriverConfig from_flags(const CliFlags& flags);

  /// Canonical non-default flags, so from_flags(to_flags(c)) == c (modulo
  /// first_id/paths, which are harness-internal). Used by the cluster Init
  /// frame and the httpsim record header.
  std::vector<std::string> to_flags() const;
};

/// One entry of a pre-generated open-loop arrival schedule.
struct ScheduledRequest {
  i64 id = 0;       ///< Global request id (dense, ascending with time).
  Cycles at = 0;    ///< Arrival time on the shared t=0 virtual epoch.
  u32 path = 0;     ///< Index into DriverConfig::paths.
  bool close = false;  ///< Connection churn: this request closes its conn.
  /// Routing key, guest-segment style ((rank + 1) << 32); 0 when keyed
  /// routing is off, in which case routing falls back to the request id.
  u64 key = 0;
};

/// Generates the deterministic open-loop schedule for config.total_requests
/// arrivals: seeded only by config.seed, ascending in time. `ghz` converts
/// the rps rate into virtual cycles. Requires arrival != kClosed. For
/// arrival == kTrace the schedule is loaded from config.arrival_file
/// instead of generated.
std::vector<ScheduledRequest> make_schedule(const DriverConfig& config,
                                            double ghz);

/// Canonical text form of a schedule, one line per request:
/// `id at path close key`. load_schedule() parses it back (throwing
/// std::invalid_argument on malformed input), so
/// load_schedule(dump_schedule(s)) == s — the --arrival=trace round trip.
std::string dump_schedule(const std::vector<ScheduledRequest>& schedule);
std::vector<ScheduledRequest> parse_schedule(const std::string& text);
std::vector<ScheduledRequest> load_schedule(const std::string& path);

/// Deterministic request → shard assignment of the sharded harness.
u32 route_request(Router router, i64 id, u32 shards, u64 seed);

/// Keyed routing: routes by `key` when nonzero (so one hot key always lands
/// on one shard — the skew the steal protocol rebalances), by `id` otherwise
/// (byte-identical to route_request for keyless schedules).
u32 route_key(Router router, i64 id, u64 key, u32 shards, u64 seed);

struct RequestRecord;

/// Renders request records as the canonical per-request log text, one line
/// per record in the order given:
/// `id arrival accepted responded path conn status`. Byte-deterministic.
std::string format_request_log(const std::vector<RequestRecord>& records,
                               const std::vector<std::string>& paths);

/// Final disposition of one request (the status token of the request log).
/// With overload protection off only kOk and kDropped can occur, keeping
/// the log bytes identical to the pre-overload driver.
enum class RequestOutcome : u8 {
  kOk = 0,         ///< Completed (or still pending mid-run).
  kDropped,        ///< Tail-dropped by the bounded admission queue.
  kShedAdmission,  ///< Deadline expired before the arrival was admitted.
  kShedDispatch,   ///< Deadline expired waiting in the admission queue.
  kShedService,    ///< Killed mid-service at a yield point (engine shed).
  kCodel,          ///< Dropped by the CoDel admission controller.
};

constexpr std::string_view request_outcome_name(RequestOutcome o) {
  switch (o) {
    case RequestOutcome::kOk: return "ok";
    case RequestOutcome::kDropped: return "drop";
    case RequestOutcome::kShedAdmission: return "shed-adm";
    case RequestOutcome::kShedDispatch: return "shed-disp";
    case RequestOutcome::kShedService: return "shed-mid";
    case RequestOutcome::kCodel: return "codel";
  }
  return "?";
}

/// Per-request log entry. The log is the differential-testing ground truth:
/// byte-identical across same-seed runs and across shard-execution orders.
struct RequestRecord {
  i64 id = 0;
  Cycles arrival = 0;    ///< Issue (closed) / scheduled arrival (open).
  Cycles accepted = 0;   ///< Dequeued by the server's accept loop.
  Cycles responded = 0;
  u32 path = 0;
  bool close = false;
  bool dropped = false;  ///< Rejected by the bounded admission queue.
  RequestOutcome outcome = RequestOutcome::kOk;  ///< Kept in sync with
                                                 ///< `dropped` for kDropped.
  Cycles deadline = 0;   ///< Effective deadline; 0 = none.
  u8 attempts = 0;       ///< Retry re-admissions consumed so far.
};

/// Shared driver bookkeeping: request records, latency / queue-delay
/// aggregates, response accounting. Subclasses implement the load model.
class HttpDriver : public runtime::ServerPort {
 public:
  u32 completed() const { return completed_; }
  u32 dropped() const { return dropped_; }
  u32 issued() const { return issued_; }
  /// Requests whose final disposition was a deadline/CoDel shed (admission,
  /// dispatch, mid-service, or controller drop). 0 for closed-loop drivers.
  u32 shed_total() const {
    return shed_admission_ + shed_dispatch_ + shed_service_ + codel_drops_;
  }
  u32 shed_admission() const { return shed_admission_; }
  u32 shed_dispatch() const { return shed_dispatch_; }
  u32 shed_service() const { return shed_service_; }
  u32 codel_drops() const { return codel_drops_; }
  u32 retries() const { return retries_; }
  Cycles first_issue_time() const { return first_issue_; }
  Cycles last_response_time() const { return last_response_; }
  u64 response_bytes() const { return response_bytes_; }

  /// Per-request arrival→accept queueing delay, in virtual cycles.
  const RunningStat& queue_delay() const { return queue_delay_; }
  /// Per-request arrival→response latency, in virtual cycles.
  const obs::LatencyHistogram& latency_hist() const { return latency_hist_; }
  const obs::LatencyHistogram& queue_hist() const { return queue_hist_; }

  /// Requests per virtual second over the measured interval.
  double throughput_rps(double ghz) const;

  /// The per-request log in global-id order, one line per request:
  /// `id arrival accepted responded path conn status`. Byte-deterministic.
  std::string log_to_string() const;
  const std::vector<RequestRecord>& log() const { return records_; }

  // runtime::ServerPort
  Cycles request_issued_at(i64 request_id) override;
  Cycles request_accepted_at(i64 request_id) override;

 protected:
  explicit HttpDriver(DriverConfig config);

  /// Finds the record of a global request id. The default assumes the dense
  /// id range [first_id, first_id + records); OpenLoopDriver overrides it
  /// for a shard's sparse id subset.
  virtual RequestRecord& locate(i64 request_id);
  /// HTTP/1.1 request text for a record (paths + keep-alive/close headers).
  std::string render_payload(const RequestRecord& r) const;
  /// Latency bookkeeping shared by both load models' respond().
  void note_response(RequestRecord& r, std::string_view body, Cycles now);

  DriverConfig config_;
  std::vector<RequestRecord> records_;  ///< Indexed by id - first_id.
  RunningStat queue_delay_;
  obs::LatencyHistogram latency_hist_;
  obs::LatencyHistogram queue_hist_;
  u32 issued_ = 0;
  u32 completed_ = 0;
  u32 dropped_ = 0;
  u32 shed_admission_ = 0;
  u32 shed_dispatch_ = 0;
  u32 shed_service_ = 0;
  u32 codel_drops_ = 0;
  u32 retries_ = 0;
  u32 in_flight_ = 0;
  Cycles first_issue_ = 0;
  Cycles last_response_ = 0;
  u64 response_bytes_ = 0;
};

class ClosedLoopDriver : public HttpDriver {
 public:
  explicit ClosedLoopDriver(DriverConfig config);

  // runtime::ServerPort
  i64 accept(Cycles now) override;
  std::string payload(i64 request_id) override;
  void respond(i64 request_id, std::string_view body, Cycles now) override;
  bool shutdown(Cycles now) override;
  void annotate_request_metrics(obs::RequestMetrics& m) const override;

 private:
  void issue(Cycles at);

  struct Pending {
    Cycles at;
    i64 id;
    bool operator>(const Pending& o) const { return at > o.at; }
  };
  std::priority_queue<Pending, std::vector<Pending>, std::greater<Pending>>
      arrivals_;
};

/// Open-loop driver over a pre-generated (and possibly shard-filtered)
/// schedule. Arrivals are admitted to a bounded FIFO queue as virtual time
/// passes; the server's accept loop drains the queue; arrivals that find the
/// queue full are dropped and never reach the VM.
class OpenLoopDriver : public HttpDriver {
 public:
  /// `schedule` must be ascending in arrival time; ids may be sparse (a
  /// shard's subset of the global id space).
  OpenLoopDriver(DriverConfig config, std::vector<ScheduledRequest> schedule);

  // runtime::ServerPort
  i64 accept(Cycles now) override;
  std::string payload(i64 request_id) override;
  void respond(i64 request_id, std::string_view body, Cycles now) override;
  bool shutdown(Cycles now) override;
  /// The next scheduled arrival or retry while the queue is empty and
  /// nothing is in flight; 0 otherwise.
  Cycles next_event_at() const override;
  void annotate_request_metrics(obs::RequestMetrics& m) const override;
  // Overload protection (docs/ROBUSTNESS.md): the engine consults the
  // deadline at yield points and kills expired in-flight requests.
  bool deadline_shedding() const override;
  bool request_expired(i64 request_id, Cycles now) override;
  void shed_inflight(i64 request_id, Cycles now) override;

  u32 scheduled() const { return static_cast<u32>(records_.size()); }

 protected:
  RequestRecord& locate(i64 request_id) override;

 private:
  struct QueueEntry {
    std::size_t idx;  ///< Index into records_.
    Cycles at;        ///< When this attempt entered the admission queue.
  };
  struct PendingRetry {
    Cycles at;        ///< Re-admission time.
    std::size_t idx;  ///< Index into records_.
    bool operator>(const PendingRetry& o) const {
      return at != o.at ? at > o.at : idx > o.idx;
    }
  };

  /// Admits every arrival (scheduled or retry) with time <= now in
  /// (time, id) order, tail-dropping past the bound and shedding arrivals
  /// whose deadline already passed.
  void drain_arrivals(Cycles now);
  void admit(std::size_t idx, Cycles at, Cycles now);
  /// Final disposition or retry re-admission of a shed/dropped attempt.
  void finish_or_retry(std::size_t idx, RequestOutcome outcome, Cycles now);
  /// CoDel control law on the queue sojourn of the entry being dequeued.
  bool codel_drop(const QueueEntry& e, Cycles now);

  std::vector<i64> ids_;            ///< Schedule order → global id.
  std::size_t next_arrival_ = 0;    ///< First schedule entry not yet admitted.
  std::deque<QueueEntry> queue_;    ///< Admitted, not yet accepted.
  std::priority_queue<PendingRetry, std::vector<PendingRetry>,
                      std::greater<PendingRetry>>
      retry_heap_;

  // CoDel controller state (virtual time, deterministic).
  Cycles codel_first_above_ = 0;  ///< When sojourn first exceeded target + interval.
  Cycles codel_drop_next_ = 0;    ///< Next drop time while in dropping state.
  u32 codel_count_ = 0;           ///< Drops in the current dropping episode.
  bool codel_dropping_ = false;
};

}  // namespace gilfree::httpsim
