#include "httpsim/client_driver.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/check.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"

namespace gilfree::httpsim {

Arrival parse_arrival(const std::string& s) {
  if (s == "closed") return Arrival::kClosed;
  if (s == "poisson") return Arrival::kPoisson;
  if (s == "mmpp") return Arrival::kMmpp;
  if (s == "trace") return Arrival::kTrace;
  throw std::invalid_argument(
      "--arrival must be closed, poisson, mmpp, or trace (got \"" + s + "\")");
}

Router parse_router(const std::string& s) {
  if (s == "hash") return Router::kHash;
  if (s == "rr") return Router::kRoundRobin;
  throw std::invalid_argument("--router must be hash or rr (got \"" + s +
                              "\")");
}

DriverConfig DriverConfig::from_flags(const CliFlags& flags) {
  DriverConfig d;
  d.arrival =
      parse_arrival(flags.get("arrival", std::string(arrival_name(d.arrival))));
  const long clients = flags.get_int("clients", d.clients);
  if (clients < 1) throw std::invalid_argument("--clients must be >= 1");
  d.clients = static_cast<u32>(clients);
  const long requests = flags.get_int("requests", d.total_requests);
  if (requests < 1) throw std::invalid_argument("--requests must be >= 1");
  d.total_requests = static_cast<u32>(requests);
  const long turnaround =
      flags.get_int("turnaround", static_cast<long>(d.client_turnaround));
  if (turnaround < 0) throw std::invalid_argument("--turnaround must be >= 0");
  d.client_turnaround = static_cast<Cycles>(turnaround);
  d.rps = flags.get_double("rps", d.rps);
  if (!(d.rps > 0.0)) throw std::invalid_argument("--rps must be > 0");
  d.burst_factor = flags.get_double("burst-factor", d.burst_factor);
  if (!(d.burst_factor >= 1.0))
    throw std::invalid_argument("--burst-factor must be >= 1");
  const long burst_on =
      flags.get_int("burst-on", static_cast<long>(d.burst_on));
  const long burst_off =
      flags.get_int("burst-off", static_cast<long>(d.burst_off));
  if (burst_on < 1 || burst_off < 1)
    throw std::invalid_argument("--burst-on/--burst-off must be >= 1 cycles");
  d.burst_on = static_cast<Cycles>(burst_on);
  d.burst_off = static_cast<Cycles>(burst_off);
  const long queue_limit = flags.get_int("queue-limit", d.queue_limit);
  if (queue_limit < 1)
    throw std::invalid_argument("--queue-limit must be >= 1");
  d.queue_limit = static_cast<u32>(queue_limit);
  d.churn = flags.get_double("churn", d.churn);
  if (d.churn < 0.0 || d.churn > 1.0)
    throw std::invalid_argument("--churn must be in [0,1]");
  d.seed = static_cast<u64>(flags.get_int("load-seed", static_cast<long>(d.seed)));
  const long keys = flags.get_int("keys", d.key_space);
  if (keys < 0) throw std::invalid_argument("--keys must be >= 0");
  d.key_space = static_cast<u32>(keys);
  d.zipf = flags.get_double("zipf", d.zipf);
  if (d.zipf < 0.0) throw std::invalid_argument("--zipf must be >= 0");
  if (d.zipf > 0.0 && d.key_space == 0)
    throw std::invalid_argument("--zipf requires --keys > 0");
  d.arrival_file = flags.get("arrival-file", d.arrival_file);
  d.arrival_dump = flags.get("arrival-dump", d.arrival_dump);
  if (d.arrival == Arrival::kTrace && d.arrival_file.empty())
    throw std::invalid_argument("--arrival=trace requires --arrival-file=");
  d.overload = OverloadConfig::from_flags(flags);
  if (d.overload.enabled() && d.arrival == Arrival::kClosed) {
    throw std::invalid_argument(
        "--deadline/--shed require an open-loop arrival "
        "(--arrival=poisson, mmpp, or trace)");
  }
  return d;
}

std::vector<std::string> DriverConfig::to_flags() const {
  const DriverConfig def;
  std::vector<std::string> out;
  const auto fmt = [](double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return std::string(buf);
  };
  if (arrival != def.arrival)
    out.push_back(std::string("--arrival=") + std::string(arrival_name(arrival)));
  if (clients != def.clients)
    out.push_back("--clients=" + std::to_string(clients));
  if (total_requests != def.total_requests)
    out.push_back("--requests=" + std::to_string(total_requests));
  if (client_turnaround != def.client_turnaround)
    out.push_back("--turnaround=" + std::to_string(client_turnaround));
  if (rps != def.rps) out.push_back("--rps=" + fmt(rps));
  if (burst_factor != def.burst_factor)
    out.push_back("--burst-factor=" + fmt(burst_factor));
  if (burst_on != def.burst_on)
    out.push_back("--burst-on=" + std::to_string(burst_on));
  if (burst_off != def.burst_off)
    out.push_back("--burst-off=" + std::to_string(burst_off));
  if (queue_limit != def.queue_limit)
    out.push_back("--queue-limit=" + std::to_string(queue_limit));
  if (churn != def.churn) out.push_back("--churn=" + fmt(churn));
  if (seed != def.seed) out.push_back("--load-seed=" + std::to_string(seed));
  if (key_space != def.key_space)
    out.push_back("--keys=" + std::to_string(key_space));
  if (zipf != def.zipf) out.push_back("--zipf=" + fmt(zipf));
  if (arrival_file != def.arrival_file)
    out.push_back("--arrival-file=" + arrival_file);
  for (std::string& f : overload.to_flags()) out.push_back(std::move(f));
  return out;
}

namespace {

/// Writes `text` to `path` atomically enough for our purposes; throws
/// std::invalid_argument when the file cannot be created.
void write_text_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::invalid_argument("cannot write " + path);
  out << text;
  out.flush();
  if (!out) throw std::invalid_argument("short write to " + path);
}

}  // namespace

std::vector<ScheduledRequest> make_schedule(const DriverConfig& config,
                                            double ghz) {
  GILFREE_CHECK_MSG(config.arrival != Arrival::kClosed,
                    "closed-loop load has no pre-generated schedule");
  if (config.arrival == Arrival::kTrace) {
    GILFREE_CHECK_MSG(!config.arrival_file.empty(),
                      "--arrival=trace requires --arrival-file=");
    std::vector<ScheduledRequest> schedule = load_schedule(config.arrival_file);
    for (const ScheduledRequest& r : schedule) {
      if (r.path >= config.paths.size())
        throw std::invalid_argument("arrival trace path index " +
                                    std::to_string(r.path) +
                                    " is out of range");
    }
    if (!config.arrival_dump.empty())
      write_text_file(config.arrival_dump, dump_schedule(schedule));
    return schedule;
  }
  GILFREE_CHECK(config.rps > 0.0);
  GILFREE_CHECK(!config.paths.empty());
  const double cycles_per_second = ghz * 1e9;
  // Base (quiet-state) mean inter-arrival gap in cycles. For MMPP the quiet
  // rate is normalized so the long-run average still meets config.rps:
  //   rps = lambda_quiet * (1 - f_on) + lambda_quiet * factor * f_on
  double quiet_gap = cycles_per_second / config.rps;
  if (config.arrival == Arrival::kMmpp) {
    const double f_on =
        static_cast<double>(config.burst_on) /
        static_cast<double>(config.burst_on + config.burst_off);
    quiet_gap *= 1.0 - f_on + config.burst_factor * f_on;
  }
  const double burst_gap = quiet_gap / config.burst_factor;

  Rng rng(mix64(config.seed ^ 0x6f70656e6c6f6f70ULL));  // "openloop"
  // Zipf(theta) CDF over ranks 0..key_space-1; theta = 0 degenerates to
  // uniform. Built once; sampled by binary search so the draw cost is
  // O(log keys) regardless of skew.
  std::vector<double> key_cdf;
  if (config.key_space > 0) {
    key_cdf.reserve(config.key_space);
    double acc = 0.0;
    for (u32 k = 0; k < config.key_space; ++k) {
      acc += 1.0 / std::pow(static_cast<double>(k + 1), config.zipf);
      key_cdf.push_back(acc);
    }
    for (double& c : key_cdf) c /= acc;
  }
  std::vector<ScheduledRequest> schedule;
  schedule.reserve(config.total_requests);
  Cycles t = 0;
  bool bursting = false;
  Cycles next_switch = 0;
  if (config.arrival == Arrival::kMmpp) {
    next_switch = t + static_cast<Cycles>(std::max(
                          1.0, rng.next_exponential(
                                   static_cast<double>(config.burst_off))));
  }
  for (u32 i = 0; i < config.total_requests; ++i) {
    for (;;) {
      const double mean = bursting ? burst_gap : quiet_gap;
      const double gap = std::max(1.0, rng.next_exponential(mean));
      if (config.arrival == Arrival::kMmpp &&
          t + static_cast<Cycles>(gap) >= next_switch) {
        // Cross into the other modulation state and redraw (the exponential
        // is memoryless, so discarding the truncated gap is exact).
        t = next_switch;
        bursting = !bursting;
        const Cycles dwell = bursting ? config.burst_on : config.burst_off;
        next_switch = t + static_cast<Cycles>(std::max(
                              1.0, rng.next_exponential(
                                       static_cast<double>(dwell))));
        continue;
      }
      t += static_cast<Cycles>(gap);
      break;
    }
    ScheduledRequest r;
    r.id = config.first_id + static_cast<i64>(i);
    r.at = t;
    r.path = i % static_cast<u32>(config.paths.size());
    r.close = rng.next_bool(config.churn);
    if (config.key_space > 0) {
      // Extra draw only in keyed mode, so keyless schedules keep their
      // historical byte-identical RNG stream.
      const double u = rng.next_double();
      const auto it = std::upper_bound(key_cdf.begin(), key_cdf.end(), u);
      const u64 rank = static_cast<u64>(
          std::min<std::ptrdiff_t>(it - key_cdf.begin(),
                                   static_cast<std::ptrdiff_t>(
                                       config.key_space - 1)));
      r.key = (rank + 1) << 32;
    }
    schedule.push_back(r);
  }
  if (!config.arrival_dump.empty())
    write_text_file(config.arrival_dump, dump_schedule(schedule));
  return schedule;
}

std::string dump_schedule(const std::vector<ScheduledRequest>& schedule) {
  std::string out = "# gilfree.arrivals/1\n";
  for (const ScheduledRequest& r : schedule) {
    out += std::to_string(r.id);
    out.push_back(' ');
    out += std::to_string(r.at);
    out.push_back(' ');
    out += std::to_string(r.path);
    out.push_back(' ');
    out.push_back(r.close ? '1' : '0');
    out.push_back(' ');
    out += std::to_string(r.key);
    out.push_back('\n');
  }
  return out;
}

std::vector<ScheduledRequest> parse_schedule(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != "# gilfree.arrivals/1")
    throw std::invalid_argument(
        "arrival trace must start with \"# gilfree.arrivals/1\"");
  std::vector<ScheduledRequest> schedule;
  Cycles prev = 0;
  std::size_t lineno = 1;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    std::istringstream fields(line);
    ScheduledRequest r;
    long long id = 0;
    unsigned long long at = 0, key = 0;
    unsigned long path = 0;
    int close = 0;
    if (!(fields >> id >> at >> path >> close >> key) ||
        (close != 0 && close != 1)) {
      throw std::invalid_argument("arrival trace line " +
                                  std::to_string(lineno) + " is malformed");
    }
    std::string rest;
    if (fields >> rest)
      throw std::invalid_argument("arrival trace line " +
                                  std::to_string(lineno) +
                                  " has trailing fields");
    r.id = static_cast<i64>(id);
    r.at = static_cast<Cycles>(at);
    r.path = static_cast<u32>(path);
    r.close = close == 1;
    r.key = static_cast<u64>(key);
    if (r.at < prev)
      throw std::invalid_argument("arrival trace line " +
                                  std::to_string(lineno) +
                                  " is out of time order");
    prev = r.at;
    schedule.push_back(r);
  }
  if (schedule.empty())
    throw std::invalid_argument("arrival trace has no requests");
  return schedule;
}

std::vector<ScheduledRequest> load_schedule(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::invalid_argument("cannot open arrival trace " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_schedule(buf.str());
}

u32 route_request(Router router, i64 id, u32 shards, u64 seed) {
  GILFREE_CHECK(shards >= 1);
  const u64 uid = static_cast<u64>(id);
  switch (router) {
    case Router::kRoundRobin:
      return static_cast<u32>(uid % shards);
    case Router::kHash:
      return static_cast<u32>(mix64(uid * 0x9e3779b97f4a7c15ULL ^ seed) %
                              shards);
  }
  return 0;
}

u32 route_key(Router router, i64 id, u64 key, u32 shards, u64 seed) {
  if (key == 0) return route_request(router, id, shards, seed);
  GILFREE_CHECK(shards >= 1);
  switch (router) {
    case Router::kRoundRobin:
      // Rank-based striping: hot ranks land on fixed shards, which is the
      // skew the steal protocol exists to rebalance.
      return static_cast<u32>((key >> 32) % shards);
    case Router::kHash:
      return static_cast<u32>(mix64(key * 0x9e3779b97f4a7c15ULL ^ seed) %
                              shards);
  }
  return 0;
}

// --- HttpDriver ------------------------------------------------------------

HttpDriver::HttpDriver(DriverConfig config) : config_(std::move(config)) {
  GILFREE_CHECK(!config_.paths.empty());
}

RequestRecord& HttpDriver::locate(i64 request_id) {
  return records_.at(static_cast<std::size_t>(request_id - config_.first_id));
}

Cycles HttpDriver::request_issued_at(i64 request_id) {
  return locate(request_id).arrival;
}

Cycles HttpDriver::request_accepted_at(i64 request_id) {
  return locate(request_id).accepted;
}

std::string HttpDriver::render_payload(const RequestRecord& r) const {
  return "GET " + config_.paths[r.path] +
         " HTTP/1.1\r\n"
         "Host: sim.example.com\r\n"
         "User-Agent: gilfree-driver/1.0\r\n"
         "Accept: text/html\r\n"
         "Connection: " +
         (r.close ? "close" : "keep-alive") + "\r\n\r\n";
}

void HttpDriver::note_response(RequestRecord& r, std::string_view body,
                               Cycles now) {
  r.responded = now;
  const Cycles lat = now > r.arrival ? now - r.arrival : 0;
  const Cycles queued =
      r.accepted > r.arrival ? r.accepted - r.arrival : 0;
  latency_hist_.add(lat);
  queue_delay_.add(static_cast<double>(queued));
  queue_hist_.add(queued);
  ++completed_;
  GILFREE_CHECK(in_flight_ > 0);
  --in_flight_;
  last_response_ = std::max(last_response_, now);
  response_bytes_ += body.size();
}

double HttpDriver::throughput_rps(double ghz) const {
  if (completed_ == 0 || last_response_ == 0) return 0.0;
  const double seconds = static_cast<double>(last_response_) / (ghz * 1e9);
  return seconds > 0 ? completed_ / seconds : 0.0;
}

std::string format_request_log(const std::vector<RequestRecord>& records,
                               const std::vector<std::string>& paths) {
  std::ostringstream out;
  for (const RequestRecord& r : records) {
    out << r.id << '\t' << r.arrival << '\t' << r.accepted << '\t'
        << r.responded << '\t' << paths.at(r.path) << '\t'
        << (r.close ? "close" : "keep") << '\t'
        << request_outcome_name(r.outcome) << '\n';
  }
  return out.str();
}

std::string HttpDriver::log_to_string() const {
  return format_request_log(records_, config_.paths);
}

// --- ClosedLoopDriver ------------------------------------------------------

ClosedLoopDriver::ClosedLoopDriver(DriverConfig config)
    : HttpDriver(std::move(config)) {
  GILFREE_CHECK(config_.clients >= 1);
  GILFREE_CHECK(config_.arrival == Arrival::kClosed);
  // Each client issues its first request at time ~0 (staggered slightly so
  // arrival order is deterministic and distinct).
  const u32 first_wave = std::min(config_.clients, config_.total_requests);
  for (u32 c = 0; c < first_wave; ++c) issue(c * 100);
}

void ClosedLoopDriver::issue(Cycles at) {
  GILFREE_CHECK(issued_ < config_.total_requests);
  RequestRecord r;
  r.id = config_.first_id + static_cast<i64>(issued_);
  r.arrival = at;
  r.path = issued_ % static_cast<u32>(config_.paths.size());
  records_.push_back(r);
  if (issued_ == 0 || at < first_issue_) first_issue_ = at;
  ++issued_;
  ++in_flight_;
  arrivals_.push(Pending{at, r.id});
}

i64 ClosedLoopDriver::accept(Cycles now) {
  if (arrivals_.empty() || arrivals_.top().at > now) return -1;
  const i64 id = arrivals_.top().id;
  arrivals_.pop();
  locate(id).accepted = now;
  return id;
}

std::string ClosedLoopDriver::payload(i64 request_id) {
  return render_payload(locate(request_id));
}

void ClosedLoopDriver::respond(i64 request_id, std::string_view body,
                               Cycles now) {
  note_response(locate(request_id), body, now);
  if (issued_ < config_.total_requests) {
    issue(now + config_.client_turnaround);
  }
}

bool ClosedLoopDriver::shutdown(Cycles now) {
  (void)now;
  return issued_ >= config_.total_requests && in_flight_ == 0 &&
         arrivals_.empty();
}

void ClosedLoopDriver::annotate_request_metrics(obs::RequestMetrics& m) const {
  m.arrival = std::string(arrival_name(Arrival::kClosed));
  m.offered_rps = 0.0;  // closed loop: offered load tracks service rate
  m.dropped = 0;
}

// --- OpenLoopDriver --------------------------------------------------------

OpenLoopDriver::OpenLoopDriver(DriverConfig config,
                               std::vector<ScheduledRequest> schedule)
    : HttpDriver(std::move(config)) {
  GILFREE_CHECK(config_.arrival != Arrival::kClosed);
  records_.reserve(schedule.size());
  ids_.reserve(schedule.size());
  Cycles prev = 0;
  for (const ScheduledRequest& s : schedule) {
    GILFREE_CHECK_MSG(s.at >= prev, "schedule must be ascending in time");
    prev = s.at;
    RequestRecord r;
    r.id = s.id;
    r.arrival = s.at;
    r.path = s.path;
    r.close = s.close;
    // Keyed on (id, attempt=0, seed), so a request's deadline is identical
    // whether it is served sharded or unsharded.
    r.deadline =
        request_deadline(config_.overload, s.id, 0, s.at, config_.seed);
    records_.push_back(r);
    ids_.push_back(s.id);
  }
  if (!records_.empty()) first_issue_ = records_.front().arrival;
}

RequestRecord& OpenLoopDriver::locate(i64 request_id) {
  const auto it = std::lower_bound(ids_.begin(), ids_.end(), request_id);
  GILFREE_CHECK_MSG(it != ids_.end() && *it == request_id,
                    "unknown request id " << request_id);
  return records_[static_cast<std::size_t>(it - ids_.begin())];
}

void OpenLoopDriver::finish_or_retry(std::size_t idx, RequestOutcome outcome,
                                     Cycles now) {
  RequestRecord& r = records_[idx];
  // CoDel drops are final by design: re-offering load the controller just
  // shed is exactly the lemming behavior retries must avoid.
  const bool retryable = outcome != RequestOutcome::kCodel &&
                         r.attempts < config_.overload.retry_budget;
  if (retryable) {
    ++r.attempts;
    ++retries_;
    const Cycles backoff = retry_backoff_cycles(config_.overload, r.id,
                                                r.attempts, config_.seed);
    const Cycles at = now + backoff;
    r.accepted = 0;
    r.responded = 0;
    r.deadline =
        request_deadline(config_.overload, r.id, r.attempts, at, config_.seed);
    retry_heap_.push(PendingRetry{at, idx});
    return;
  }
  r.outcome = outcome;
  switch (outcome) {
    case RequestOutcome::kDropped:
      r.dropped = true;
      ++dropped_;
      break;
    case RequestOutcome::kShedAdmission: ++shed_admission_; break;
    case RequestOutcome::kShedDispatch: ++shed_dispatch_; break;
    case RequestOutcome::kShedService: ++shed_service_; break;
    case RequestOutcome::kCodel: ++codel_drops_; break;
    case RequestOutcome::kOk: break;  // unreachable
  }
}

void OpenLoopDriver::admit(std::size_t idx, Cycles at, Cycles now) {
  RequestRecord& r = records_[idx];
  // Shed at admission: the deadline passed while the request sat in the
  // (simulated) network waiting for the accept loop to drain it.
  if (r.deadline != 0 && now > r.deadline) {
    finish_or_retry(idx, RequestOutcome::kShedAdmission, now);
    return;
  }
  if (queue_.size() >= config_.queue_limit) {
    finish_or_retry(idx, RequestOutcome::kDropped, now);
    return;
  }
  queue_.push_back(QueueEntry{idx, at});
  if (r.attempts == 0) ++issued_;
}

void OpenLoopDriver::drain_arrivals(Cycles now) {
  // Merge the (ascending) schedule with the retry heap in (time, id) order
  // so admission order is deterministic regardless of retry timing.
  for (;;) {
    const bool have_sched = next_arrival_ < records_.size() &&
                            records_[next_arrival_].arrival <= now;
    const bool have_retry =
        !retry_heap_.empty() && retry_heap_.top().at <= now;
    if (!have_sched && !have_retry) return;
    bool take_sched = have_sched;
    if (have_sched && have_retry) {
      const Cycles sa = records_[next_arrival_].arrival;
      const PendingRetry& pr = retry_heap_.top();
      take_sched = sa < pr.at ||
                   (sa == pr.at &&
                    records_[next_arrival_].id <= records_[pr.idx].id);
    }
    if (take_sched) {
      const std::size_t idx = next_arrival_++;
      admit(idx, records_[idx].arrival, now);
    } else {
      const PendingRetry pr = retry_heap_.top();
      retry_heap_.pop();
      admit(pr.idx, pr.at, now);
    }
  }
}

bool OpenLoopDriver::codel_drop(const QueueEntry& e, Cycles now) {
  const OverloadConfig& o = config_.overload;
  const Cycles sojourn = now > e.at ? now - e.at : 0;
  if (sojourn < o.codel_target) {
    // Queue recovered below target: leave the dropping state entirely.
    codel_first_above_ = 0;
    codel_dropping_ = false;
    return false;
  }
  if (codel_first_above_ == 0) {
    codel_first_above_ = now + o.codel_interval;
    return false;
  }
  if (now < codel_first_above_) return false;
  const auto gap = [&]() {
    return static_cast<Cycles>(std::max(
        1.0, static_cast<double>(o.codel_interval) /
                 std::sqrt(static_cast<double>(std::max<u32>(1, codel_count_)))));
  };
  if (!codel_dropping_) {
    codel_dropping_ = true;
    // Resume near the previous drop rate (CoDel's count hysteresis).
    codel_count_ = codel_count_ > 2 ? codel_count_ - 2 : 1;
    codel_drop_next_ = now + gap();
    return true;
  }
  if (now >= codel_drop_next_) {
    ++codel_count_;
    codel_drop_next_ += gap();
    return true;
  }
  return false;
}

i64 OpenLoopDriver::accept(Cycles now) {
  drain_arrivals(now);
  while (!queue_.empty()) {
    const QueueEntry e = queue_.front();
    queue_.pop_front();
    RequestRecord& r = records_[e.idx];
    // Shed at dispatch: expired while waiting in the admission queue.
    if (r.deadline != 0 && now > r.deadline) {
      finish_or_retry(e.idx, RequestOutcome::kShedDispatch, now);
      continue;
    }
    if (config_.overload.codel && codel_drop(e, now)) {
      finish_or_retry(e.idx, RequestOutcome::kCodel, now);
      continue;
    }
    r.accepted = now;
    ++in_flight_;
    return r.id;
  }
  return -1;
}

std::string OpenLoopDriver::payload(i64 request_id) {
  return render_payload(locate(request_id));
}

void OpenLoopDriver::respond(i64 request_id, std::string_view body,
                             Cycles now) {
  note_response(locate(request_id), body, now);
}

bool OpenLoopDriver::shutdown(Cycles now) {
  drain_arrivals(now);
  return next_arrival_ >= records_.size() && retry_heap_.empty() &&
         queue_.empty() && in_flight_ == 0;
}

Cycles OpenLoopDriver::next_event_at() const {
  if (!queue_.empty() || in_flight_ != 0) return 0;
  constexpr Cycles kNone = ~Cycles{0};
  Cycles next = kNone;
  if (next_arrival_ < records_.size()) next = records_[next_arrival_].arrival;
  if (!retry_heap_.empty()) next = std::min(next, retry_heap_.top().at);
  return next == kNone ? 0 : next;
}

bool OpenLoopDriver::deadline_shedding() const {
  return config_.overload.deadline != 0;
}

bool OpenLoopDriver::request_expired(i64 request_id, Cycles now) {
  const RequestRecord& r = locate(request_id);
  return r.deadline != 0 && r.responded == 0 && now > r.deadline;
}

void OpenLoopDriver::shed_inflight(i64 request_id, Cycles now) {
  RequestRecord& r = locate(request_id);
  GILFREE_CHECK(in_flight_ > 0);
  --in_flight_;
  finish_or_retry(static_cast<std::size_t>(&r - records_.data()),
                  RequestOutcome::kShedService, now);
}

void OpenLoopDriver::annotate_request_metrics(obs::RequestMetrics& m) const {
  m.arrival = std::string(arrival_name(config_.arrival));
  m.offered_rps = config_.rps;
  m.dropped = dropped_;
  m.shed = shed_admission_ + shed_dispatch_ + shed_service_;
  m.codel_dropped = codel_drops_;
  m.retries = retries_;
}

}  // namespace gilfree::httpsim
