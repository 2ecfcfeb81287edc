#include "obs/record.hpp"

#include <stdexcept>

#include "common/check.hpp"
#include "common/cli.hpp"
#include "obs/json.hpp"

namespace gilfree::obs {

RecordConfig RecordConfig::from_flags(const CliFlags& flags) {
  RecordConfig c;
  c.path = flags.get("record-out", "");
  const i64 limit = flags.get_int("record-limit", static_cast<i64>(c.limit));
  if (limit <= 0)
    throw std::invalid_argument("--record-limit must be > 0");
  c.limit = static_cast<u64>(limit);
  return c;
}

RunRecorder::RunRecorder(const RecordConfig& config) : config_(config) {
  if (config_.enabled()) {
    out_.open(config_.path);
    GILFREE_CHECK_MSG(out_.good(), "cannot write " << config_.path);
    to_file_ = true;
  }
}

void RunRecorder::begin_run(std::map<std::string, std::string> scenario,
                            std::vector<std::string> flags) {
  if (run_open_) end_run({});
  run_open_ = true;
  next_e_ = 1;
  truncated_ = false;
  events_.clear();
  if (to_file_) {
    std::string line = "{\"record\":";
    json_append_string(line, kRecordSchema);
    line += ",\"run\":";
    json_append_number(line, static_cast<u64>(run_));
    line += ",\"scenario\":{";
    bool first = true;
    for (const auto& [k, v] : scenario) {
      if (!first) line.push_back(',');
      first = false;
      json_append_string(line, k);
      line.push_back(':');
      json_append_string(line, v);
    }
    line += "},\"flags\":[";
    for (std::size_t i = 0; i < flags.size(); ++i) {
      if (i != 0) line.push_back(',');
      json_append_string(line, flags[i]);
    }
    line += "]}";
    out_ << line << "\n";
  }
}

void RunRecorder::record(TraceEvent e) {
  if (!is_recorded_kind(e.kind)) return;
  e.seq = next_e_++;
  if (e.seq > config_.limit) {
    truncated_ = true;
    return;
  }
  events_.push_back(e);
  if (to_file_) out_ << trace_event_to_jsonl(e, run_) << "\n";
}

void RunRecorder::end_run(const std::map<std::string, u64>& summary) {
  if (!run_open_) return;
  run_open_ = false;
  last_summary_ = summary;
  if (to_file_) {
    std::string line = "{\"ev\":\"end\",\"run\":";
    json_append_number(line, static_cast<u64>(run_));
    line += ",\"events\":";
    json_append_number(line, total_events());
    line += ",\"truncated\":";
    line += truncated_ ? "true" : "false";
    for (const auto& [k, v] : summary) {
      line.push_back(',');
      json_append_string(line, k);
      line.push_back(':');
      json_append_number(line, v);
    }
    line.push_back('}');
    out_ << line << "\n";
  }
  ++run_;
}

void RunRecorder::flush() {
  if (to_file_) out_.flush();
}

RecordReader::RecordReader(const std::string& path)
    : path_(path), in_(path) {
  if (!in_) throw std::runtime_error("cannot read record file " + path);
}

bool RecordReader::next(RecordedRun& run) {
  bool open = header_.has_value();
  if (open) {
    run = std::move(*header_);
    header_.reset();
  }
  std::string line;
  while (std::getline(in_, line)) {
    if (line.empty()) continue;
    const JsonValue v = JsonValue::parse(line);
    if (v.has("record")) {
      const std::string& schema = v.at("record").as_string();
      if (schema != kRecordSchema)
        throw std::runtime_error("record file " + path_ +
                                 ": unsupported schema '" + schema +
                                 "' (expected " + std::string(kRecordSchema) +
                                 ")");
      RecordedRun r;
      r.run = static_cast<u32>(v.at("run").as_u64());
      for (const auto& [k, val] : v.at("scenario").as_object())
        r.scenario[k] = val.as_string();
      for (const JsonValue& f : v.at("flags").as_array())
        r.flags.push_back(f.as_string());
      if (open) {
        header_ = std::move(r);
        return true;
      }
      run = std::move(r);
      open = true;
      continue;
    }
    if (!open)
      throw std::runtime_error("record file " + path_ +
                               ": event before header");
    if (v.at("ev").as_string() == "end") {
      run.total_events = v.at("events").as_u64();
      run.truncated = v.at("truncated").as_bool();
      for (const auto& [key, val] : v.as_object()) {
        if (key == "ev" || key == "run" || key == "events" ||
            key == "truncated")
          continue;
        run.summary[key] = val.as_u64();
      }
      continue;
    }
    run.events.push_back(trace_event_from_json(v));
  }
  return open;
}

std::vector<RecordedRun> parse_record_file(const std::string& path) {
  RecordReader reader(path);
  std::vector<RecordedRun> runs;
  RecordedRun run;
  while (reader.next(run)) runs.push_back(std::move(run));
  return runs;
}

}  // namespace gilfree::obs
