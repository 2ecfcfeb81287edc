#include "httpsim/cluster/record.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/cli.hpp"
#include "obs/json.hpp"

namespace gilfree::httpsim::cluster {

namespace {

constexpr std::string_view kSchema = "gilfree.record/httpsim.1";

void append_flag_array(std::string& out, const char* name,
                       const std::vector<std::string>& flags) {
  out += ",\"";
  out += name;
  out += "\":[";
  for (std::size_t i = 0; i < flags.size(); ++i) {
    if (i > 0) out += ',';
    obs::json_append_string(out, flags[i]);
  }
  out += ']';
}

std::vector<std::string> string_array(const obs::JsonValue& v) {
  std::vector<std::string> out;
  for (const obs::JsonValue& e : v.as_array()) out.push_back(e.as_string());
  return out;
}

}  // namespace

void write_cluster_record(const std::string& path, const ClusterSpec& spec,
                          const ClusterRunResult& result) {
  std::string header = "{\"record\":";
  obs::json_append_string(header, kSchema);
  header += ",\"scenario\":{\"machine\":";
  obs::json_append_string(header, spec.machine);
  header += ",\"config\":";
  obs::json_append_string(header, spec.config);
  header += ",\"program\":";
  obs::json_append_string(header, spec.program);
  header += ",\"seed\":";
  obs::json_append_number(header, spec.engine_seed);
  header += '}';
  append_flag_array(header, "engine_flags", spec.engine_flags);
  append_flag_array(header, "driver_flags", spec.driver.to_flags());
  append_flag_array(header, "cluster_flags", spec.options.to_flags());
  header += '}';

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::invalid_argument("cannot write " + path);
  out << header << '\n';
  for (const std::string& line : result.record_lines) out << line << '\n';
  out.flush();
  if (!out) throw std::invalid_argument("short write to " + path);
}

ClusterRecord read_cluster_record(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::string header_line;
  if (!std::getline(in, header_line))
    throw std::runtime_error(path + ": empty record file");
  const obs::JsonValue header = obs::JsonValue::parse(header_line);
  if (header.string_or("record", "") != kSchema)
    throw std::runtime_error(path + ": not a " + std::string(kSchema) +
                             " file");

  ClusterRecord rec;
  const obs::JsonValue& scenario = header.at("scenario");
  rec.spec.machine = scenario.at("machine").as_string();
  rec.spec.config = scenario.at("config").as_string();
  rec.spec.program = scenario.at("program").as_string();
  rec.spec.engine_seed = scenario.at("seed").as_u64();
  rec.spec.engine_flags = string_array(header.at("engine_flags"));
  {
    const CliFlags flags =
        CliFlags::from_strings(string_array(header.at("driver_flags")));
    rec.spec.driver = DriverConfig::from_flags(flags);
    flags.reject_unknown();
  }
  {
    const CliFlags flags =
        CliFlags::from_strings(string_array(header.at("cluster_flags")));
    rec.spec.options = ClusterOptions::from_flags(flags);
    flags.reject_unknown();
  }
  // Replays regenerate the decision stream only; never per-shard artifacts
  // or arrival re-dumps.
  rec.spec.artifact_stem.clear();
  rec.spec.driver.arrival_dump.clear();

  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) rec.lines.push_back(line);
  }
  return rec;
}

std::string verify_cluster_record(const std::string& path) {
  const ClusterRecord rec = read_cluster_record(path);
  const ClusterRunResult fresh = run_cluster(rec.spec);
  const std::size_t n = std::min(rec.lines.size(), fresh.record_lines.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (rec.lines[i] != fresh.record_lines[i]) {
      std::ostringstream os;
      os << path << ": line " << (i + 2) << " diverges: recorded \""
         << rec.lines[i] << "\" vs replay \"" << fresh.record_lines[i]
         << "\"";
      return os.str();
    }
  }
  if (rec.lines.size() != fresh.record_lines.size()) {
    std::ostringstream os;
    os << path << ": recorded " << rec.lines.size() << " event lines, replay "
       << fresh.record_lines.size();
    return os.str();
  }
  return "";
}

}  // namespace gilfree::httpsim::cluster
