#include "common/cli.hpp"

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "common/check.hpp"
#include "common/strutil.hpp"

namespace gilfree {

CliFlags::CliFlags(int argc, char** argv, bool throw_errors)
    : throw_errors_(throw_errors) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (starts_with(arg, "--")) {
      auto eq = arg.find('=');
      std::string name =
          eq == std::string::npos ? arg.substr(2) : arg.substr(2, eq - 2);
      if (name.empty())
        fail("malformed flag '" + arg + "': empty flag name");
      flags_[name] = eq == std::string::npos ? "true" : arg.substr(eq + 1);
      raw_args_.push_back(arg);
    } else if (arg.size() > 1 && arg[0] == '-' &&
               !std::isdigit(static_cast<unsigned char>(arg[1])) &&
               arg[1] != '.') {
      // Single-dash flags would otherwise be swallowed as positionals and
      // silently ignored. Negative numbers stay positional.
      fail("unrecognized argument '" + arg + "': flags use --name=value");
    } else {
      positional_.insert(arg);
    }
  }
}

CliFlags CliFlags::from_strings(const std::vector<std::string>& args) {
  std::vector<std::string> storage;
  storage.reserve(args.size() + 1);
  storage.push_back("flags");
  for (const std::string& a : args) storage.push_back(a);
  std::vector<char*> argv;
  argv.reserve(storage.size());
  for (std::string& s : storage) argv.push_back(s.data());
  return CliFlags(static_cast<int>(argv.size()), argv.data(),
                  /*throw_errors=*/true);
}

bool CliFlags::has(const std::string& name) const {
  consumed_.insert(name);
  return flags_.count(name) > 0;
}

std::string CliFlags::get(const std::string& name,
                          const std::string& def) const {
  consumed_.insert(name);
  auto it = flags_.find(name);
  return it == flags_.end() ? def : it->second;
}

long CliFlags::get_int(const std::string& name, long def) const {
  consumed_.insert(name);
  auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(it->second.c_str(), &end, 10);
  if (it->second.empty() || end == nullptr || *end != '\0')
    fail("flag --" + name + " expects an integer, got '" + it->second + "'");
  if (errno == ERANGE)
    fail("flag --" + name + " is out of range: '" + it->second + "'");
  return v;
}

u32 CliFlags::get_u32(const std::string& name, u32 def, u32 min) const {
  const long v = get_int(name, static_cast<long>(def));
  if (v < static_cast<long>(min) || v > static_cast<long>(UINT32_MAX))
    fail("flag --" + name + " must be in [" + std::to_string(min) + ", " +
         std::to_string(UINT32_MAX) + "], got " + std::to_string(v));
  return static_cast<u32>(v);
}

double CliFlags::get_double(const std::string& name, double def) const {
  consumed_.insert(name);
  auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  if (it->second.empty() || end == nullptr || *end != '\0')
    fail("flag --" + name + " expects a number, got '" + it->second + "'");
  return v;
}

bool CliFlags::get_bool(const std::string& name, bool def) const {
  consumed_.insert(name);
  auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  return it->second != "false" && it->second != "0" && it->second != "no";
}

void CliFlags::reject_unknown() const {
  for (const auto& [k, v] : flags_) {
    (void)v;
    if (consumed_.count(k) == 0) fail("unknown flag: --" + k);
  }
}

void CliFlags::fail(const std::string& msg) const {
  if (throw_errors_) throw std::invalid_argument(msg);
  std::fprintf(stderr, "error: %s\n", msg.c_str());
  std::exit(2);
}

}  // namespace gilfree
