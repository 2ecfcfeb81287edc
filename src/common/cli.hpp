// Minimal --key=value command-line parsing for the bench and example
// binaries. No external dependency; unknown flags are an error so typos in
// sweep scripts fail fast.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace gilfree {

class CliFlags {
 public:
  /// Parses argv of the form: --name=value or bare --name (value "true").
  /// Positional arguments are collected separately.
  ///
  /// Malformed input (single-dash flags, empty flag names, non-numeric or
  /// out-of-range values handed to get_int/get_u32/get_double, unknown
  /// flags at
  /// reject_unknown()) prints `error: ...` to stderr and exits with
  /// status 2 — sweep scripts fail fast. Tests construct with
  /// `throw_errors = true` to get std::invalid_argument instead.
  CliFlags(int argc, char** argv, bool throw_errors = false);

  /// Rebuilds flags from stored argument strings (a record header's or a
  /// cluster init frame's) in throw_errors mode.
  static CliFlags from_strings(const std::vector<std::string>& args);

  bool has(const std::string& name) const;
  std::string get(const std::string& name, const std::string& def) const;
  long get_int(const std::string& name, long def) const;
  /// An integer in [min, UINT32_MAX]; anything else is an error naming the
  /// flag (a plain narrowing cast would wrap 2^32 to 0).
  u32 get_u32(const std::string& name, u32 def, u32 min = 1) const;
  double get_double(const std::string& name, double def) const;
  bool get_bool(const std::string& name, bool def) const;

  const std::set<std::string>& positional() const { return positional_; }

  /// The --flag arguments exactly as passed, in argv order (positionals
  /// excluded). Record-file headers stash these so tools/replay can rebuild
  /// the same CliFlags in another process.
  const std::vector<std::string>& raw_args() const { return raw_args_; }

  /// Call after all get()s: errors if the user passed a flag nobody read.
  void reject_unknown() const;

 private:
  [[noreturn]] void fail(const std::string& msg) const;

  std::map<std::string, std::string> flags_;
  std::set<std::string> positional_;
  std::vector<std::string> raw_args_;
  mutable std::set<std::string> consumed_;
  bool throw_errors_ = false;
};

}  // namespace gilfree
