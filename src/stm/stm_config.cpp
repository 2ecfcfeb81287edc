#include "stm/stm_config.hpp"

#include <stdexcept>
#include <string>

namespace gilfree::stm {

StmConfig StmConfig::from_flags(const CliFlags& flags) {
  StmConfig c;
  c.enabled = flags.get_bool("stm", c.enabled);
  const std::string sub = flags.get("gil-subscription", "eager");
  if (sub == "eager") {
    c.subscription = GilSubscription::kEager;
  } else if (sub == "lazy") {
    c.subscription = GilSubscription::kLazy;
  } else {
    throw std::invalid_argument("--gil-subscription must be eager or lazy");
  }
  c.commit_retry_max = flags.get_u32("stm-commit-retry", c.commit_retry_max);
  c.slice_yields = flags.get_u32("stm-slice-yields", c.slice_yields);
  c.max_read_lines = flags.get_u32("stm-max-read", c.max_read_lines);
  c.max_write_entries =
      flags.get_u32("stm-max-write", c.max_write_entries);
  return c;
}

std::vector<std::string> StmConfig::to_flags() const {
  const StmConfig def;
  std::vector<std::string> out;
  if (enabled) out.push_back("--stm=true");
  if (subscription != def.subscription)
    out.push_back(std::string("--gil-subscription=") +
                  gil_subscription_name(subscription));
  if (commit_retry_max != def.commit_retry_max)
    out.push_back("--stm-commit-retry=" + std::to_string(commit_retry_max));
  if (slice_yields != def.slice_yields)
    out.push_back("--stm-slice-yields=" + std::to_string(slice_yields));
  if (max_read_lines != def.max_read_lines)
    out.push_back("--stm-max-read=" + std::to_string(max_read_lines));
  if (max_write_entries != def.max_write_entries)
    out.push_back("--stm-max-write=" + std::to_string(max_write_entries));
  return out;
}

}  // namespace gilfree::stm
