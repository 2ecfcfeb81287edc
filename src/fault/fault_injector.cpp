#include "fault/fault_injector.hpp"

#include <stdexcept>

#include "common/check.hpp"
#include "common/cli.hpp"
#include "common/strutil.hpp"

namespace gilfree::fault {

namespace {

/// A cycle count; a negative one would wrap to ~2^64 cycles.
Cycles cycles_flag(const CliFlags& flags, const std::string& name) {
  const long v = flags.get_int(name, 0);
  if (v < 0) throw std::invalid_argument("--" + name + " must be >= 0");
  return static_cast<Cycles>(v);
}

FaultWindow window_from_flags(const CliFlags& flags, const std::string& stem) {
  FaultWindow w;
  w.from = cycles_flag(flags, "fault-" + stem + "-from");
  w.until = cycles_flag(flags, "fault-" + stem + "-until");
  if (w.until != 0 && w.until <= w.from) {
    throw std::invalid_argument("--fault-" + stem + "-until must exceed --fault-" +
                                stem + "-from");
  }
  return w;
}

}  // namespace

FaultConfig FaultConfig::from_flags(const CliFlags& flags) {
  FaultConfig c;
  c.seed = static_cast<u64>(flags.get_int(
      "fault-seed", static_cast<long>(c.seed & 0x7fffffffffffffffULL)));
  c.spurious_mean_cycles = cycles_flag(flags, "fault-spurious-mean");
  c.spurious_window = window_from_flags(flags, "spurious");
  const std::string yps = flags.get("fault-persistent-yps", "");
  if (yps == "all") {
    c.persistent_all_yps = true;
  } else if (!yps.empty()) {
    for (const std::string& part : split(yps, ',')) {
      if (part.empty()) continue;
      std::size_t pos = 0;
      int v = 0;
      try {
        v = std::stoi(part, &pos);
      } catch (const std::out_of_range&) {
        pos = 0;  // reported as a bad id below
      }
      if (pos != part.size())
        throw std::invalid_argument("--fault-persistent-yps: bad id \"" +
                                    part + "\"");
      c.persistent_yps.push_back(v);
    }
  }
  c.persistent_window = window_from_flags(flags, "persistent");
  c.interrupt_storm_mean_cycles = cycles_flag(flags, "fault-interrupt-mean");
  c.interrupt_window = window_from_flags(flags, "interrupt");
  c.capacity_factor = flags.get_double("fault-capacity-factor", 1.0);
  if (c.capacity_factor < 0.0 || c.capacity_factor > 1.0)
    throw std::invalid_argument("--fault-capacity-factor must be in [0,1]");
  c.capacity_window = window_from_flags(flags, "capacity");
  c.gil_handoff_delay_cycles = cycles_flag(flags, "fault-handoff-delay");
  c.handoff_window = window_from_flags(flags, "handoff");
  return c;
}

namespace {

void window_to_flags(std::vector<std::string>& out, const std::string& stem,
                     const FaultWindow& w) {
  if (w.from != 0)
    out.push_back("--fault-" + stem + "-from=" + std::to_string(w.from));
  if (w.until != 0)
    out.push_back("--fault-" + stem + "-until=" + std::to_string(w.until));
}

}  // namespace

std::vector<std::string> FaultConfig::to_flags() const {
  const FaultConfig def;
  std::vector<std::string> out;
  // The raw default seed exceeds LONG_MAX (from_flags masks it on read), so
  // it is never emitted; every seed that came through from_flags fits.
  if (seed != def.seed) out.push_back("--fault-seed=" + std::to_string(seed));
  if (spurious_mean_cycles != 0)
    out.push_back("--fault-spurious-mean=" +
                  std::to_string(spurious_mean_cycles));
  window_to_flags(out, "spurious", spurious_window);
  if (persistent_all_yps) {
    out.push_back("--fault-persistent-yps=all");
  } else if (!persistent_yps.empty()) {
    std::string v = "--fault-persistent-yps=";
    for (std::size_t i = 0; i < persistent_yps.size(); ++i) {
      if (i != 0) v.push_back(',');
      v += std::to_string(persistent_yps[i]);
    }
    out.push_back(std::move(v));
  }
  window_to_flags(out, "persistent", persistent_window);
  if (interrupt_storm_mean_cycles != 0)
    out.push_back("--fault-interrupt-mean=" +
                  std::to_string(interrupt_storm_mean_cycles));
  window_to_flags(out, "interrupt", interrupt_window);
  if (capacity_factor != 1.0)
    out.push_back(strprintf("--fault-capacity-factor=%.17g", capacity_factor));
  window_to_flags(out, "capacity", capacity_window);
  if (gil_handoff_delay_cycles != 0)
    out.push_back("--fault-handoff-delay=" +
                  std::to_string(gil_handoff_delay_cycles));
  window_to_flags(out, "handoff", handoff_window);
  return out;
}

FaultInjector::FaultInjector(const FaultConfig& config, u32 num_cpus)
    : config_(config), num_cpus_(num_cpus) {
  GILFREE_CHECK(num_cpus_ > 0);
  reset();
}

void FaultInjector::reset() {
  rng_.clear();
  Rng seeder(config_.seed);
  for (u32 i = 0; i < num_cpus_; ++i) rng_.push_back(seeder.split());
  next_spurious_.assign(num_cpus_, 0);
  stats_ = FaultStats{};
  storm_counted_ = false;
}

void FaultInjector::inject(FaultKind kind, CpuId cpu, Cycles now) {
  ++stats_.injected[static_cast<std::size_t>(kind)];
  if (listener_) listener_->on_fault_injected(kind, cpu, now);
}

bool FaultInjector::begin_fault(CpuId cpu, i32 yp, Cycles now) {
  // Arm the spurious-arrival clock lazily: sampled once per idle→active
  // transition, like the facility's own interrupt clock.
  if (config_.spurious_mean_cycles != 0 && next_spurious_.at(cpu) <= now) {
    next_spurious_[cpu] =
        now + static_cast<Cycles>(rng_.at(cpu).next_exponential(
                  static_cast<double>(config_.spurious_mean_cycles)));
  }
  if (config_.persistent_enabled() && config_.persistent_window.contains(now) &&
      config_.persistent_targets(yp)) {
    inject(FaultKind::kPersistent, cpu, now);
    return true;
  }
  return false;
}

bool FaultInjector::spurious_due(CpuId cpu, Cycles now) {
  if (config_.spurious_mean_cycles == 0) return false;
  if (now < next_spurious_.at(cpu)) return false;
  // Resample the next arrival whether or not the window retains this one,
  // so toggling the window does not perturb the arrival process.
  next_spurious_[cpu] =
      now + static_cast<Cycles>(rng_.at(cpu).next_exponential(
                static_cast<double>(config_.spurious_mean_cycles)));
  if (!config_.spurious_window.contains(now)) return false;
  inject(FaultKind::kSpurious, cpu, now);
  return true;
}

Cycles FaultInjector::interrupt_mean(CpuId cpu, Cycles now, Cycles base) {
  if (config_.interrupt_storm_mean_cycles == 0 ||
      !config_.interrupt_window.contains(now)) {
    return base;
  }
  if (!storm_counted_) {
    storm_counted_ = true;
    inject(FaultKind::kInterruptStorm, cpu, now);
  }
  return config_.interrupt_storm_mean_cycles;
}

double FaultInjector::capacity_factor(Cycles now) const {
  if (config_.capacity_factor >= 1.0 ||
      !config_.capacity_window.contains(now)) {
    return 1.0;
  }
  return config_.capacity_factor;
}

bool FaultInjector::capacity_active(Cycles now) const {
  return config_.capacity_factor < 1.0 && config_.capacity_window.contains(now);
}

void FaultInjector::capacity_clip(CpuId cpu, Cycles now) {
  inject(FaultKind::kCapacity, cpu, now);
}

Cycles FaultInjector::gil_handoff_delay(CpuId cpu, Cycles now) {
  if (config_.gil_handoff_delay_cycles == 0 ||
      !config_.handoff_window.contains(now)) {
    return 0;
  }
  inject(FaultKind::kHandoffDelay, cpu, now);
  return config_.gil_handoff_delay_cycles;
}

}  // namespace gilfree::fault
