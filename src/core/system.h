// NTierSystem: the paper's 3-tier testbed, fully built.
//
// Adds to the shared run runtime (core/testbed.h) the hosts/VMs/disk,
// the three tier servers (chosen by Architecture), and the optional
// SysBursty interference tenant, collectl log flusher, GC freeze or
// DVFS governor. This is the public entry point a downstream user
// builds experiments with; `scenarios.h` provides the paper's canned
// configurations.
#pragma once

#include <array>
#include <memory>

#include "core/config.h"
#include "core/testbed.h"
#include "cpu/dvfs.h"
#include "cpu/host_core.h"
#include "cpu/io_device.h"
#include "monitor/collectl.h"
#include "server/server_base.h"
#include "workload/sysbursty.h"

namespace ntier::core {

// The paper's 3-tier testbed: web, app and db tiers on their own hosts,
// front to back in the Testbed's flat tier list (the db disk on the db
// tier), plus the millibottleneck source.
class NTierSystem : public Testbed {
 public:
  // Builds the whole stack from a validated config; non-copyable (all
  // components hold pointers into this system's Simulation).
  explicit NTierSystem(ExperimentConfig cfg);

  // --- access ------------------------------------------------------------
  const ExperimentConfig& config() const { return cfg_; }
  server::Server* tier(Tier t) { return servers_[index(t)].get(); }
  const server::Server* tier(Tier t) const { return servers_[index(t)].get(); }
  server::Server* web() { return tier(Tier::kWeb); }
  server::Server* app() { return tier(Tier::kApp); }
  server::Server* db() { return tier(Tier::kDb); }
  // Steady VM of a tier ("apache"/"nginx", "tomcat"/"xtomcat", ...).
  cpu::VmCpu* tier_vm(Tier t) { return vms_[index(t)]; }
  const cpu::VmCpu* tier_vm(Tier t) const { return vms_[index(t)]; }
  cpu::VmCpu* bursty_vm() { return bursty_vm_; }
  cpu::IoDevice* db_disk() { return db_disk_.get(); }
  const cpu::IoDevice* db_disk() const { return db_disk_.get(); }

  // The optional millibottleneck sources (null when the config doesn't
  // enable them).
  workload::InterferenceLoad* interference() { return interference_.get(); }
  const workload::InterferenceLoad* interference() const { return interference_.get(); }
  monitor::Collectl* collectl() { return collectl_.get(); }
  cpu::FreezeInjector* gc_injector() { return gc_.get(); }
  cpu::DvfsGovernor* dvfs() { return dvfs_.get(); }

  // The request-class profile the system was built with.
  const server::AppProfile& profile() const { return cfg_.profile; }

 private:
  void build_hosts();
  void build_servers();
  void build_bottleneck();

  ExperimentConfig cfg_;

  std::array<std::unique_ptr<cpu::HostCpu>, 3> hosts_;
  std::array<cpu::VmCpu*, 3> vms_{};
  cpu::VmCpu* bursty_vm_ = nullptr;
  std::unique_ptr<cpu::IoDevice> db_disk_;

  std::array<std::unique_ptr<server::Server>, 3> servers_;

  std::unique_ptr<workload::InterferenceLoad> interference_;
  std::unique_ptr<monitor::Collectl> collectl_;
  std::unique_ptr<cpu::FreezeInjector> gc_;
  std::unique_ptr<cpu::DvfsGovernor> dvfs_;
};

}  // namespace ntier::core
