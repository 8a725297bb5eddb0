// Byte pins of the processor-sharing CPU model (src/cpu/host_core.h).
//
// Seeded submit, freeze and set_capacity schedules run on two hosts: a
// shared one (weights 1 and 20, more than 100 jobs on one VM, many jobs
// tied on equal completion targets) and a dedicated 2-vCPU one. Every
// completion callback captures a PoolRef, the capture shape of the
// servers' CPU steps, and submits the next jobs from inside the
// completion, to the same VM or the other. Each case pins (size,
// FNV-1a-64) of the (job id, completion µs) sequence, plus every VM's
// busy, demand and stalled seconds. A change to how the CPU model
// stores, orders or re-arms its jobs must leave both unchanged.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "cpu/host_core.h"
#include "helpers.h"
#include "sim/format.h"
#include "sim/random.h"
#include "sim/simulation.h"
#include "sim/slab_pool.h"

namespace ntier::cpu {
namespace {

using sim::Duration;

// One submitted job, reached from its completion callback by a PoolRef.
struct JobTag {
  std::uint64_t id = 0;
  std::size_t vm = 0;
};

sim::SlabPool<JobTag>& tag_pool() {
  thread_local sim::SlabPool<JobTag> pool;
  return pool;
}

// Demand menu in µs: repeated values, and jobs submitted together, give
// equal completion targets whose order only the submit sequence breaks.
constexpr std::int64_t kDemandsUs[] = {0, 40, 200, 200, 500, 500, 1000, 3000};

// Drives one host with a seeded schedule until `budget` jobs have been
// submitted, then lets everything drain.
class Driver {
 public:
  Driver(sim::Simulation& sim, HostCpu& host, std::uint64_t seed, std::uint64_t budget,
         std::vector<double> capacities)
      : sim_(sim), host_(host), rng_(seed), budget_(budget),
        capacities_(std::move(capacities)) {
    for (const auto& vm : host.vms()) vms_.push_back(vm.get());
  }

  // Submits `n` jobs of one demand to VM `vm` at this instant.
  void submit(std::size_t vm, std::int64_t demand_us, int n = 1) {
    for (int i = 0; i < n && submitted_ < budget_; ++i) {
      ++submitted_;
      sim::PoolRef<JobTag> tag = tag_pool().make(JobTag{next_id_++, vm});
      vms_[vm]->submit(Duration::micros(demand_us), [this, tag] { done(*tag); });
      peak_ = std::max(peak_, vms_[vm]->active_jobs());
    }
  }

  // Arms the external schedule: bursts, freezes and capacity changes.
  void start() { sim_.after(Duration::micros(700), [this] { external(); }); }

  const std::string& log() const { return log_; }
  std::size_t peak() const { return peak_; }
  std::uint64_t ties() const { return ties_; }
  std::uint64_t completions() const { return completions_; }

  // Every VM's busy, demand and stalled seconds, exactly.
  std::string accounting() {
    std::string out;
    for (VmCpu* vm : vms_) {
      sim::appendf(out, "%s busy=%.17g demand=%.17g stalled=%.17g\n", vm->name().c_str(),
                   vm->busy_core_seconds(), vm->demand_seconds(), vm->stalled_seconds());
    }
    sim::appendf(out, "host busy=%.17g\n", host_.total_busy_core_seconds());
    return out;
  }

 private:
  std::int64_t demand() { return kDemandsUs[rng_.next_u64() % std::size(kDemandsUs)]; }

  // A completion: log it, then submit the next work from inside the
  // callback — usually to the same VM, sometimes a tied pair, sometimes
  // to the other VM.
  void done(const JobTag& t) {
    const std::int64_t now_us = sim_.now().count_micros();
    if (now_us == last_us_ && t.vm == last_vm_) ++ties_;
    last_us_ = now_us;
    last_vm_ = t.vm;
    ++completions_;
    sim::appendf(log_, "%llu %lld\n", static_cast<unsigned long long>(t.id),
                 static_cast<long long>(now_us));
    const std::uint64_t r = rng_.next_u64() % 8;
    if (r < 5) {
      submit(t.vm, demand());
    } else if (r < 7) {
      submit(t.vm, demand(), 2);
    } else {
      submit((t.vm + 1) % vms_.size(), demand());
    }
  }

  void external() {
    if (submitted_ >= budget_) return;
    const std::uint64_t r = rng_.next_u64() % 10;
    const std::size_t vm = rng_.next_u64() % vms_.size();
    if (r < 4) {
      submit(vm, demand(), 1 + static_cast<int>(rng_.next_u64() % 4));
    } else if (r < 7) {
      vms_[vm]->freeze_for(Duration::micros(100 + static_cast<std::int64_t>(
                                                      rng_.next_u64() % 4000)));
    } else {
      host_.set_capacity(capacities_[rng_.next_u64() % capacities_.size()]);
    }
    sim_.after(Duration::micros(1 + static_cast<std::int64_t>(rng_.next_u64() % 3000)),
               [this] { external(); });
  }

  sim::Simulation& sim_;
  HostCpu& host_;
  std::vector<VmCpu*> vms_;
  sim::Rng rng_;
  std::uint64_t budget_;
  std::vector<double> capacities_;
  std::uint64_t next_id_ = 0;
  std::uint64_t submitted_ = 0;
  std::uint64_t completions_ = 0;
  std::size_t peak_ = 0;
  std::uint64_t ties_ = 0;
  std::int64_t last_us_ = -1;
  std::size_t last_vm_ = 0;
  std::string log_;
};

TEST(HostCpuPin, SharedHostWeightsOneAndTwenty) {
  sim::Simulation sim;
  HostCpu host(sim, 1.0);
  host.add_vm("steady", 2, 1.0);
  host.add_vm("noisy", 1, 20.0);
  Driver d(sim, host, 0x5eed1, 6000, {0.5, 1.0, 1.0, 1.5});
  // 120 jobs on the weight-1 VM at once, in tied pairs of one demand.
  for (int i = 0; i < 60; ++i) d.submit(0, kDemandsUs[1 + i % 7], 2);
  d.submit(1, 500, 3);
  d.start();
  sim.run_all();

  EXPECT_EQ(d.completions(), 6000u);
  EXPECT_GT(d.peak(), 100u);
  EXPECT_GT(d.ties(), 500u);
  EXPECT_EQ(test::pin(d.log()), "74916:7e41b7a1082ef204");
  EXPECT_EQ(d.accounting(),
            "steady busy=1.6794044523809522 demand=4.3817000000000075 "
            "stalled=0.45404200000000028\n"
            "noisy busy=2.5232280476190478 demand=3.2796140000000031 "
            "stalled=0.40179599999999982\n"
            "host busy=4.2026325\n");
}

TEST(HostCpuPin, DedicatedTwoVcpuHost) {
  sim::Simulation sim;
  HostCpu host(sim, 2.0);
  host.add_vm("solo", 2, 1.0);
  Driver d(sim, host, 0x5eed2, 4000, {1.0, 2.0, 2.0, 1.25});
  for (int i = 0; i < 8; ++i) d.submit(0, kDemandsUs[1 + i % 7], 2);
  d.start();
  sim.run_all();

  EXPECT_EQ(d.completions(), 4000u);
  EXPECT_GT(d.ties(), 200u);
  EXPECT_EQ(test::pin(d.log()), "48858:71e571e4e764f91c");
  EXPECT_EQ(d.accounting(),
            "solo busy=2.7372682499999952 demand=2.8503549999999969 "
            "stalled=0.52544800000000058\n"
            "host busy=2.7372682499999952\n");
}

}  // namespace
}  // namespace ntier::cpu
