#include "cpu/thread_overhead.h"

#include <memory>
#include <utility>

#include "cpu/host_core.h"

namespace ntier::cpu {
namespace {

// Bundled tick state: the recurring GC event captures one shared_ptr so
// the closure stays within the EventFn inline budget.
struct GcState {
  sim::Simulation* sim;
  VmCpu* vm;
  ThreadOverheadModel model;
  std::function<std::size_t()> busy;
};

void tick(const std::shared_ptr<GcState>& st) {
  const auto pause = st->model.gc_pause(st->busy());
  if (pause > sim::Duration::zero()) st->vm->freeze_for(pause);
  st->sim->after(st->model.gc_interval, [st] { tick(st); });
}

}  // namespace

void arm_gc(sim::Simulation& sim, VmCpu& vm, const ThreadOverheadModel& model,
            std::function<std::size_t()> busy_threads) {
  if (model.gc_interval <= sim::Duration::zero()) return;
  auto st = std::make_shared<GcState>(
      GcState{&sim, &vm, model, std::move(busy_threads)});
  sim.after(model.gc_interval, [st] { tick(st); });
}

}  // namespace ntier::cpu
