#include "sim/simulation.h"

#include <algorithm>
#include <utility>

namespace bass::sim {

EventId Simulation::schedule_after(Duration delay, std::function<void()> fn) {
  return schedule_at(now_ + std::max<Duration>(delay, 0), std::move(fn));
}

EventId Simulation::schedule_at(Time at, std::function<void()> fn) {
  return queue_.push(std::max(at, now_), std::move(fn));
}

EventId Simulation::schedule_periodic(Duration period, std::function<void()> fn) {
  std::uint32_t slot;
  if (!free_periodics_.empty()) {
    slot = free_periodics_.back();
    free_periodics_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(periodics_.size());
    periodics_.emplace_back();
  }
  Periodic& p = periodics_[slot];
  p.period = period;
  p.fn = std::move(fn);
  p.live = true;
  const EventId handle = (static_cast<EventId>(p.generation) << 32) | slot;
  arm_periodic(handle);
  return handle;
}

Simulation::Periodic* Simulation::find_periodic(EventId handle) {
  const auto slot = static_cast<std::uint32_t>(handle);
  if (slot >= periodics_.size()) return nullptr;
  Periodic& p = periodics_[slot];
  if (!p.live || p.generation != static_cast<std::uint32_t>(handle >> 32)) return nullptr;
  return &p;
}

void Simulation::arm_periodic(EventId handle) {
  Periodic* p = find_periodic(handle);
  if (p == nullptr) return;
  p->current_event =
      schedule_after(p->period, [this, handle] { fire_periodic(handle); });
}

void Simulation::fire_periodic(EventId handle) {
  Periodic* p = find_periodic(handle);
  if (p == nullptr) return;
  // Run the callback from a local: it may cancel this task, and tasks it
  // schedules may take over the slot or grow the slot vector.
  std::function<void()> fn = std::move(p->fn);
  fn();
  p = find_periodic(handle);
  if (p == nullptr) return;  // cancelled by its own callback
  p->fn = std::move(fn);
  arm_periodic(handle);
}

bool Simulation::cancel_periodic(EventId handle) {
  Periodic* p = find_periodic(handle);
  if (p == nullptr) return false;
  if (p->current_event != kInvalidEvent) queue_.cancel(p->current_event);
  p->fn = nullptr;
  p->current_event = kInvalidEvent;
  p->live = false;
  if (++p->generation == 0) p->generation = 1;
  free_periodics_.push_back(static_cast<std::uint32_t>(handle));
  return true;
}

void Simulation::run_until(Time deadline) {
  while (!queue_.empty() && queue_.next_time() <= deadline) {
    now_ = queue_.next_time();
    queue_.pop_and_run();
  }
  now_ = std::max(now_, deadline);
}

void Simulation::run_all() {
  while (!queue_.empty()) {
    now_ = queue_.next_time();
    queue_.pop_and_run();
  }
}

}  // namespace bass::sim
