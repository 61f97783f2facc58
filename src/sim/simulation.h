// The simulation driver: a virtual clock plus the event queue. Everything in
// the repository (network, workloads, monitors, controllers) schedules
// callbacks here; running the simulation advances virtual time with zero
// wall-clock dependence.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/event_queue.h"
#include "sim/time.h"

namespace bass::sim {

class Simulation {
 public:
  Time now() const { return now_; }

  // Schedules `fn` after `delay` (clamped to >= 0). Returns a cancel handle.
  EventId schedule_after(Duration delay, std::function<void()> fn);

  // Schedules `fn` at absolute time `at` (clamped to >= now).
  EventId schedule_at(Time at, std::function<void()> fn);

  bool cancel(EventId id) { return queue_.cancel(id); }

  // Repeats `fn` every `period` starting at now + period, until the returned
  // handle is cancelled via cancel_periodic(). Handles are generation-tagged
  // slot ids ((generation << 32) | slot), like Network's stream ids: a stale
  // or repeated cancel_periodic is a no-op returning false, and no handle
  // equals kInvalidEvent.
  EventId schedule_periodic(Duration period, std::function<void()> fn);
  // Periodic tasks re-arm themselves, so the live EventId changes every
  // tick; cancel them through this API instead of cancel(). A callback may
  // cancel its own task.
  bool cancel_periodic(EventId handle);

  // Runs events until the queue drains or the next event is past `deadline`.
  // The clock lands exactly on `deadline`.
  void run_until(Time deadline);

  // Runs events until the queue is fully drained.
  void run_all();

  bool idle() const { return queue_.empty(); }
  std::size_t pending_events() const { return queue_.size(); }
  // True when a live event is scheduled at or before `deadline` — the
  // activity probe gated orchestration uses to distinguish "this world
  // would do something this round" from "run_until would only move the
  // clock". Non-const: peeking compacts cancelled tombstones.
  bool has_event_before(Time deadline) {
    return !queue_.empty() && queue_.next_time() <= deadline;
  }
  // Lazily-cancelled entries awaiting heap compaction; bounded by
  // pending_events() (see EventQueue::cancelled_backlog).
  std::size_t cancelled_backlog() const { return queue_.cancelled_backlog(); }

 private:
  struct Periodic {
    Duration period = 0;
    std::function<void()> fn;
    EventId current_event = kInvalidEvent;
    std::uint32_t generation = 1;  // never 0, so no handle is kInvalidEvent
    bool live = false;
  };

  // The live task `handle` names, or nullptr when it is stale.
  Periodic* find_periodic(EventId handle);
  void arm_periodic(EventId handle);
  void fire_periodic(EventId handle);

  EventQueue queue_;
  Time now_ = 0;
  std::vector<Periodic> periodics_;  // by slot
  std::vector<std::uint32_t> free_periodics_;
};

}  // namespace bass::sim
