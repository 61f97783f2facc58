// fault::Invariants — a continuous safety-property checker for the
// orchestration stack. Attached to the Orchestrator's round hook it runs
// after every controller evaluation (and once more at end of run via
// check_now()), asserting:
//
//  * capacity     — no link's allocated flow sum exceeds its capacity
//                   (beyond float tolerance);
//  * placement    — no UP component sits on a failed node (cordoned-only
//                   nodes are legal hosts: drain leaves pinned components
//                   in place by design);
//  * accounting   — per-node cluster usage equals the sum of resources of
//                   the UP components placed there, i.e. allocate/release
//                   pairs never leak;
//  * cooldown     — consecutive controller-initiated moves of one
//                   component start >= min_migration_gap apart;
//  * pair-rule    — controller moves starting in the same round never take
//                   both endpoints of a communicating edge (Algorithm 3's
//                   anti-cascade rule), and per-round controller moves stay
//                   within max_migrations_per_round;
//  * journal      — every MigrationEvent has its MigrationCompleted journal
//                   record (checked only while the journal has dropped
//                   nothing).
//
// Violations are counted, logged, and journalled as obs::InvariantViolation
// events; tests assert violations() == 0 to hard-fail.
//
// Per-pass cost follows live state, not history: a pass is
// O(live deployments' components + nodes + links + journal events and
// migration events appended since the previous pass). Placement and
// accounting walk Orchestrator::up_deployments() — the deployments with at
// least one component up, maintained by Orchestrator::set_up, the only
// writer of a component's up flag — so closed deployments cost nothing.
// Placement returns at once while no node is failed. The journal check
// keeps a running MigrationCompleted count and visits only the events
// recorded since its last pass. The pass is timed as fault.invariants_us.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/orchestrator.h"
#include "obs/recorder.h"

namespace bass::fault {

struct InvariantConfig {
  // Relative slack on the capacity check (float accumulation in the
  // allocator's per-link sums).
  double capacity_rel_slack = 1e-6;
  // Absolute slack floor, bps.
  double capacity_abs_slack = 1000.0;
  // Verify journal MigrationCompleted records against migration_events().
  bool check_journal = true;
};

class Invariants {
 public:
  explicit Invariants(core::Orchestrator& orchestrator,
                      obs::Recorder* recorder = nullptr,
                      InvariantConfig config = {});
  Invariants(const Invariants&) = delete;
  Invariants& operator=(const Invariants&) = delete;

  // Installs this checker as the orchestrator's round hook (replacing any
  // previous hook). The orchestrator must outlive the checker.
  void attach();

  // Runs every check now; returns the number of NEW violations found.
  int check_now();

  // Invoked once per violation, after it is counted and journalled — the
  // flight recorder's dump trigger (scenario wires dump_once() in here).
  void set_violation_hook(std::function<void(const char*, const std::string&)> hook) {
    violation_hook_ = std::move(hook);
  }

  // Total violations since construction.
  int violations() const { return violations_; }

 private:
  void check_capacity();
  void check_placement();
  void check_accounting();
  void check_migration_discipline();
  void check_journal_consistency();
  void violate(const char* name, const std::string& detail);

  core::Orchestrator* orch_;
  obs::Recorder* recorder_;
  obs::Counter* m_violations_ = nullptr;
  InvariantConfig config_;
  std::function<void(const char*, const std::string&)> violation_hook_;
  int violations_ = 0;
  int violations_at_pass_start_ = 0;

  // Incremental migration-discipline state: events before next_migration_
  // have been consumed.
  std::size_t next_migration_ = 0;
  // (deployment, component) -> start time of its last controller move.
  std::map<std::pair<int, int>, sim::Time> last_controller_start_;
  // (deployment, round start time) -> components the controller moved.
  std::map<std::pair<int, sim::Time>, std::vector<int>> round_moves_;

  // Incremental journal state: MigrationCompleted records among the first
  // journal_scanned_ events ever recorded.
  std::size_t journal_scanned_ = 0;
  std::size_t journal_completed_ = 0;

  // Accounting scratch, indexed by NodeId and reused across passes.
  std::vector<cluster::NodeUsage> expected_usage_;
};

}  // namespace bass::fault
