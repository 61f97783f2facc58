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
// Cost model. A pass runs after every controller evaluation (a city round
// runs one per live deployment), so it costs O(nodes + journal and
// migration events appended since the last pass), plus O(links) only after
// the network changed, and walks no deployment while no node is failed:
//  * capacity   — skips the link scan while Network::allocation_version()
//                 is unchanged and reports the last scan's violations again,
//                 so violations() and the journal match a full scan;
//  * placement  — returns at once while no node is failed;
//  * accounting — compares Orchestrator::expected_usage(), which set_up
//                 keeps current, with ClusterState::usage node by node;
//  * journal    — visits only the events recorded since the last pass.
// check_now() (run by World::stop() at end of run) also re-sums every up
// component from the placements and reports a node where the re-sum and
// the expected-usage table disagree as resource_accounting. A pass is
// timed as fault.invariants_us.
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

  // Runs every check now, with the full accounting re-sum; returns the
  // number of NEW violations found.
  int check_now();
  // The pass the round hook runs: every check, with accounting read from
  // the orchestrator's expected-usage table only. Returns NEW violations.
  int check_round();

  // Invoked once per violation, after it is counted and journalled — the
  // flight recorder's dump trigger (scenario wires dump_once() in here).
  void set_violation_hook(std::function<void(const char*, const std::string&)> hook) {
    violation_hook_ = std::move(hook);
  }

  // Total violations since construction.
  int violations() const { return violations_; }

 private:
  int run_pass(bool full);
  void check_capacity();
  void check_placement();
  void check_accounting(bool full);
  void check_migration_discipline();
  void check_journal_consistency();
  void violate(const char* name, const std::string& detail);

  core::Orchestrator* orch_;
  obs::Recorder* recorder_;
  obs::Counter* m_violations_ = nullptr;
  InvariantConfig config_;
  std::function<void(const char*, const std::string&)> violation_hook_;
  int violations_ = 0;

  // The allocation version of the last link scan and the links it found
  // overallocated, in link order.
  struct Overallocated {
    net::LinkId link;
    double allocated;
    double capacity;
  };
  std::int64_t scanned_version_ = -1;
  std::vector<Overallocated> overallocated_;

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

  // Full-pass re-sum scratch, indexed by NodeId and reused across passes.
  std::vector<cluster::NodeUsage> resummed_;
};

}  // namespace bass::fault
