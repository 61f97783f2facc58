#include "fault/invariants.h"

#include <algorithm>
#include <variant>

#include "util/logging.h"
#include "util/strings.h"

namespace bass::fault {

Invariants::Invariants(core::Orchestrator& orchestrator, obs::Recorder* recorder,
                       InvariantConfig config)
    : orch_(&orchestrator), recorder_(recorder), config_(config) {
  if (recorder_ != nullptr) {
    m_violations_ = &recorder_->metrics().counter("fault.invariant_violations");
  }
}

void Invariants::attach() {
  orch_->set_round_hook([this](core::DeploymentId) { check_now(); });
}

int Invariants::check_now() {
  BASS_OBS_SCOPE("fault.invariants_us");
  violations_at_pass_start_ = violations_;
  check_capacity();
  check_placement();
  check_accounting();
  check_migration_discipline();
  check_journal_consistency();
  return violations_ - violations_at_pass_start_;
}

void Invariants::violate(const char* name, const std::string& detail) {
  ++violations_;
  util::log_warn() << "INVARIANT VIOLATION [" << name << "] " << detail;
  if (recorder_ != nullptr) {
    m_violations_->inc();
    obs::InvariantViolation violation;
    violation.at = orch_->simulation().now();
    violation.name = name;
    violation.detail = detail;
    violation.span = recorder_->new_span();
    // Round-hook checks run inside the controller round's span scope, so
    // the violation points at the round whose state it caught.
    violation.parent = recorder_->current_span();
    recorder_->record(std::move(violation));
  }
  if (violation_hook_) violation_hook_(name, detail);
}

void Invariants::check_capacity() {
  net::Network& network = orch_->network();
  const net::Topology& topology = network.topology();
  for (int l = 0; l < topology.link_count(); ++l) {
    const double capacity = static_cast<double>(topology.link(l).capacity);
    const double allocated = static_cast<double>(network.link_allocated(l));
    const double slack = std::max(capacity * config_.capacity_rel_slack,
                                  config_.capacity_abs_slack);
    if (allocated > capacity + slack) {
      violate("link_overallocated",
              util::str_format("link%d allocated %.0f bps > capacity %.0f bps", l,
                               allocated, capacity));
    }
  }
}

void Invariants::check_placement() {
  // Only a failed node can host a violation.
  if (orch_->failed_nodes().empty()) return;
  for (core::DeploymentId id : orch_->up_deployments()) {
    const app::AppGraph& app = orch_->app(id);
    for (app::ComponentId c = 0; c < app.component_count(); ++c) {
      if (!orch_->is_up(id, c)) continue;
      const net::NodeId node = orch_->node_of(id, c);
      if (orch_->node_failed(node)) {
        violate("component_on_failed_node",
                util::str_format("'%s' (dep %d) is up on failed node%d",
                                 app.component(c).name.c_str(), id, node));
      }
    }
  }
}

void Invariants::check_accounting() {
  // Expected usage per node: resources of every UP component placed there.
  std::fill(expected_usage_.begin(), expected_usage_.end(), cluster::NodeUsage{});
  for (core::DeploymentId id : orch_->up_deployments()) {
    const app::AppGraph& app = orch_->app(id);
    for (app::ComponentId c = 0; c < app.component_count(); ++c) {
      if (!orch_->is_up(id, c)) continue;
      const auto& comp = app.component(c);
      if (comp.cpu_milli <= 0 && comp.memory_mb <= 0) continue;
      const net::NodeId node = orch_->node_of(id, c);
      if (node < 0) continue;  // unplaced: no cluster node to charge
      if (static_cast<std::size_t>(node) >= expected_usage_.size()) {
        expected_usage_.resize(static_cast<std::size_t>(node) + 1);
      }
      auto& u = expected_usage_[static_cast<std::size_t>(node)];
      u.cpu_milli += comp.cpu_milli;
      u.memory_mb += comp.memory_mb;
    }
  }
  const cluster::ClusterState& cluster = orch_->cluster();
  for (net::NodeId node : cluster.nodes()) {
    const cluster::NodeUsage& actual = cluster.usage(node);
    const cluster::NodeUsage want = static_cast<std::size_t>(node) < expected_usage_.size()
                                        ? expected_usage_[static_cast<std::size_t>(node)]
                                        : cluster::NodeUsage{};
    if (actual.cpu_milli != want.cpu_milli || actual.memory_mb != want.memory_mb) {
      violate("resource_accounting",
              util::str_format(
                  "node%d usage (%lld mcpu, %lld MiB) != placed components "
                  "(%lld mcpu, %lld MiB)",
                  node, static_cast<long long>(actual.cpu_milli),
                  static_cast<long long>(actual.memory_mb),
                  static_cast<long long>(want.cpu_milli),
                  static_cast<long long>(want.memory_mb)));
    }
  }
}

void Invariants::check_migration_discipline() {
  const auto& events = orch_->migration_events();
  for (; next_migration_ < events.size(); ++next_migration_) {
    const core::MigrationEvent& ev = events[next_migration_];
    if (ev.reason != core::MoveReason::kController) continue;
    const controller::MigrationParams* params = orch_->migration_params(ev.deployment);
    const std::pair<int, int> comp_key{ev.deployment, ev.component};

    // Cooldown: consecutive controller moves of one component must start at
    // least min_migration_gap apart.
    auto last = last_controller_start_.find(comp_key);
    if (last != last_controller_start_.end() && params != nullptr &&
        ev.started_at - last->second < params->min_migration_gap) {
      violate("migration_cooldown",
              util::str_format(
                  "dep %d component %d controller-moved %.1f s after the "
                  "previous move (min gap %.1f s)",
                  ev.deployment, ev.component,
                  sim::to_seconds(ev.started_at - last->second),
                  sim::to_seconds(params->min_migration_gap)));
    }
    last_controller_start_[comp_key] = ev.started_at;

    // Pair rule + round cap: controller moves starting at the same instant
    // belong to one evaluation round.
    auto& round = round_moves_[{ev.deployment, ev.started_at}];
    const app::AppGraph& app = orch_->app(ev.deployment);
    for (int other : round) {
      const bool communicate =
          std::any_of(app.edges().begin(), app.edges().end(), [&](const app::Edge& e) {
            return (e.from == ev.component && e.to == other) ||
                   (e.from == other && e.to == ev.component);
          });
      if (communicate) {
        violate("pair_rule",
                util::str_format(
                    "dep %d moved both endpoints of edge %d<->%d in one round",
                    ev.deployment, other, ev.component));
      }
    }
    round.push_back(ev.component);
    if (params != nullptr && params->max_migrations_per_round > 0 &&
        static_cast<int>(round.size()) > params->max_migrations_per_round) {
      violate("round_cap",
              util::str_format("dep %d started %d controller moves in one round "
                               "(cap %d)",
                               ev.deployment, static_cast<int>(round.size()),
                               params->max_migrations_per_round));
    }
  }
}

void Invariants::check_journal_consistency() {
  if (!config_.check_journal || recorder_ == nullptr || !recorder_->enabled()) return;
  const obs::EventJournal& journal = recorder_->journal();
  // A full ring has forgotten its oldest events; the count check is only
  // meaningful while nothing was dropped.
  if (journal.dropped() > 0) return;
  // Nothing dropped, so every event since the previous pass is still in
  // the ring: count only those.
  journal.for_each_from(journal_scanned_, [this](const obs::Event& e) {
    if (std::holds_alternative<obs::MigrationCompleted>(e)) ++journal_completed_;
  });
  journal_scanned_ = journal.recorded();
  const std::size_t events = orch_->migration_events().size();
  if (journal_completed_ != events) {
    violate("journal_migrations",
            util::str_format("journal has %zu migration_completed records but "
                             "migration_events() has %zu entries",
                             journal_completed_, events));
  }
}

}  // namespace bass::fault
