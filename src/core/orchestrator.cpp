#include "core/orchestrator.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <set>

#include "sched/k3s_scheduler.h"
#include "sched/rescheduler.h"
#include "util/logging.h"
#include "util/strings.h"

namespace bass::core {

namespace {

// Pinned zero-footprint pseudo-components (client attachment points) take
// no node resources — they may sit on cordoned/client-only nodes.
bool needs_resources(const app::Component& comp) {
  return comp.cpu_milli > 0 || comp.memory_mb > 0;
}

}  // namespace

const char* scheduler_kind_name(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kBassBfs: return "bass-bfs";
    case SchedulerKind::kBassLongestPath: return "bass-longest-path";
    case SchedulerKind::kBassAuto: return "bass-auto";
    case SchedulerKind::kK3sDefault: return "k3s-default";
  }
  return "?";
}

const char* move_reason_name(MoveReason reason) {
  switch (reason) {
    case MoveReason::kManual: return "manual";
    case MoveReason::kController: return "controller";
    case MoveReason::kDrain: return "drain";
    case MoveReason::kFailover: return "failover";
    case MoveReason::kRestart: return "restart";
  }
  return "?";
}

Orchestrator::Orchestrator(sim::Simulation& sim, net::Network& network,
                           cluster::ClusterState& cluster, OrchestratorConfig config)
    : sim_(&sim), network_(&network), cluster_(&cluster), config_(config) {}

Orchestrator::~Orchestrator() {
  for (auto& d : deployments_) {
    if (d->controller_tick != sim::kInvalidEvent) {
      sim_->cancel_periodic(d->controller_tick);
    }
  }
}

Orchestrator::Deployment& Orchestrator::dep(DeploymentId id) {
  return *deployments_.at(static_cast<std::size_t>(id));
}

const Orchestrator::Deployment& Orchestrator::dep(DeploymentId id) const {
  return *deployments_.at(static_cast<std::size_t>(id));
}

void Orchestrator::warn(const char* what, DeploymentId id, net::NodeId node) {
  if (recorder_ == nullptr) return;
  obs::OrchestratorWarning w;
  w.at = sim_->now();
  w.what = what;
  w.deployment = id;
  w.node = node;
  w.span = recorder_->new_span();
  w.parent = recorder_->current_span();
  recorder_->record(w);
}

void Orchestrator::set_recorder(obs::Recorder* recorder) {
  recorder_ = recorder;
  if (recorder == nullptr) {
    m_place_us_ = nullptr;
    m_decision_us_ = nullptr;
    m_downtime_ms_ = nullptr;
    return;
  }
  m_place_us_ = &recorder->metrics().log_timer_us("sched.place_us");
  m_decision_us_ = &recorder->metrics().log_timer_us("orchestrator.decision_us");
  m_downtime_ms_ = &recorder->metrics().histogram(
      "orchestrator.migration_downtime_ms",
      {1, 10, 100, 1000, 5000, 10000, 20000, 30000, 60000, 120000});
}

std::unique_ptr<sched::NetworkView> Orchestrator::make_view() const {
  if (monitor_ != nullptr) {
    return std::make_unique<monitor::MonitorNetworkView>(*monitor_);
  }
  return std::make_unique<sched::LiveNetworkView>(*network_);
}

util::Expected<DeploymentId> Orchestrator::deploy(app::AppGraph app, SchedulerKind kind,
                                                  const std::string& instance) {
  if (!instance.empty() && find_instance(instance) != kInvalidDeployment) {
    // Double-applying would reserve the app's resources a second time under
    // the same identity; reject loudly instead.
    warn("duplicate_deployment", find_instance(instance), net::kInvalidNode);
    util::log_warn() << "deploy: instance '" << instance << "' is already active";
    return util::make_error("instance '" + instance + "' is already deployed");
  }
  // A pinned component can only run on its own node. While that node is
  // down the app cannot be placed; the admission queue retries it later.
  for (app::ComponentId c = 0; c < app.component_count(); ++c) {
    const auto& pinned = app.component(c).pinned_node;
    if (pinned && failed_nodes_.count(*pinned) != 0) {
      return util::make_error(util::str_format("pinned node %d is down", *pinned));
    }
  }
  const auto view = make_view();
  std::unique_ptr<sched::Scheduler> scheduler;
  switch (kind) {
    case SchedulerKind::kBassBfs:
      scheduler = std::make_unique<sched::BassScheduler>(sched::Heuristic::kBreadthFirst);
      break;
    case SchedulerKind::kBassLongestPath:
      scheduler = std::make_unique<sched::BassScheduler>(sched::Heuristic::kLongestPath);
      break;
    case SchedulerKind::kBassAuto:
      scheduler = std::make_unique<sched::BassScheduler>(sched::Heuristic::kAuto);
      break;
    case SchedulerKind::kK3sDefault:
      scheduler = std::make_unique<sched::K3sScheduler>();
      break;
  }

  const auto t0 = std::chrono::steady_clock::now();
  auto result = scheduler->schedule(app, *cluster_, *view);
  const double place_us = std::chrono::duration<double, std::micro>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
  if (recorder_ != nullptr) {
    m_place_us_->observe(place_us);
    obs::ScheduleDecision decision;
    decision.at = sim_->now();
    decision.deployment = static_cast<int>(deployments_.size());
    decision.scheduler = scheduler->name();
    decision.components = app.component_count();
    decision.place_us = place_us;
    decision.success = result.ok();
    decision.span = recorder_->new_span();
    decision.parent = recorder_->current_span();
    if (result.ok()) {
      decision.crossing_bps = sched::crossing_bandwidth(app, result.value());
    }
    recorder_->record(std::move(decision));
  }
  if (!result.ok()) return util::make_error(result.error());

  auto d = std::make_unique<Deployment>();
  d->app = std::move(app);
  d->instance = instance;
  d->deployed_at = sim_->now();
  d->placement = result.take();
  for (const auto& [component, node] : d->placement) {
    const auto& comp = d->app.component(component);
    if (!needs_resources(comp)) continue;
    const bool ok = cluster_->allocate(node, comp.cpu_milli, comp.memory_mb);
    assert(ok && "scheduler produced an infeasible placement");
    (void)ok;
  }

  const DeploymentId id = add_deployment(std::move(d));
  util::log_info() << "deployed '" << deployments_.back()->app.name() << "' with "
                   << scheduler_kind_name(kind);
  return id;
}

util::Expected<DeploymentId> Orchestrator::deploy_with_placement(
    app::AppGraph app, sched::Placement placement) {
  std::string error;
  if (!app.validate(&error)) return util::make_error(error);
  for (app::ComponentId c = 0; c < app.component_count(); ++c) {
    const auto& comp = app.component(c);
    if (comp.pinned_node) placement[c] = *comp.pinned_node;
    if (!placement.count(c)) {
      return util::make_error("manual placement misses component '" + comp.name + "'");
    }
  }
  // All-or-nothing resource reservation.
  std::vector<std::pair<net::NodeId, app::ComponentId>> reserved;
  for (const auto& [component, node] : placement) {
    const auto& comp = app.component(component);
    if (!needs_resources(comp)) continue;
    if (!cluster_->allocate(node, comp.cpu_milli, comp.memory_mb)) {
      for (const auto& [n, c] : reserved) {
        const auto& rc = app.component(c);
        cluster_->release(n, rc.cpu_milli, rc.memory_mb);
      }
      return util::make_error("node cannot fit component '" + comp.name + "'");
    }
    reserved.emplace_back(node, component);
  }

  auto d = std::make_unique<Deployment>();
  d->app = std::move(app);
  d->deployed_at = sim_->now();
  d->placement = std::move(placement);
  const DeploymentId id = add_deployment(std::move(d));
  if (recorder_ != nullptr) {
    const Deployment& placed = *deployments_.back();
    obs::ScheduleDecision decision;
    decision.at = sim_->now();
    decision.deployment = id;
    decision.scheduler = "manual";
    decision.components = placed.app.component_count();
    decision.crossing_bps = sched::crossing_bandwidth(placed.app, placed.placement);
    decision.success = true;
    decision.span = recorder_->new_span();
    decision.parent = recorder_->current_span();
    recorder_->record(std::move(decision));
  }
  return id;
}

const app::AppGraph& Orchestrator::app(DeploymentId id) const { return dep(id).app; }

const sched::Placement& Orchestrator::placement(DeploymentId id) const {
  return dep(id).placement;
}

net::NodeId Orchestrator::node_of(DeploymentId id, app::ComponentId component) const {
  return sched::node_of(dep(id).placement, component);
}

bool Orchestrator::is_up(DeploymentId id, app::ComponentId component) const {
  return dep(id).up.at(static_cast<std::size_t>(component));
}

void Orchestrator::add_listener(DeploymentId id, DeploymentListener* listener) {
  dep(id).listeners.push_back(listener);
}

monitor::TrafficStats& Orchestrator::traffic_stats(DeploymentId id) {
  return dep(id).stats;
}

bool Orchestrator::update_edge_bandwidth(DeploymentId id, app::ComponentId from,
                                         app::ComponentId to, net::Bps bandwidth) {
  return dep(id).app.set_edge_bandwidth(from, to, bandwidth);
}

bool Orchestrator::deployment_active(DeploymentId id) const {
  return id >= 0 && id < static_cast<DeploymentId>(deployments_.size()) &&
         dep(id).active;
}

DeploymentId Orchestrator::find_instance(const std::string& instance) const {
  if (instance.empty()) return kInvalidDeployment;
  const auto it = active_instances_.find(instance);
  return it == active_instances_.end() ? kInvalidDeployment : it->second;
}

DeploymentId Orchestrator::add_deployment(std::unique_ptr<Deployment> d) {
  const auto id = static_cast<DeploymentId>(deployments_.size());
  const app::ComponentId components = d->app.component_count();
  d->up.assign(static_cast<std::size_t>(components), false);
  if (!d->instance.empty()) active_instances_[d->instance] = id;
  ++live_deployments_;
  deployments_.push_back(std::move(d));
  for (app::ComponentId c = 0; c < components; ++c) set_up(id, c, true);
  return id;
}

void Orchestrator::set_up(DeploymentId id, app::ComponentId component, bool up) {
  Deployment& d = dep(id);
  auto slot = d.up.at(static_cast<std::size_t>(component));
  if (slot == up) return;
  slot = up;
  if (up) {
    if (d.up_count++ == 0) up_deployments_.insert(id);
  } else if (--d.up_count == 0) {
    up_deployments_.erase(id);
  }
}

bool Orchestrator::undeploy(DeploymentId id) {
  if (!deployment_active(id)) {
    warn("undeploy_inactive", id, net::kInvalidNode);
    util::log_warn() << "undeploy: deployment " << id << " is not active";
    return false;
  }
  Deployment& d = dep(id);
  // Stop the controller first so no new moves start mid-teardown; in-flight
  // bring-up/recovery callbacks check `active` and become no-ops.
  disable_migration(id);
  int torn_down = 0;
  for (app::ComponentId c = 0; c < d.app.component_count(); ++c) {
    if (!d.up[static_cast<std::size_t>(c)]) continue;  // mid-move: already released
    const auto& comp = d.app.component(c);
    set_up(id, c, false);
    if (needs_resources(comp)) {
      cluster_->release(node_of(id, c), comp.cpu_milli, comp.memory_mb);
    }
    for (DeploymentListener* l : d.listeners) l->on_component_down(c);
    ++torn_down;
  }
  d.active = false;
  if (!d.instance.empty()) active_instances_.erase(d.instance);
  --live_deployments_;
  d.listeners.clear();
  util::log_info() << "undeployed '" << d.app.name() << "' (" << torn_down
                   << " components)";
  if (recorder_ != nullptr) {
    obs::DeploymentClosed closed;
    closed.at = sim_->now();
    closed.deployment = id;
    closed.components = torn_down;
    closed.lifetime = sim_->now() - d.deployed_at;
    closed.span = recorder_->new_span();
    closed.parent = recorder_->current_span();
    recorder_->record(closed);
  }
  return true;
}

void Orchestrator::enable_migration(DeploymentId id, controller::MigrationParams params) {
  Deployment& d = dep(id);
  if (d.migration_enabled) disable_migration(id);
  d.migration_enabled = true;
  d.params = params;
  d.cooldown = std::make_unique<controller::CooldownTracker>(params);
  d.controller_tick = sim_->schedule_periodic(
      params.evaluation_interval, [this, id] { controller_evaluate(id); });
}

void Orchestrator::disable_migration(DeploymentId id) {
  Deployment& d = dep(id);
  if (!d.migration_enabled) return;
  d.migration_enabled = false;
  sim_->cancel_periodic(d.controller_tick);
  d.controller_tick = sim::kInvalidEvent;
  d.cooldown.reset();
}

const std::vector<ControllerRound>& Orchestrator::controller_rounds(DeploymentId id) const {
  return dep(id).rounds;
}

const controller::MigrationParams* Orchestrator::migration_params(DeploymentId id) const {
  const Deployment& d = dep(id);
  return d.migration_enabled ? &d.params : nullptr;
}

void Orchestrator::controller_evaluate(DeploymentId id) {
  Deployment& d = dep(id);
  if (!d.active) return;  // tick raced an undeploy in the same round
  const auto view = make_view();
  const sim::Time now = sim_->now();

  // Every round gets a span up front (ids from the deterministic counter,
  // so same-seed runs match) and holds it as the current cause for the
  // whole evaluation: migrations started below, reallocations the network
  // solves for them, and anything the round hook journals (invariant
  // violations) all get parent = this round.
  const obs::SpanId round_span =
      recorder_ != nullptr ? recorder_->new_span() : obs::kNoSpan;
  obs::SpanScope round_scope(recorder_, round_span);
  const auto wall_start = std::chrono::steady_clock::now();

  // Observations for every mesh-crossing edge between live components.
  std::vector<controller::EdgeObservation> observations;
  std::vector<std::pair<net::NodeId, net::NodeId>> endpoints;  // parallel to obs
  for (const app::Edge& e : d.app.edges()) {
    if (!is_up(id, e.from) || !is_up(id, e.to)) continue;
    const net::NodeId a = node_of(id, e.from);
    const net::NodeId b = node_of(id, e.to);
    const auto window = d.stats.take_window(e.from, e.to, now);
    if (a == b) continue;  // colocated pairs never violate
    controller::EdgeObservation obs;
    obs.from = e.from;
    obs.to = e.to;
    obs.required = e.bandwidth;
    obs.measured = window.delivered;
    obs.offered = window.offered;
    obs.path_capacity = view->path_capacity(a, b);
    observations.push_back(obs);
    endpoints.emplace_back(a, b);
  }

  // Headroom state per path, from two passive signals (§4.2/§4.3):
  //  * probed — the net-monitor could not push its spare-capacity probe
  //    through ("when a change is detected in the available headroom"), and
  //  * usage — the deployment's own measured traffic leaves less than
  //    headroom_frac of a link's capacity free ("the component uses the
  //    link to the extent that the headroom on the link shrinks even
  //    without capacity change on the link"). Pair traffic flows both ways
  //    (requests and responses), so it is charged to both directions.
  std::vector<double> link_usage(static_cast<std::size_t>(view->link_count()), 0.0);
  for (std::size_t i = 0; i < observations.size(); ++i) {
    const auto [a, b] = endpoints[i];
    for (net::LinkId l : view->path(a, b)) {
      link_usage[static_cast<std::size_t>(l)] += static_cast<double>(observations[i].measured);
    }
    for (net::LinkId l : view->path(b, a)) {
      link_usage[static_cast<std::size_t>(l)] += static_cast<double>(observations[i].measured);
    }
  }
  auto link_headroom_ok = [&](net::LinkId l) {
    if (monitor_ != nullptr && !monitor_->headroom_ok(l)) return false;
    const double capacity = static_cast<double>(view->link_capacity(l));
    return link_usage[static_cast<std::size_t>(l)] <=
           capacity * (1.0 - d.params.headroom_frac);
  };
  for (std::size_t i = 0; i < observations.size(); ++i) {
    const auto [a, b] = endpoints[i];
    for (net::LinkId l : view->path(a, b)) {
      if (!link_headroom_ok(l)) {
        observations[i].path_headroom_ok = false;
        break;
      }
    }
    util::log_debug() << "obs t=" << sim::to_seconds(now) << " "
                      << d.app.component(observations[i].from).name << "->"
                      << d.app.component(observations[i].to).name
                      << " req=" << observations[i].required
                      << " meas=" << observations[i].measured
                      << " off=" << observations[i].offered
                      << " cap=" << observations[i].path_capacity
                      << " hdroom_ok=" << observations[i].path_headroom_ok
                      << " violates="
                      << controller::edge_violates(observations[i], d.params);
  }

  // Pre-dedup violating component set (Table 1's "components exceeding
  // link utilization quota") and the violating-pair adjacency, used below
  // to substitute a partner when a chosen candidate has nowhere to go.
  std::set<app::ComponentId> violating;
  std::vector<std::pair<app::ComponentId, app::ComponentId>> violating_pairs;
  for (const auto& obs : observations) {
    if (!controller::edge_violates(obs, d.params)) continue;
    if (!d.app.component(obs.from).pinned_node) violating.insert(obs.from);
    if (!d.app.component(obs.to).pinned_node) violating.insert(obs.to);
    violating_pairs.emplace_back(obs.from, obs.to);
  }

  const auto candidates =
      controller::select_migration_candidates(d.app, observations, d.params);

  // Cooldown state tracks *violation* persistence (a component deduped
  // away this round is still violating — its timer must keep running so it
  // can substitute for an unplaceable partner).
  std::set<app::ComponentId> eligible;
  for (app::ComponentId c = 0; c < d.app.component_count(); ++c) {
    if (d.cooldown->should_migrate(c, violating.count(c) != 0, now)) {
      eligible.insert(c);
    }
  }
  // Execute in candidate (heaviest-first) order, capped per round.
  std::vector<app::ComponentId> cleared;
  for (app::ComponentId c : candidates) {
    if (eligible.count(c)) cleared.push_back(c);
  }

  std::set<app::ComponentId> moved_this_round;
  int started = 0;
  for (app::ComponentId c : cleared) {
    if (d.params.max_migrations_per_round > 0 &&
        started >= d.params.max_migrations_per_round) {
      break;
    }
    if (moved_this_round.count(c)) continue;
    app::ComponentId mover = c;
    auto target = sched::pick_migration_target(d.app, d.placement, c, *cluster_, *view);
    if (!target) {
      // The pair rule held this candidate's partners back; moving a partner
      // *instead* (never in addition) is allowed and often feasible when
      // the primary is not (§3.2.2 only forbids moving both).
      for (const auto& [from, to] : violating_pairs) {
        if (from != c && to != c) continue;
        const app::ComponentId partner = (from == c) ? to : from;
        if (partner == c || moved_this_round.count(partner)) continue;
        if (d.app.component(partner).pinned_node) continue;
        if (!eligible.count(partner)) continue;
        target = sched::pick_migration_target(d.app, d.placement, partner, *cluster_,
                                              *view);
        if (target) {
          mover = partner;
          break;
        }
      }
    }
    if (!target) {
      util::log_warn() << "no feasible migration target for '"
                       << d.app.component(c).name << "' or its partners";
      continue;
    }
    d.cooldown->note_migration(mover, now);
    if (migrate(id, mover, *target, MoveReason::kController)) {
      ++started;
      moved_this_round.insert(mover);
      // The pair rule: the partner(s) of a moved component stay put.
      for (const auto& [from, to] : violating_pairs) {
        if (from == mover) moved_this_round.insert(to);
        if (to == mover) moved_this_round.insert(from);
      }
    }
  }

  if (recorder_ != nullptr) {
    // Decision latency covers the full evaluation — observations, headroom
    // math, candidate selection, and starting the moves — for every round,
    // including the quiet ones: p99 over only busy rounds would flatter us.
    m_decision_us_->observe(std::chrono::duration<double, std::micro>(
                                std::chrono::steady_clock::now() - wall_start)
                                .count());
  }
  if (!violating.empty() || started > 0) {
    d.rounds.push_back({now, static_cast<int>(violating.size()), started});
    if (recorder_ != nullptr) {
      obs::ControllerRound round;
      round.at = now;
      round.deployment = id;
      round.violating = static_cast<int>(violating.size());
      round.migrations_started = started;
      round.span = round_span;
      recorder_->record(round);
    }
  }
  if (round_hook_) round_hook_(id);
}

void Orchestrator::note_migration_done(DeploymentId id, app::ComponentId component,
                                       net::NodeId from, net::NodeId to,
                                       sim::Time went_down, MoveReason reason,
                                       obs::SpanId span, obs::SpanId parent) {
  const sim::Time now = sim_->now();
  migrations_.push_back({now, id, component, from, to,
                         went_down >= 0 ? went_down : now, reason});
  if (recorder_ == nullptr) return;
  const sim::Duration downtime = went_down >= 0 ? now - went_down : 0;
  m_downtime_ms_->observe(sim::to_millis(downtime));
  // Same span as the MigrationStarted: started/completed are two ends of
  // one move, and the shared id is what `bassctl journal query --span`
  // stitches them back together with.
  recorder_->record(obs::MigrationCompleted{now, id, component, from, to, downtime,
                                            move_reason_name(reason), span, parent});
}

bool Orchestrator::migrate(DeploymentId id, app::ComponentId component,
                           net::NodeId target, MoveReason reason) {
  Deployment& d = dep(id);
  if (!is_up(id, component)) return false;
  if (d.app.component(component).pinned_node) return false;
  if (target == node_of(id, component)) return false;
  execute_move(id, component, target, reason);
  return true;
}

int Orchestrator::drain_node(net::NodeId node) {
  cluster_->set_schedulable(node, false);
  const auto view = make_view();
  int started = 0;
  // Moves below take components down, which can drop their deployment
  // from up_deployments_ mid-walk: iterate a snapshot (ascending ids).
  const std::vector<DeploymentId> live(up_deployments_.begin(), up_deployments_.end());
  for (DeploymentId id : live) {
    Deployment& d = dep(id);
    for (app::ComponentId c = 0; c < d.app.component_count(); ++c) {
      if (!is_up(id, c) || node_of(id, c) != node) continue;
      if (d.app.component(c).pinned_node) {
        util::log_warn() << "drain: '" << d.app.component(c).name
                         << "' is pinned to node" << node << " and cannot move";
        continue;
      }
      const auto target = sched::pick_migration_target(d.app, d.placement, c,
                                                       *cluster_, *view);
      if (!target) {
        util::log_warn() << "drain: no target for '" << d.app.component(c).name
                         << "'";
        continue;
      }
      if (migrate(id, c, *target, MoveReason::kDrain)) ++started;
    }
  }
  return started;
}

void Orchestrator::fail_node(net::NodeId node, sim::Duration detection_delay) {
  if (failed_nodes_.count(node)) {
    // Idempotent, but loudly so: double-failing used to be silent, which
    // hid injector/scenario bugs that fired the same crash twice.
    warn("node_already_failed", kInvalidDeployment, node);
    util::log_warn() << "fail_node: node" << node << " is already down";
    return;
  }
  failed_nodes_.insert(node);
  cluster_->set_schedulable(node, false);
  int dropped = 0;
  // Dropping components edits up_deployments_: walk a snapshot of it.
  const std::vector<DeploymentId> live(up_deployments_.begin(), up_deployments_.end());
  for (DeploymentId id : live) {
    Deployment& d = dep(id);
    for (app::ComponentId c = 0; c < d.app.component_count(); ++c) {
      if (!is_up(id, c) || node_of(id, c) != node) continue;
      const auto& comp = d.app.component(c);
      set_up(id, c, false);
      if (comp.cpu_milli > 0 || comp.memory_mb > 0) {
        cluster_->release(node, comp.cpu_milli, comp.memory_mb);
      }
      for (DeploymentListener* l : d.listeners) l->on_component_down(c);
      ++dropped;
      // Recovery after detection + cold restart; retries internally while
      // the cluster is too full.
      const sim::Time went_down = sim_->now();
      obs::SpanId span = obs::kNoSpan;
      obs::SpanId parent = obs::kNoSpan;
      if (recorder_ != nullptr) {
        // Outage begins now; the landing node is unknown until recovery.
        // When the fault injector triggered this failure, its fault span is
        // the current cause and becomes this move's parent.
        span = recorder_->new_span();
        parent = recorder_->current_span();
        recorder_->record(obs::MigrationStarted{
            went_down, id, c, node, net::kInvalidNode,
            move_reason_name(MoveReason::kFailover), span, parent});
      }
      sim_->schedule_after(detection_delay + config_.restart_duration,
                           [this, id, c, node, went_down, span, parent] {
                             recover_component(id, c, node, went_down, span,
                                               parent);
                           });
    }
  }
  util::log_info() << "node" << node << " failed; " << dropped << " components dropped";
}

void Orchestrator::recover_node(net::NodeId node) {
  failed_nodes_.erase(node);
  cluster_->set_schedulable(node, true);
  util::log_info() << "node" << node << " recovered (schedulable again)";
}

void Orchestrator::recover_component(DeploymentId id, app::ComponentId component,
                                     net::NodeId failed_node, sim::Time went_down,
                                     obs::SpanId span, obs::SpanId parent) {
  Deployment& d = dep(id);
  // The deployment departed while this component was waiting out its
  // outage: stop the retry loop instead of reviving a ghost.
  if (!d.active) return;
  const auto& comp = d.app.component(component);
  auto retry = [this, id, component, failed_node, went_down, span, parent] {
    sim_->schedule_after(
        sim::seconds(30), [this, id, component, failed_node, went_down, span, parent] {
          recover_component(id, component, failed_node, went_down, span, parent);
        });
  };
  if (comp.pinned_node) {
    // Pinned components can only live on their node: wait for it to come
    // back (recover_node), then restart in place.
    const net::NodeId pinned = *comp.pinned_node;
    if (failed_nodes_.count(pinned) != 0 ||
        (needs_resources(comp) &&
         !cluster_->allocate(pinned, comp.cpu_milli, comp.memory_mb))) {
      util::log_warn() << "'" << comp.name << "' is pinned to down node"
                       << pinned << "; retrying";
      retry();
      return;
    }
    d.placement[component] = pinned;
    set_up(id, component, true);
    note_migration_done(id, component, failed_node, pinned, went_down,
                        MoveReason::kFailover, span, parent);
    for (DeploymentListener* l : d.listeners) l->on_component_up(component, pinned);
    return;
  }
  const auto view = make_view();
  const auto target =
      sched::pick_migration_target(d.app, d.placement, component, *cluster_, *view);
  if (target && cluster_->allocate(*target, comp.cpu_milli, comp.memory_mb)) {
    d.placement[component] = *target;
    set_up(id, component, true);
    note_migration_done(id, component, failed_node, *target, went_down,
                        MoveReason::kFailover, span, parent);
    for (DeploymentListener* l : d.listeners) l->on_component_up(component, *target);
    return;
  }
  util::log_warn() << "no surviving node for '" << comp.name << "'; retrying";
  retry();
}

void Orchestrator::restart_component(DeploymentId id, app::ComponentId component) {
  if (!is_up(id, component)) return;
  execute_move(id, component, node_of(id, component), MoveReason::kRestart);
}

void Orchestrator::execute_move(DeploymentId id, app::ComponentId component,
                                net::NodeId target, MoveReason reason) {
  Deployment& d = dep(id);
  const net::NodeId from = node_of(id, component);
  const auto& comp = d.app.component(component);

  set_up(id, component, false);
  cluster_->release(from, comp.cpu_milli, comp.memory_mb);
  for (DeploymentListener* l : d.listeners) l->on_component_down(component);
  util::log_info() << "moving '" << comp.name << "' node" << from << " -> node"
                   << target << " (restart " << sim::to_seconds(config_.restart_duration)
                   << " s, state " << comp.state_mb << " MiB)";
  const sim::Time went_down = sim_->now();
  obs::SpanId span = obs::kNoSpan;
  obs::SpanId parent = obs::kNoSpan;
  if (recorder_ != nullptr) {
    // A controller-round scope (or a fault scope, for injector-driven
    // moves) is open right now; capture it as the move's cause before the
    // asynchronous bring-up outlives it.
    span = recorder_->new_span();
    parent = recorder_->current_span();
    recorder_->record(obs::MigrationStarted{went_down, id, component, from, target,
                                            move_reason_name(reason), span, parent});
  }

  auto bring_up = [this, id, component, from, target, went_down, reason, span,
                   parent] {
    Deployment& d2 = dep(id);
    if (!d2.active) return;  // undeployed mid-move: the migration is void
    const auto& c2 = d2.app.component(component);
    net::NodeId final_target = target;
    if (needs_resources(c2) &&
        !cluster_->allocate(final_target, c2.cpu_milli, c2.memory_mb)) {
      // The target filled up while we were moving; fall back to the old
      // node, which we know fit the component a restart ago.
      final_target = from;
      if (!cluster_->allocate(final_target, c2.cpu_milli, c2.memory_mb)) {
        // Both ends are gone — the old node failed or was cordoned while
        // the move was in flight (the chaos case). Fall into the failure
        // retry loop instead of reviving the component on a dead node.
        util::log_warn() << "'" << c2.name
                         << "' lost both move endpoints; entering recovery";
        recover_component(id, component, from, went_down, span, parent);
        return;
      }
    }
    d2.placement[component] = final_target;
    set_up(id, component, true);
    note_migration_done(id, component, from, final_target, went_down, reason, span,
                        parent);
    for (DeploymentListener* l : d2.listeners) {
      l->on_component_up(component, final_target);
    }
  };

  // Stateful components ship their checkpoint across the mesh first (§8);
  // the restart timer runs only once the state has landed. The transfer is
  // real traffic, so migrating a fat component loads the very links the
  // migration is trying to relieve.
  if (comp.state_mb > 0 && target != from) {
    network_->start_transfer(from, target, comp.state_mb * 1024 * 1024,
                             [this, bring_up = std::move(bring_up)] {
                               sim_->schedule_after(config_.restart_duration,
                                                    bring_up);
                             });
  } else {
    sim_->schedule_after(config_.restart_duration, std::move(bring_up));
  }
}

}  // namespace bass::core
