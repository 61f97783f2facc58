// The BASS orchestrator: the "k3s server + BASS extensions" of Fig. 7.
// It owns deployments (app DAG + current placement + component up/down
// state), schedules with any of the three schedulers, and — when migration
// is enabled — runs the bandwidth-controller loop: read passive traffic
// stats and the net-monitor's capacity cache, apply Algorithm 3, pick a
// target node, and execute the move with a realistic restart outage.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "app/app_graph.h"
#include "cluster/cluster.h"
#include "controller/migration_policy.h"
#include "monitor/net_monitor.h"
#include "monitor/traffic_stats.h"
#include "net/network.h"
#include "obs/recorder.h"
#include "sched/bass_scheduler.h"
#include "sched/placement.h"
#include "sim/simulation.h"
#include "util/expected.h"

namespace bass::core {

enum class SchedulerKind { kBassBfs, kBassLongestPath, kBassAuto, kK3sDefault };

const char* scheduler_kind_name(SchedulerKind kind);

struct OrchestratorConfig {
  // Outage while a component is rescheduled and restarted — ~20 s for the
  // mesh experiments (§6.3.2), ~30 s in the microbenchmarks (§6.2.3).
  sim::Duration restart_duration = sim::seconds(20);
};

using DeploymentId = int;
constexpr DeploymentId kInvalidDeployment = -1;

// Workload engines implement this to follow their components around.
class DeploymentListener {
 public:
  virtual ~DeploymentListener() = default;
  virtual void on_component_down(app::ComponentId component) { (void)component; }
  virtual void on_component_up(app::ComponentId component, net::NodeId node) {
    (void)component;
    (void)node;
  }
};

// Why a component moved — carried on migration events and journal records
// so the invariant checker can apply controller-only rules (cooldown, pair
// rule) without flagging failovers and drains.
enum class MoveReason {
  kManual,      // experiment called migrate()
  kController,  // bandwidth-controller decision (Algorithm 3)
  kDrain,       // operator drain
  kFailover,    // restart after a node failure
  kRestart,     // down/up in place (Fig. 14(a))
};

const char* move_reason_name(MoveReason reason);

struct MigrationEvent {
  sim::Time at;  // when the move completed (component back up)
  DeploymentId deployment;
  app::ComponentId component;
  net::NodeId from;
  net::NodeId to;
  sim::Time started_at = 0;  // when the component went down for the move
  MoveReason reason = MoveReason::kManual;
};

// One controller evaluation round (Table 1's rows).
struct ControllerRound {
  sim::Time at;
  int violating_components;  // exceeding their link utilization quota
  int migrations_started;
};

class Orchestrator {
 public:
  Orchestrator(sim::Simulation& sim, net::Network& network,
               cluster::ClusterState& cluster, OrchestratorConfig config = {});
  ~Orchestrator();
  Orchestrator(const Orchestrator&) = delete;
  Orchestrator& operator=(const Orchestrator&) = delete;

  // With a monitor attached, scheduling and the controller use its probe
  // cache (the real BASS deployment); without one they fall back to live
  // topology capacities (useful for oracle experiments and tests).
  void attach_monitor(monitor::NetMonitor* monitor) { monitor_ = monitor; }

  // Attaches the run's recorder: deploys journal ScheduleDecision (with
  // wall-clock placement latency), moves journal MigrationStarted/
  // MigrationCompleted (every entry in migration_events() has a matching
  // completed event), controller rounds journal ControllerRound, and
  // migration downtime / placement latency feed registry histograms.
  // nullptr detaches.
  void set_recorder(obs::Recorder* recorder);

  // ---- Deployment lifecycle ----
  // `instance` optionally names the deployment for duplicate detection: a
  // second deploy with the name of a still-active instance is rejected (and
  // journals an orchestrator_warning) instead of silently double-applying
  // resources. Empty skips the check — anonymous one-shot experiments keep
  // their historical behavior.
  util::Expected<DeploymentId> deploy(app::AppGraph app, SchedulerKind kind,
                                      const std::string& instance = "");

  // First-class departure: marks every live component down (listeners see
  // on_component_down and close their streams), releases the node resources
  // deploy acquired, cancels the controller loop and any in-flight moves
  // (their bring-up lambdas become no-ops), and journals a typed
  // DeploymentClosed event. Returns false — with a journaled warning — when
  // `id` is unknown or already undeployed. DeploymentIds are never reused.
  bool undeploy(DeploymentId id);

  // False once undeploy(id) ran (ids stay valid for read accessors).
  bool deployment_active(DeploymentId id) const;
  // Active deployment with this instance name, or kInvalidDeployment.
  DeploymentId find_instance(const std::string& instance) const;
  int live_deployment_count() const { return live_deployments_; }
  // Deployments with at least one component up, in ascending id order.
  // A deployment with nothing up hosts nothing and holds no resources, so
  // walking this set visits exactly what a scan over every id ever issued
  // would act on — at a cost that follows live state, not history.
  const std::set<DeploymentId>& up_deployments() const { return up_deployments_; }

  // Deploys with a caller-chosen placement (experiments reproducing the
  // paper's fixed initial deployments, e.g. "Pion server on node 2").
  // Validates resource fit; does NOT check bandwidth feasibility — that is
  // the experimenter's prerogative.
  util::Expected<DeploymentId> deploy_with_placement(app::AppGraph app,
                                                     sched::Placement placement);

  const app::AppGraph& app(DeploymentId id) const;
  const sched::Placement& placement(DeploymentId id) const;
  net::NodeId node_of(DeploymentId id, app::ComponentId component) const;
  bool is_up(DeploymentId id, app::ComponentId component) const;
  void add_listener(DeploymentId id, DeploymentListener* listener);

  // Passive per-pair traffic counters for this deployment; workload engines
  // record into it, the controller reads from it.
  monitor::TrafficStats& traffic_stats(DeploymentId id);

  // Rewrites the profiled bandwidth requirement of one deployed edge — the
  // online-profiling extension (§8) feeds re-measured requirements back so
  // the controller and rescheduler reason about reality instead of the
  // developer's offline estimate. Returns false if no such edge exists.
  bool update_edge_bandwidth(DeploymentId id, app::ComponentId from,
                             app::ComponentId to, net::Bps bandwidth);

  // ---- Migration ----
  void enable_migration(DeploymentId id, controller::MigrationParams params);
  void disable_migration(DeploymentId id);

  // Manual move (used by experiments); true if the migration started.
  bool migrate(DeploymentId id, app::ComponentId component, net::NodeId target,
               MoveReason reason = MoveReason::kManual);

  // kubectl-drain for the mesh: cordons `node` and migrates every live,
  // unpinned component hosted there (across all deployments) to its best
  // alternative. Community meshes lose nodes to power and weather; drain
  // is how an operator empties one gracefully before it goes. Returns the
  // number of migrations started (pinned or unplaceable components stay
  // and are logged).
  int drain_node(net::NodeId node);

  // Abrupt *compute* failure: the node is cordoned, every component it
  // hosted drops instantly (no graceful handoff, checkpoints on the dead
  // node are lost), and after `detection_delay` the orchestrator cold-
  // restarts each one on a surviving node — pinned components wait for
  // their node to come back — retrying periodically while placement is
  // infeasible. The node's radios keep relaying — this models the common
  // mesh failure of a dead compute board behind a live router. A real
  // network partition (the paper scopes those out, §3.1) is modelled
  // separately by fault::Injector downing the member links via
  // Network::set_link_down, so compute and connectivity fail independently.
  void fail_node(net::NodeId node, sim::Duration detection_delay = sim::seconds(10));
  // The failed node's board was replaced / rebooted: uncordons it and makes
  // it schedulable again. Components pinned there rejoin on their next
  // recovery retry; unpinned work drifts back only when the controller or
  // an operator moves it. Also usable as a plain uncordon after drain_node.
  void recover_node(net::NodeId node);
  bool node_failed(net::NodeId node) const { return failed_nodes_.count(node) != 0; }
  const std::set<net::NodeId>& failed_nodes() const { return failed_nodes_; }
  // Down/up in place — the Fig. 14(a) restart-overhead experiment.
  void restart_component(DeploymentId id, app::ComponentId component);

  const std::vector<MigrationEvent>& migration_events() const { return migrations_; }
  const std::vector<ControllerRound>& controller_rounds(DeploymentId id) const;
  int deployment_count() const { return static_cast<int>(deployments_.size()); }
  // Controller parameters while migration is enabled, else nullptr.
  const controller::MigrationParams* migration_params(DeploymentId id) const;

  // Invoked after every controller evaluation round with the deployment id
  // — the fault::Invariants checker hooks in here.
  void set_round_hook(std::function<void(DeploymentId)> hook) {
    round_hook_ = std::move(hook);
  }

  sim::Simulation& simulation() { return *sim_; }
  net::Network& network() { return *network_; }
  cluster::ClusterState& cluster() { return *cluster_; }

 private:
  struct Deployment {
    app::AppGraph app{"unset"};
    std::string instance;        // duplicate-detection name ("" = anonymous)
    bool active = true;          // false after undeploy
    sim::Time deployed_at = 0;
    sched::Placement placement;
    std::vector<bool> up;  // written only through Orchestrator::set_up
    int up_count = 0;      // number of true entries in `up`
    std::vector<DeploymentListener*> listeners;
    monitor::TrafficStats stats;
    // Controller state (valid while migration is enabled):
    bool migration_enabled = false;
    controller::MigrationParams params;
    std::unique_ptr<controller::CooldownTracker> cooldown;
    sim::EventId controller_tick = sim::kInvalidEvent;
    std::vector<ControllerRound> rounds;
  };

  Deployment& dep(DeploymentId id);
  const Deployment& dep(DeploymentId id) const;
  // The single writer of Deployment::up: flips one component's state and
  // keeps up_count and up_deployments_ in step with it.
  void set_up(DeploymentId id, app::ComponentId component, bool up);
  // Registers a freshly built deployment: assigns its id, brings every
  // component up, and indexes it as live.
  DeploymentId add_deployment(std::unique_ptr<Deployment> d);
  // Journals an OrchestratorWarning (`what` must be a static literal).
  void warn(const char* what, DeploymentId id, net::NodeId node);
  // The scheduler's view of the mesh: monitor cache when attached.
  std::unique_ptr<sched::NetworkView> make_view() const;
  void controller_evaluate(DeploymentId id);
  // Executes a move; `target` may equal the current node (pure restart).
  void execute_move(DeploymentId id, app::ComponentId component, net::NodeId target,
                    MoveReason reason);
  // Post-failure placement retry loop (see fail_node). `went_down` is when
  // the component dropped (journalled downtime spans the whole outage);
  // `span`/`parent` carry the move's causal identity through the retries so
  // the eventual MigrationCompleted matches its MigrationStarted.
  void recover_component(DeploymentId id, app::ComponentId component,
                         net::NodeId failed_node, sim::Time went_down,
                         obs::SpanId span, obs::SpanId parent);
  // Appends to migrations_ and journals the matching MigrationCompleted.
  void note_migration_done(DeploymentId id, app::ComponentId component,
                           net::NodeId from, net::NodeId to, sim::Time went_down,
                           MoveReason reason, obs::SpanId span,
                           obs::SpanId parent);

  sim::Simulation* sim_;
  net::Network* network_;
  cluster::ClusterState* cluster_;
  monitor::NetMonitor* monitor_ = nullptr;
  obs::Recorder* recorder_ = nullptr;
  obs::LogHistogram* m_place_us_ = nullptr;
  obs::LogHistogram* m_decision_us_ = nullptr;
  obs::Histogram* m_downtime_ms_ = nullptr;
  OrchestratorConfig config_;
  std::vector<std::unique_ptr<Deployment>> deployments_;
  std::set<DeploymentId> up_deployments_;
  // Active deployments: named ones by instance, plus the total count.
  std::map<std::string, DeploymentId> active_instances_;
  int live_deployments_ = 0;
  std::vector<MigrationEvent> migrations_;
  std::set<net::NodeId> failed_nodes_;
  std::function<void(DeploymentId)> round_hook_;
};

}  // namespace bass::core
