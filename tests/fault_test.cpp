// Fault-injection subsystem: plan parsing/generation determinism, the
// injector's end-to-end effect on a scenario (crash -> recover round trip,
// probe loss, link-down overlays), and the invariant checker's ability to
// catch deliberately corrupted state.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "app/app_graph.h"
#include "cluster/cluster.h"
#include "core/orchestrator.h"
#include "fault/injector.h"
#include "fault/invariants.h"
#include "fault/plan.h"
#include "monitor/net_monitor.h"
#include "net/network.h"
#include "obs/journal.h"
#include "obs/recorder.h"
#include "scenario/scenario.h"
#include "sim/simulation.h"
#include "util/ini.h"
#include "util/logging.h"
#include "util/rng.h"

namespace bass::fault {
namespace {

// ---- Plan parsing ----

struct ParseRig {
  net::Topology topo;
  std::vector<std::string> names{"a", "b", "c"};

  ParseRig() {
    for (const auto& n : names) topo.add_node(n);
    topo.add_link(0, 1, net::mbps(20));
    topo.add_link(1, 2, net::mbps(20));
    topo.add_link(0, 2, net::mbps(20));
  }

  NodeResolver resolver() const {
    return [this](const std::string& name) -> net::NodeId {
      const auto it = std::find(names.begin(), names.end(), name);
      return it == names.end() ? net::kInvalidNode
                               : static_cast<net::NodeId>(it - names.begin());
    };
  }

  util::Expected<FaultPlan> parse(const std::string& text) const {
    auto ini = util::parse_ini(text);
    EXPECT_TRUE(ini.ok()) << (ini.ok() ? "" : ini.error());
    return parse_fault_plan(ini.value(), resolver(), topo);
  }
};

int count_kind(const FaultPlan& plan, FaultKind kind) {
  return static_cast<int>(std::count_if(
      plan.actions.begin(), plan.actions.end(),
      [kind](const FaultAction& a) { return a.kind == kind; }));
}

TEST(FaultPlan, ParsesScriptedSectionsAndExpandsCompoundFaults) {
  ParseRig rig;
  auto plan = rig.parse(R"(
[fault node_crash a]
at_s = 10
duration_s = 20
detection_delay_s = 5
[fault link_down a b]
at_s = 5
[fault link_flap b c]
start_s = 0
end_s = 60
period_s = 30
duty = 0.5
[fault partition c]
at_s = 40
duration_s = 10
[fault probe_loss]
at_s = 0
rate = 0.25
seed = 9
)");
  ASSERT_TRUE(plan.ok()) << plan.error();
  const auto& p = plan.value();
  // crash+auto-recover (2) + link_down (1) + two flap cycles (4) +
  // partition of {c} cutting b-c and a-c (2 down + 2 up) + probe_loss (1).
  EXPECT_EQ(p.size(), 12u);
  EXPECT_EQ(count_kind(p, FaultKind::kNodeCrash), 1);
  EXPECT_EQ(count_kind(p, FaultKind::kNodeRecover), 1);
  EXPECT_EQ(count_kind(p, FaultKind::kLinkDown), 5);
  EXPECT_EQ(count_kind(p, FaultKind::kLinkUp), 4);
  EXPECT_EQ(count_kind(p, FaultKind::kProbeLoss), 1);
  EXPECT_TRUE(std::is_sorted(
      p.actions.begin(), p.actions.end(),
      [](const FaultAction& x, const FaultAction& y) { return x.at < y.at; }));
  // The scripted crash carries its detection delay and auto-recovery.
  const auto crash = std::find_if(p.actions.begin(), p.actions.end(),
                                  [](const FaultAction& a) {
                                    return a.kind == FaultKind::kNodeCrash;
                                  });
  ASSERT_NE(crash, p.actions.end());
  EXPECT_EQ(crash->at, sim::seconds(10));
  EXPECT_EQ(crash->detection_delay, sim::seconds(5));
}

TEST(FaultPlan, RejectsUnknownNodesActionsAndUselessCuts) {
  ParseRig rig;
  auto unknown = rig.parse("[fault node_crash ghost]\nat_s = 1\n");
  ASSERT_FALSE(unknown.ok());
  EXPECT_NE(unknown.error().find("unknown node"), std::string::npos);

  auto bad_action = rig.parse("[fault meteor_strike a]\nat_s = 1\n");
  ASSERT_FALSE(bad_action.ok());
  EXPECT_NE(bad_action.error().find("unknown fault action"), std::string::npos);

  // A cut-set covering every node crosses nothing.
  auto no_cross = rig.parse("[fault partition a b c]\nat_s = 1\n");
  ASSERT_FALSE(no_cross.ok());
  EXPECT_NE(no_cross.error().find("crosses no links"), std::string::npos);

  auto no_link = rig.parse("[fault link_down a ghost]\nat_s = 1\n");
  EXPECT_FALSE(no_link.ok());
}

TEST(FaultPlan, ChaosGenerationIsDeterministicPerSeed) {
  ChaosParams params;
  params.crash_mtbf_s = 60;
  params.mttr_s = 30;
  params.flap_mtbf_s = 40;
  params.flap_down_s = 10;
  params.probe_loss = 0.2;
  params.horizon = sim::minutes(10);
  const std::vector<net::NodeId> nodes{0, 1, 2};
  const std::vector<std::pair<net::NodeId, net::NodeId>> links{{0, 1}, {1, 2}, {0, 2}};

  auto draw = [&](std::uint64_t seed) {
    util::Rng rng(seed);
    return generate_chaos_plan(params, nodes, links, rng);
  };
  const auto a = draw(42);
  const auto b = draw(42);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_GT(a.size(), 2u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.actions[i].at, b.actions[i].at) << "action " << i;
    EXPECT_EQ(a.actions[i].kind, b.actions[i].kind) << "action " << i;
    EXPECT_EQ(a.actions[i].node, b.actions[i].node) << "action " << i;
    EXPECT_EQ(a.actions[i].peer, b.actions[i].peer) << "action " << i;
    EXPECT_EQ(a.actions[i].seed, b.actions[i].seed) << "action " << i;
  }

  // A different seed draws a different timeline.
  const auto c = draw(43);
  bool differs = a.size() != c.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a.actions[i].at != c.actions[i].at ||
              a.actions[i].kind != c.actions[i].kind;
  }
  EXPECT_TRUE(differs);
}

TEST(FaultPlan, ChaosAlwaysLeavesOneNodeStanding) {
  ChaosParams params;
  params.crash_mtbf_s = 5;  // brutal: ~120 crash attempts over the horizon
  params.mttr_s = 600;      // repairs far slower than crashes
  params.flap_mtbf_s = 0;
  params.horizon = sim::minutes(10);
  const std::vector<net::NodeId> nodes{0, 1, 2};
  util::Rng rng(7);
  const auto plan = generate_chaos_plan(params, nodes, {}, rng);
  // Replay the down/up timeline: never more than nodes-1 down at once.
  std::vector<bool> down(nodes.size(), false);
  for (const auto& a : plan.actions) {
    if (a.kind == FaultKind::kNodeCrash) down[static_cast<std::size_t>(a.node)] = true;
    if (a.kind == FaultKind::kNodeRecover) down[static_cast<std::size_t>(a.node)] = false;
    EXPECT_LT(static_cast<std::size_t>(std::count(down.begin(), down.end(), true)),
              nodes.size());
  }
}

// ---- Network link-down overlay ----

TEST(FaultNetwork, LinkDownOverlayLayersUnderCapacityWrites) {
  sim::Simulation sim;
  net::Topology topo;
  topo.add_node("a");
  topo.add_node("b");
  topo.add_link(0, 1, net::mbps(20));
  net::Network network(sim, topo);

  network.set_link_down_between(0, 1, true);
  EXPECT_EQ(network.path_capacity(0, 1), 0);

  // A trace tick lands while the link is down: remembered, not applied.
  network.set_link_capacity_between(0, 1, net::mbps(5));
  EXPECT_EQ(network.path_capacity(0, 1), 0);

  // Lifting the overlay resurfaces the latest written capacity.
  network.set_link_down_between(0, 1, false);
  EXPECT_EQ(network.path_capacity(0, 1), net::mbps(5));

  // Idempotent and symmetric.
  network.set_link_down_between(0, 1, false);
  EXPECT_EQ(network.path_capacity(0, 1), net::mbps(5));
}

// ---- Probe loss ----

TEST(FaultMonitor, ProbeLossDropsResultsDeterministically) {
  sim::Simulation sim;
  net::Topology topo;
  topo.add_node("a");
  topo.add_node("b");
  topo.add_link(0, 1, net::mbps(20));
  net::Network network(sim, topo);
  monitor::NetMonitor mon(network);
  mon.set_probe_loss(1.0, /*seed=*/3);
  mon.start();
  sim.run_until(sim::minutes(6));
  mon.stop();
  EXPECT_GT(mon.probes_dropped(), 0);
}

// ---- Invariant checker vs deliberately corrupted state ----

struct OrchRig {
  sim::Simulation sim;
  net::Topology topo;
  std::unique_ptr<net::Network> network;
  cluster::ClusterState cluster;
  std::unique_ptr<core::Orchestrator> orch;
  core::DeploymentId id = core::kInvalidDeployment;

  OrchRig() {
    topo.add_node("a");
    topo.add_node("b");
    topo.add_node("c");
    topo.add_link(0, 1, net::mbps(20));
    topo.add_link(1, 2, net::mbps(20));
    topo.add_link(0, 2, net::mbps(20));
    network = std::make_unique<net::Network>(sim, topo);
    for (net::NodeId n = 0; n <= 2; ++n) cluster.add_node(n, {4000, 4096, true});
    orch = std::make_unique<core::Orchestrator>(sim, *network, cluster);
  }

  void deploy_pair() {
    app::AppGraph g("pair");
    g.add_component({.name = "x", .cpu_milli = 1000, .memory_mb = 256});
    g.add_component({.name = "y", .cpu_milli = 1000, .memory_mb = 256});
    g.add_dependency({.from = 0, .to = 1, .bandwidth = net::mbps(2)});
    id = orch->deploy(std::move(g), core::SchedulerKind::kBassAuto).take();
  }
};

TEST(FaultInvariants, CatchesCorruptedResourceAccounting) {
  OrchRig rig;
  rig.deploy_pair();
  Invariants inv(*rig.orch);
  EXPECT_EQ(inv.check_now(), 0);

  // Leak an allocation behind the orchestrator's back.
  ASSERT_TRUE(rig.cluster.allocate(rig.orch->node_of(rig.id, 0), 128, 0));
  EXPECT_GE(inv.check_now(), 1);
  EXPECT_GE(inv.violations(), 1);
}

TEST(FaultInvariants, CatchesUpComponentOnFailedNode) {
  OrchRig rig;
  rig.deploy_pair();
  Invariants inv(*rig.orch);

  // Fail a node hosting nothing (no components drop), then sneak an up
  // component onto it by uncordoning behind the orchestrator's back.
  net::NodeId dead = net::kInvalidNode;
  for (net::NodeId n = 0; n <= 2; ++n) {
    if (n != rig.orch->node_of(rig.id, 0) && n != rig.orch->node_of(rig.id, 1)) dead = n;
  }
  ASSERT_NE(dead, net::kInvalidNode);
  rig.orch->fail_node(dead, sim::minutes(30));
  EXPECT_EQ(inv.check_now(), 0);

  rig.cluster.set_schedulable(dead, true);
  ASSERT_TRUE(rig.orch->migrate(rig.id, 0, dead));
  rig.sim.run_until(rig.sim.now() + sim::minutes(1));  // past the restart
  ASSERT_TRUE(rig.orch->is_up(rig.id, 0));
  EXPECT_GE(inv.check_now(), 1);
}

TEST(FaultInvariants, CatchesJournalMigrationMismatch) {
  OrchRig rig;
  obs::Recorder recorder;
  rig.orch->set_recorder(&recorder);
  rig.deploy_pair();
  Invariants inv(*rig.orch, &recorder);
  EXPECT_EQ(inv.check_now(), 0);

  // A MigrationCompleted record with no matching MigrationEvent: the
  // journal and the orchestrator's ledger disagree.
  recorder.record(obs::MigrationCompleted{.at = rig.sim.now(),
                                          .deployment = rig.id,
                                          .component = 0,
                                          .from = 0,
                                          .to = 1,
                                          .reason = "manual"});
  EXPECT_GE(inv.check_now(), 1);
}

TEST(FaultInvariants, StrayMigrationCompletedCaughtAfterIncrementalPasses) {
  OrchRig rig;
  obs::Recorder recorder;
  rig.orch->set_recorder(&recorder);
  rig.deploy_pair();
  Invariants inv(*rig.orch, &recorder);

  // Several clean passes, each consuming only the journal events appended
  // since the last one (real moves land MigrationCompleted records).
  for (int pass = 0; pass < 4; ++pass) {
    const net::NodeId from = rig.orch->node_of(rig.id, 0);
    const net::NodeId to = (from + 1) % 3;
    ASSERT_TRUE(rig.orch->migrate(rig.id, 0, to));
    rig.sim.run_until(rig.sim.now() + sim::minutes(1));
    EXPECT_EQ(inv.check_now(), 0) << "pass " << pass;
  }
  EXPECT_EQ(rig.orch->migration_events().size(), 4u);

  recorder.record(obs::MigrationCompleted{.at = rig.sim.now(),
                                          .deployment = rig.id,
                                          .component = 1,
                                          .from = 0,
                                          .to = 1,
                                          .reason = "manual"});
  EXPECT_EQ(inv.check_now(), 1);
  // The running count keeps the stray record: the mismatch persists across
  // later passes and later genuine moves.
  EXPECT_EQ(inv.check_now(), 1);
  ASSERT_TRUE(rig.orch->migrate(rig.id, 0, (rig.orch->node_of(rig.id, 0) + 1) % 3));
  rig.sim.run_until(rig.sim.now() + sim::minutes(1));
  EXPECT_EQ(inv.check_now(), 1);
  EXPECT_EQ(inv.violations(), 3);
}

TEST(FaultInvariants, JournalCheckDisablesOnceTheRingWraps) {
  OrchRig rig;
  obs::Recorder recorder(obs::RecorderConfig{.journal_capacity = 8});
  rig.orch->set_recorder(&recorder);
  rig.deploy_pair();
  Invariants inv(*rig.orch, &recorder);
  EXPECT_EQ(inv.check_now(), 0);

  auto stray = [&rig] {
    return obs::MigrationCompleted{.at = rig.sim.now(),
                                   .deployment = rig.id,
                                   .component = 0,
                                   .from = 0,
                                   .to = 1,
                                   .reason = "manual"};
  };
  recorder.record(stray());
  EXPECT_EQ(inv.check_now(), 1);  // journal still whole: caught
  ASSERT_EQ(recorder.journal().dropped(), 0);

  // Fill the ring past capacity (violations journal themselves, too).
  while (recorder.journal().dropped() == 0) recorder.record(stray());
  EXPECT_EQ(recorder.journal().capacity(), 8u);
  EXPECT_EQ(recorder.journal().size(), 8u);
  EXPECT_EQ(inv.check_now(), 0);  // the count is meaningless now: skipped
  recorder.record(stray());
  EXPECT_EQ(inv.check_now(), 0);
  EXPECT_EQ(inv.violations(), 1);
}

TEST(FaultInvariants, OnDemandRingKeepsWrapOrderAndJsonl) {
  // The ring grows as events arrive; once full it must behave exactly like
  // a preallocated ring: the newest `capacity` events, oldest first.
  constexpr std::size_t kCapacity = 5;
  constexpr int kEvents = 13;
  obs::EventJournal journal(kCapacity);
  EXPECT_EQ(journal.capacity(), kCapacity);
  EXPECT_TRUE(journal.empty());
  auto event = [](int i) {
    return obs::Event(obs::MigrationCompleted{.at = sim::seconds(i),
                                              .deployment = i,
                                              .component = i % 3,
                                              .from = 0,
                                              .to = 1,
                                              .reason = "manual"});
  };
  for (int i = 0; i < kEvents; ++i) {
    journal.record(event(i));
    EXPECT_EQ(journal.size(), std::min<std::size_t>(i + 1, kCapacity));
    EXPECT_EQ(journal.recorded(), static_cast<std::size_t>(i + 1));
  }
  EXPECT_EQ(journal.capacity(), kCapacity);
  EXPECT_EQ(journal.dropped(), kEvents - static_cast<int>(kCapacity));

  obs::EventJournal expected(64);
  for (int i = kEvents - static_cast<int>(kCapacity); i < kEvents; ++i) {
    expected.record(event(i));
  }
  EXPECT_EQ(journal.to_jsonl(), expected.to_jsonl());

  // for_each_from numbers events from the first ever recorded; overwritten
  // positions are skipped.
  std::vector<int> seen;
  journal.for_each_from(10, [&seen](const obs::Event& e) {
    seen.push_back(std::get<obs::MigrationCompleted>(e).deployment);
  });
  EXPECT_EQ(seen, (std::vector<int>{10, 11, 12}));
  seen.clear();
  journal.for_each_from(0, [&seen](const obs::Event& e) {
    seen.push_back(std::get<obs::MigrationCompleted>(e).deployment);
  });
  EXPECT_EQ(seen, (std::vector<int>{8, 9, 10, 11, 12}));
  seen.clear();
  journal.for_each_from(journal.recorded(), [&seen](const obs::Event& e) {
    seen.push_back(std::get<obs::MigrationCompleted>(e).deployment);
  });
  EXPECT_TRUE(seen.empty());
}

TEST(FaultInvariants, RecoverNodeUncordonsAfterDrain) {
  OrchRig rig;
  rig.deploy_pair();
  const net::NodeId victim = rig.orch->node_of(rig.id, 1);
  rig.orch->drain_node(victim);
  rig.sim.run_until(rig.sim.now() + sim::minutes(2));
  EXPECT_FALSE(rig.cluster.can_fit(victim, 0, 0));  // cordoned
  EXPECT_FALSE(rig.orch->node_failed(victim));      // drained, not failed

  rig.orch->recover_node(victim);
  EXPECT_TRUE(rig.cluster.can_fit(victim, 0, 0));

  Invariants inv(*rig.orch);
  EXPECT_EQ(inv.check_now(), 0);
}

}  // namespace
}  // namespace bass::fault

// ---- Scenario-level end-to-end ----

namespace bass::fault {
namespace {

constexpr const char* kFaultMesh = R"(
[node a]
cpu = 4000
[node b]
cpu = 4000
[node c]
cpu = 4000
[link a b]
capacity_mbps = 20
[link b c]
capacity_mbps = 20
[link a c]
capacity_mbps = 20
[component x]
cpu = 1000
[component y]
cpu = 1000
pinned = b
[edge x y]
bandwidth_mbps = 2
request_bytes = 1000
response_bytes = 2000
[workload]
rps = 20
client = a
[run]
duration_s = 300
)";

std::unique_ptr<scenario::Scenario> build(const std::string& text) {
  const auto ini = util::parse_ini(text);
  EXPECT_TRUE(ini.ok()) << (ini.ok() ? "" : ini.error());
  auto s = scenario::Scenario::from_ini(ini.value());
  EXPECT_TRUE(s.ok()) << (s.ok() ? "" : s.error());
  return s.ok() ? std::move(s.value()) : nullptr;
}

TEST(FaultScenario, ScriptedCrashRecoverRoundTrip) {
  std::string text = kFaultMesh;
  text += "[fault node_crash b]\nat_s = 60\nduration_s = 60\n";
  auto s = build(text);
  ASSERT_NE(s, nullptr);
  ASSERT_NE(s->injector(), nullptr);
  ASSERT_NE(s->invariants(), nullptr);
  const auto report = s->run();

  EXPECT_EQ(report.faults_injected, 2);  // crash + auto-recover
  EXPECT_EQ(report.invariant_violations, 0);
  // The pinned component waited out the outage and came back on b.
  const auto y = s->app().find("y");
  EXPECT_TRUE(s->orchestrator().is_up(s->deployment(), y));
  EXPECT_EQ(s->orchestrator().node_of(s->deployment(), y), s->node_id("b"));
  EXPECT_FALSE(s->orchestrator().node_failed(s->node_id("b")));
  // Its recovery is on the ledger as a failover.
  bool failover_seen = false;
  for (const auto& ev : s->orchestrator().migration_events()) {
    if (ev.reason == core::MoveReason::kFailover) failover_seen = true;
  }
  EXPECT_TRUE(failover_seen);
}

TEST(FaultScenario, LinkFaultSectionsDriveTheOverlay) {
  std::string text = kFaultMesh;
  text += "[fault link_down a b]\nat_s = 30\nduration_s = 60\n";
  auto s = build(text);
  ASSERT_NE(s, nullptr);
  auto& net = s->network();
  const auto a = s->node_id("a"), b = s->node_id("b");
  s->orchestrator().simulation().run_until(sim::seconds(45));
  EXPECT_EQ(net.path_capacity(a, b), 0);
  s->orchestrator().simulation().run_until(sim::seconds(120));
  EXPECT_GT(net.path_capacity(a, b), 0);
}

constexpr const char* kChaosMesh = R"(
[node a]
cpu = 4000
[node b]
cpu = 4000
[node c]
cpu = 4000
[link a b]
capacity_mbps = 20
[link b c]
capacity_mbps = 20
[link a c]
capacity_mbps = 20
[component x]
cpu = 1000
[component y]
cpu = 1000
[edge x y]
bandwidth_mbps = 2
request_bytes = 1000
response_bytes = 2000
[migration]
enabled = true
interval_s = 30
[workload]
rps = 20
client = a
[chaos]
seed = 5
crash_mtbf_s = 90
mttr_s = 30
crash_detection_s = 5
flap_mtbf_s = 60
flap_down_s = 10
probe_loss = 0.2
[run]
duration_s = 240
)";

std::string fault_event_lines(const std::string& jsonl) {
  std::string out;
  std::istringstream in(jsonl);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("fault_injected") != std::string::npos) out += line + '\n';
  }
  return out;
}

TEST(FaultScenario, ChaosRunIsCleanAndSameSeedGivesSameFaultJournal) {
  auto run_one = [] {
    auto s = build(kChaosMesh);
    EXPECT_NE(s, nullptr);
    const auto report = s->run();
    EXPECT_GT(report.faults_injected, 0);
    EXPECT_EQ(report.invariant_violations, 0);
    return fault_event_lines(s->recorder().journal().to_jsonl());
  };
  const auto first = run_one();
  const auto second = run_one();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);  // byte-identical fault timeline per seed

  // A different seed perturbs the fault timeline.
  std::string other = kChaosMesh;
  other.replace(other.find("seed = 5"), 8, "seed = 6");
  auto s = build(other);
  ASSERT_NE(s, nullptr);
  s->run();
  EXPECT_NE(fault_event_lines(s->recorder().journal().to_jsonl()), first);
}

// ---- Live-state index vs history scans ----

// The benchmark's mesh_chaos shape, shortened: churned apps arrive and
// depart under the dynamic controller while chaos crashes nodes and flaps
// links, so deployments open, close, lose and regain components.
std::string serve_chaos_mesh(std::uint64_t seed) {
  std::string text = R"(
[node gateway]
cpu = 4000
memory_mb = 4096
[node library]
cpu = 4000
memory_mb = 4096
[node church]
cpu = 4000
memory_mb = 4096
[node depot]
cpu = 4000
memory_mb = 4096
[node school]
cpu = 4000
memory_mb = 4096
[link gateway library]
capacity_mbps = 20
[link library church]
capacity_mbps = 16
[link gateway church]
capacity_mbps = 12
[link church depot]
capacity_mbps = 16
[link library depot]
capacity_mbps = 12
[link depot school]
capacity_mbps = 14
[link library school]
capacity_mbps = 10
[trace gateway library]
mean_mbps = 16
stddev_frac = 0.27
fades = true
seed = 1
[trace library school]
mean_mbps = 8
stddev_frac = 0.27
fades = true
seed = 4
[monitor]
probe_interval_s = 30
[migration]
threshold = 0.65
headroom = 0.2
interval_s = 30
cooldown_s = 30
min_gap_s = 90
[serve]
mode = dynamic
arrival_per_min = 3
mean_lifetime_s = 300
resource_scale = 0.25
policy = fifo
retry_s = 30
max_retries = 5
[chaos]
crash_mtbf_s = 300
mttr_s = 120
flap_mtbf_s = 300
flap_down_s = 30
probe_loss = 0.1
[run]
duration_s = 1800
)";
  const std::string seed_line = "\nseed = " + std::to_string(seed) + "\n";
  text.replace(text.find("\n", text.find("[serve]")), 1, seed_line);
  text.replace(text.find("\n", text.find("[chaos]")), 1, seed_line);
  return text;
}

// The pre-index checker logic, kept verbatim in spirit: every deployment id
// ever issued, a std::map of expected usage, and a full journal scan.
// Returns violations per check name for the current state.
std::map<std::string, int> reference_violations(core::Orchestrator& orch,
                                                obs::Recorder& recorder) {
  std::map<std::string, int> found;
  for (core::DeploymentId id = 0; id < orch.deployment_count(); ++id) {
    const app::AppGraph& app = orch.app(id);
    for (app::ComponentId c = 0; c < app.component_count(); ++c) {
      if (orch.is_up(id, c) && orch.node_failed(orch.node_of(id, c))) {
        ++found["component_on_failed_node"];
      }
    }
  }
  std::map<net::NodeId, cluster::NodeUsage> expected;
  for (core::DeploymentId id = 0; id < orch.deployment_count(); ++id) {
    const app::AppGraph& app = orch.app(id);
    for (app::ComponentId c = 0; c < app.component_count(); ++c) {
      if (!orch.is_up(id, c)) continue;
      const auto& comp = app.component(c);
      if (comp.cpu_milli <= 0 && comp.memory_mb <= 0) continue;
      auto& u = expected[orch.node_of(id, c)];
      u.cpu_milli += comp.cpu_milli;
      u.memory_mb += comp.memory_mb;
    }
  }
  for (net::NodeId node : orch.cluster().nodes()) {
    const cluster::NodeUsage& actual = orch.cluster().usage(node);
    const cluster::NodeUsage want = expected[node];
    if (actual.cpu_milli != want.cpu_milli || actual.memory_mb != want.memory_mb) {
      ++found["resource_accounting"];
    }
  }
  const obs::EventJournal& journal = recorder.journal();
  if (journal.dropped() == 0) {
    std::size_t completed = 0;
    journal.for_each([&completed](const obs::Event& e) {
      if (std::holds_alternative<obs::MigrationCompleted>(e)) ++completed;
    });
    if (completed != orch.migration_events().size()) ++found["journal_migrations"];
  }
  return found;
}

class LiveIndex : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LiveIndex, MatchesHistoryScanAndFullScanChecker) {
  auto s = build(serve_chaos_mesh(GetParam()));
  ASSERT_NE(s, nullptr);
  ASSERT_NE(s->invariants(), nullptr);
  core::Orchestrator& orch = s->orchestrator();
  Invariants& inv = *s->invariants();

  // Per-check violation tallies: the incremental checker vs the reference,
  // accumulated pass by pass.
  const std::vector<std::string> checked = {"component_on_failed_node",
                                            "resource_accounting", "journal_migrations"};
  std::map<std::string, int> got;
  std::map<std::string, int> want;
  // The corruption below trips hundreds of (expected) violations.
  const util::LogLevel saved_level = util::log_level();
  util::set_log_level(util::LogLevel::kOff);
  inv.set_violation_hook(
      [&got](const char* name, const std::string&) { ++got[name]; });

  int passes = 0;
  int max_up = 0;
  bool saw_closed = false;
  net::NodeId leak_node = net::kInvalidNode;
  auto pass = [&] {
    inv.check_now();
    for (const auto& [name, n] : reference_violations(orch, s->recorder())) want[name] += n;
    ++passes;

    // The live index equals a brute-force scan over every id ever issued.
    std::set<core::DeploymentId> brute;
    int active = 0;
    for (core::DeploymentId id = 0; id < orch.deployment_count(); ++id) {
      if (orch.deployment_active(id)) ++active;
      else saw_closed = true;
      for (app::ComponentId c = 0; c < orch.app(id).component_count(); ++c) {
        if (orch.is_up(id, c)) brute.insert(id);
      }
    }
    ASSERT_EQ(orch.up_deployments(), brute) << "pass " << passes;
    ASSERT_EQ(orch.live_deployment_count(), active) << "pass " << passes;
    max_up = std::max(max_up, static_cast<int>(brute.size()));
    for (const auto& name : checked) {
      ASSERT_EQ(got[name], want[name]) << name << " diverged at pass " << passes;
    }

    // Corrupt state mid-run so the comparison covers live violations:
    // leak an allocation for a while, then land a stray journal record.
    if (passes == 40) {
      for (net::NodeId n : orch.cluster().nodes()) {
        if (orch.cluster().allocate(n, 1, 0)) {
          leak_node = n;
          break;
        }
      }
    }
    if (passes == 80 && leak_node != net::kInvalidNode) {
      orch.cluster().release(leak_node, 1, 0);
    }
    if (passes == 120) {
      s->recorder().record(obs::MigrationCompleted{.at = orch.simulation().now(),
                                                   .deployment = 0,
                                                   .component = 0,
                                                   .from = 0,
                                                   .to = 1,
                                                   .reason = "manual"});
    }
  };
  orch.set_round_hook([&pass](core::DeploymentId) { pass(); });

  const auto report = s->run();
  util::set_log_level(saved_level);
  // run() ends with one more checker pass; mirror it in the reference.
  for (const auto& [name, n] : reference_violations(orch, s->recorder())) want[name] += n;
  for (const auto& name : checked) EXPECT_EQ(got[name], want[name]) << name;

  EXPECT_GT(passes, 120);
  EXPECT_GT(report.faults_injected, 0);
  EXPECT_GT(orch.deployment_count(), max_up);  // history outgrew live state
  EXPECT_TRUE(saw_closed);
  EXPECT_NE(leak_node, net::kInvalidNode);
  EXPECT_GE(got["resource_accounting"], 1);
  EXPECT_GE(got["journal_migrations"], 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LiveIndex, ::testing::Range<std::uint64_t>(1, 5));

// ---- Incremental accounting and the capacity-scan guard ----

// Expected usage per node re-summed from the placements of every UP
// component of every deployment ever issued — what the table must equal.
std::map<net::NodeId, cluster::NodeUsage> resum_placements(const core::Orchestrator& orch) {
  std::map<net::NodeId, cluster::NodeUsage> sums;
  for (core::DeploymentId id = 0; id < orch.deployment_count(); ++id) {
    const app::AppGraph& app = orch.app(id);
    for (app::ComponentId c = 0; c < app.component_count(); ++c) {
      if (!orch.is_up(id, c)) continue;
      const auto& comp = app.component(c);
      if (comp.cpu_milli <= 0 && comp.memory_mb <= 0) continue;
      auto& u = sums[orch.node_of(id, c)];
      u.cpu_milli += comp.cpu_milli;
      u.memory_mb += comp.memory_mb;
    }
  }
  return sums;
}

class IncrementalTable : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IncrementalTable, EqualsFullResumAfterEveryPass) {
  auto s = build(serve_chaos_mesh(GetParam()));
  ASSERT_NE(s, nullptr);
  ASSERT_NE(s->invariants(), nullptr);
  core::Orchestrator& orch = s->orchestrator();
  Invariants& inv = *s->invariants();
  int passes = 0;
  int moves_seen = 0;
  const util::LogLevel saved_level = util::log_level();
  util::set_log_level(util::LogLevel::kOff);  // chaos retries warn a lot
  orch.set_round_hook([&](core::DeploymentId) {
    inv.check_round();
    const std::map<net::NodeId, cluster::NodeUsage> want = resum_placements(orch);
    const std::vector<cluster::NodeUsage>& table = orch.expected_usage();
    for (std::size_t n = 0; n < table.size(); ++n) {
      const auto it = want.find(static_cast<net::NodeId>(n));
      const cluster::NodeUsage w = it == want.end() ? cluster::NodeUsage{} : it->second;
      ASSERT_EQ(table[n].cpu_milli, w.cpu_milli) << "node" << n << " pass " << passes;
      ASSERT_EQ(table[n].memory_mb, w.memory_mb) << "node" << n << " pass " << passes;
    }
    for (const auto& [node, w] : want) {
      ASSERT_LT(static_cast<std::size_t>(node), table.size()) << "pass " << passes;
    }
    moves_seen = static_cast<int>(orch.migration_events().size());
    ++passes;
  });
  const auto report = s->run();
  util::set_log_level(saved_level);
  EXPECT_GT(passes, 100);
  EXPECT_GT(report.faults_injected, 0);  // node crashes moved components
  EXPECT_GT(moves_seen, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalTable, ::testing::Range<std::uint64_t>(1, 5));

TEST(FaultInvariants, LeakWithoutSetUpIsCaughtOnTheNextRoundPass) {
  OrchRig rig;
  obs::Recorder recorder;
  rig.orch->set_recorder(&recorder);
  rig.deploy_pair();
  controller::MigrationParams params;
  params.evaluation_interval = sim::seconds(10);
  rig.orch->enable_migration(rig.id, params);
  Invariants inv(*rig.orch, &recorder);
  inv.attach();
  rig.sim.run_until(sim::seconds(35));
  ASSERT_EQ(inv.violations(), 0);

  // An allocation no component's set_up accounts for.
  ASSERT_TRUE(rig.cluster.allocate(rig.orch->node_of(rig.id, 0), 128, 0));
  rig.sim.run_until(sim::seconds(40));  // the next controller evaluation
  EXPECT_EQ(inv.violations(), 1);
  int journalled = 0;
  recorder.journal().for_each([&journalled](const obs::Event& e) {
    const auto* v = std::get_if<obs::InvariantViolation>(&e);
    if (v != nullptr && v->name == std::string("resource_accounting")) ++journalled;
  });
  EXPECT_EQ(journalled, 1);
  // The full pass finds the same single leak: the table itself still
  // matches the placements.
  EXPECT_EQ(inv.check_now(), 1);
}

TEST(FaultInvariants, StandingOverallocatedLinkIsReportedOnEveryPass) {
  OrchRig rig;
  obs::Recorder recorder;
  rig.orch->set_recorder(&recorder);
  Invariants inv(*rig.orch, &recorder);
  const net::LinkId link = *rig.network->topology().link_between(0, 1);
  const net::StreamId stream = rig.network->open_stream(0, 1, net::mbps(10));
  ASSERT_EQ(rig.network->link_allocated(link), net::mbps(10));
  EXPECT_EQ(inv.check_round(), 0);
  {
    // Inside a batch the capacity drops at once but the reallocation waits
    // for the batch to close: the link stands overallocated meanwhile.
    net::Network::BatchUpdate batch(*rig.network);
    rig.network->set_link_capacity(link, net::mbps(5));
    const std::int64_t version = rig.network->allocation_version();
    EXPECT_EQ(inv.check_round(), 1);  // scans
    EXPECT_EQ(inv.check_round(), 1);  // nothing moved: re-reported
    EXPECT_EQ(inv.check_now(), 1);
    EXPECT_EQ(rig.network->allocation_version(), version);
  }
  EXPECT_EQ(inv.check_round(), 0);  // reallocated: the scan runs again
  EXPECT_EQ(inv.violations(), 3);
  int journalled = 0;
  recorder.journal().for_each([&journalled](const obs::Event& e) {
    const auto* v = std::get_if<obs::InvariantViolation>(&e);
    if (v != nullptr && v->name == std::string("link_overallocated")) ++journalled;
  });
  EXPECT_EQ(journalled, 3);
  rig.network->close_stream(stream);
}

TEST(FaultScenario, InvariantsSectionCanDisableTheChecker) {
  std::string text = kFaultMesh;
  text += "[invariants]\nenabled = false\n";
  auto s = build(text);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->invariants(), nullptr);
  const auto report = s->run();
  EXPECT_EQ(report.invariant_violations, 0);
}

}  // namespace
}  // namespace bass::fault
