#include "alloc_probe.h"  // must be the only TU in this binary including it

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "app/catalog.h"
#include "sched/bass_scheduler.h"
#include "sched/k3s_scheduler.h"
#include "sched/rescheduler.h"
#include "sim/simulation.h"
#include "topo/city_grid.h"

namespace bass::sched {
namespace {

struct MeshFixture {
  sim::Simulation sim;
  std::unique_ptr<net::Network> network;
  cluster::ClusterState cluster;
  std::unique_ptr<LiveNetworkView> view;

  // 4 workers in a line with generous links, 4 cores / 12 GB each (the
  // Fig. 11 d710 cluster shape).
  MeshFixture() {
    net::Topology topo;
    for (int i = 0; i < 4; ++i) topo.add_node();
    topo.add_link(0, 1, net::gbps(1));
    topo.add_link(1, 2, net::gbps(1));
    topo.add_link(2, 3, net::gbps(1));
    network = std::make_unique<net::Network>(sim, std::move(topo));
    view = std::make_unique<LiveNetworkView>(*network);
    for (int i = 0; i < 4; ++i) cluster.add_node(i, {4000, 12288, true});
  }
};

TEST(BassScheduler, SchedulesSocialNetwork) {
  MeshFixture f;
  BassScheduler sched(Heuristic::kLongestPath);
  const auto r = sched.schedule(app::social_network_app(), f.cluster, *f.view);
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(r.value().size(), 27u);
  // CPU capacity respected on every node.
  std::map<net::NodeId, std::int64_t> used;
  const auto g = app::social_network_app();
  for (app::ComponentId c = 0; c < g.component_count(); ++c) {
    used[r.value()[static_cast<std::size_t>(c)]] += g.component(c).cpu_milli;
  }
  for (const auto& [n, cpu] : used) EXPECT_LE(cpu, 4000);
}

TEST(BassScheduler, NameAndHeuristic) {
  EXPECT_EQ(BassScheduler(Heuristic::kBreadthFirst).name(), "bass-bfs");
  EXPECT_EQ(BassScheduler(Heuristic::kLongestPath).name(), "bass-longest-path");
}

TEST(BassScheduler, RejectsInvalidApp) {
  MeshFixture f;
  app::AppGraph g("cyclic");
  g.add_component({.name = "a"});
  g.add_component({.name = "b"});
  g.add_dependency({.from = 0, .to = 1});
  g.add_dependency({.from = 1, .to = 0});
  const auto r = BassScheduler(Heuristic::kBreadthFirst).schedule(g, f.cluster, *f.view);
  EXPECT_FALSE(r.ok());
}

TEST(BassScheduler, ColocatesHeavyChainsMoreThanK3s) {
  MeshFixture f;
  const auto g = app::social_network_app();
  const auto bass = BassScheduler(Heuristic::kLongestPath).schedule(g, f.cluster, *f.view);
  const auto k3s = K3sScheduler().schedule(g, f.cluster, *f.view);
  ASSERT_TRUE(bass.ok() && k3s.ok());
  auto crossing_bw = [&](const Placement& p) {
    net::Bps total = 0;
    for (const auto& e : g.edges()) {
      if (p.at(e.from) != p.at(e.to)) total += e.bandwidth;
    }
    return total;
  };
  // The whole point of BASS: far less bandwidth crosses the mesh.
  EXPECT_LT(crossing_bw(bass.value()), crossing_bw(k3s.value()));
}

TEST(K3sScheduler, SpreadsAcrossNodes) {
  MeshFixture f;
  app::AppGraph g("spread");
  for (int i = 0; i < 4; ++i) {
    g.add_component({.name = "s" + std::to_string(i), .cpu_milli = 500, .memory_mb = 64});
  }
  const auto r = K3sScheduler().schedule(g, f.cluster, *f.view);
  ASSERT_TRUE(r.ok());
  std::set<net::NodeId> used;
  used.insert(r.value().begin(), r.value().end());
  // LeastAllocated puts each pod on the emptiest node: all four nodes used.
  EXPECT_EQ(used.size(), 4u);
}

TEST(K3sScheduler, IgnoresBandwidth) {
  // Two nodes joined by a dead link: k3s still spreads (it cannot see
  // bandwidth), which is exactly the failure mode BASS fixes.
  sim::Simulation sim;
  net::Topology topo;
  topo.add_node();
  topo.add_node();
  topo.add_link(0, 1, net::kbps(1));
  net::Network network(sim, std::move(topo));
  LiveNetworkView view(network);
  cluster::ClusterState cl;
  cl.add_node(0, {4000, 1024, true});
  cl.add_node(1, {4000, 1024, true});
  app::AppGraph g("pair");
  g.add_component({.name = "a", .cpu_milli = 500, .memory_mb = 64});
  g.add_component({.name = "b", .cpu_milli = 500, .memory_mb = 64});
  g.add_dependency({.from = 0, .to = 1, .bandwidth = net::mbps(50)});
  const auto r = K3sScheduler().schedule(g, cl, view);
  ASSERT_TRUE(r.ok());
  EXPECT_NE(r.value().at(0), r.value().at(1));
}

TEST(K3sScheduler, FailsWhenNothingFits) {
  MeshFixture f;
  app::AppGraph g("huge");
  g.add_component({.name = "x", .cpu_milli = 9000, .memory_mb = 64});
  EXPECT_FALSE(K3sScheduler().schedule(g, f.cluster, *f.view).ok());
}

TEST(Rescheduler, PrefersNodeWithMostDependencies) {
  MeshFixture f;
  app::AppGraph g("deps");
  g.add_component({.name = "m", .cpu_milli = 500, .memory_mb = 64});   // migrating
  g.add_component({.name = "d1", .cpu_milli = 500, .memory_mb = 64});
  g.add_component({.name = "d2", .cpu_milli = 500, .memory_mb = 64});
  g.add_component({.name = "d3", .cpu_milli = 500, .memory_mb = 64});
  g.add_dependency({.from = 0, .to = 1, .bandwidth = net::mbps(1)});
  g.add_dependency({.from = 0, .to = 2, .bandwidth = net::mbps(1)});
  g.add_dependency({.from = 3, .to = 0, .bandwidth = net::mbps(1)});
  Placement p{0, 2, 2, 3};
  // Mark current resource usage.
  f.cluster.allocate(0, 500, 64);
  f.cluster.allocate(2, 1000, 128);
  f.cluster.allocate(3, 500, 64);
  const auto target = pick_migration_target(g, p, 0, f.cluster, *f.view);
  ASSERT_TRUE(target.has_value());
  EXPECT_EQ(*target, 2);  // two dependencies live on node 2
}

TEST(Rescheduler, NeverReturnsCurrentNode) {
  MeshFixture f;
  app::AppGraph g("pair");
  g.add_component({.name = "m", .cpu_milli = 500, .memory_mb = 64});
  g.add_component({.name = "d", .cpu_milli = 500, .memory_mb = 64});
  g.add_dependency({.from = 0, .to = 1, .bandwidth = net::mbps(1)});
  Placement p{1, 1};
  const auto target = pick_migration_target(g, p, 0, f.cluster, *f.view);
  ASSERT_TRUE(target.has_value());
  EXPECT_NE(*target, 1);
}

TEST(Rescheduler, PinnedComponentNeverMoves) {
  MeshFixture f;
  app::AppGraph g("pin");
  app::Component c{.name = "clients"};
  c.pinned_node = 2;
  g.add_component(c);
  Placement p{2};
  EXPECT_FALSE(pick_migration_target(g, p, 0, f.cluster, *f.view).has_value());
}

TEST(Rescheduler, NoTargetWhenClusterFull) {
  MeshFixture f;
  for (int i = 0; i < 4; ++i) f.cluster.allocate(i, 4000, 1024);
  app::AppGraph g("full");
  g.add_component({.name = "m", .cpu_milli = 500, .memory_mb = 64});
  Placement p{0};
  EXPECT_FALSE(pick_migration_target(g, p, 0, f.cluster, *f.view).has_value());
}

TEST(Rescheduler, RespectsBandwidthOnTarget) {
  // Node 3 has a starved link; the component's 5 Mbps edge cannot terminate
  // there, so the rescheduler must pick a different node.
  sim::Simulation sim;
  net::Topology topo;
  for (int i = 0; i < 3; ++i) topo.add_node();
  topo.add_link(0, 1, net::mbps(50));
  topo.add_link(0, 2, net::kbps(100));
  net::Network network(sim, std::move(topo));
  LiveNetworkView view(network);
  cluster::ClusterState cl;
  for (int i = 0; i < 3; ++i) cl.add_node(i, {4000, 1024, true});
  app::AppGraph g("bw");
  g.add_component({.name = "m", .cpu_milli = 500, .memory_mb = 64});
  g.add_component({.name = "peer", .cpu_milli = 500, .memory_mb = 64});
  g.add_dependency({.from = 0, .to = 1, .bandwidth = net::mbps(5)});
  Placement p{0, 0};
  cl.allocate(0, 1000, 128);
  const auto target = pick_migration_target(g, p, 0, cl, view);
  ASSERT_TRUE(target.has_value());
  EXPECT_EQ(*target, 1);  // node 2 is bandwidth-infeasible
}

}  // namespace
}  // namespace bass::sched

namespace bass::sched {
namespace {

TEST(K3sScheduler, MostAllocatedBinPacks) {
  MeshFixture f;
  app::AppGraph g("pack");
  for (int i = 0; i < 4; ++i) {
    g.add_component({.name = "s" + std::to_string(i), .cpu_milli = 500, .memory_mb = 64});
  }
  const auto r = K3sScheduler(K3sScoring::kMostAllocated).schedule(g, f.cluster, *f.view);
  ASSERT_TRUE(r.ok());
  std::set<net::NodeId> used;
  used.insert(r.value().begin(), r.value().end());
  // All four pods pile onto one node (they fit).
  EXPECT_EQ(used.size(), 1u);
}

TEST(K3sScheduler, MostAllocatedStillBandwidthOblivious) {
  // Even the bin-packing variant happily splits a heavy pair when CPU
  // forces it, without consulting the link.
  sim::Simulation sim;
  net::Topology topo;
  topo.add_node();
  topo.add_node();
  topo.add_link(0, 1, net::kbps(1));
  net::Network network(sim, std::move(topo));
  LiveNetworkView view(network);
  cluster::ClusterState cl;
  cl.add_node(0, {1000, 1024, true});
  cl.add_node(1, {1000, 1024, true});
  app::AppGraph g("pair");
  g.add_component({.name = "a", .cpu_milli = 800, .memory_mb = 64});
  g.add_component({.name = "b", .cpu_milli = 800, .memory_mb = 64});
  g.add_dependency({.from = 0, .to = 1, .bandwidth = net::mbps(50)});
  const auto r = K3sScheduler(K3sScoring::kMostAllocated).schedule(g, cl, view);
  ASSERT_TRUE(r.ok());
  EXPECT_NE(r.value().at(0), r.value().at(1));
}

TEST(K3sScheduler, Names) {
  EXPECT_EQ(K3sScheduler().name(), "k3s-default");
  EXPECT_EQ(K3sScheduler(K3sScoring::kMostAllocated).name(), "k3s-most-allocated");
}

}  // namespace
}  // namespace bass::sched

namespace bass::sched {
namespace {

// The placement path's allocation contract (DESIGN.md §5c.2): once the
// thread's scratch has seen a cluster, placing an app allocates only for
// app-sized results, so the count is the same on a 64-node and a
// 2048-node city grid.
TEST(SchedulerAlloc, PlacementAllocationsIndependentOfClusterSize) {
  const auto place_allocs = [](int blocks_x, int blocks_y) {
    topo::CityGridParams params;
    params.blocks_x = blocks_x;
    params.blocks_y = blocks_y;
    params.nodes_per_block = 4;
    auto grid = topo::make_city_grid(params);
    EXPECT_TRUE(grid.ok());
    sim::Simulation sim;
    net::Network network(sim, std::move(grid.take().topology));
    const LiveNetworkView view(network);
    cluster::ClusterState cluster;
    for (int i = 0; i < network.topology().node_count(); ++i) {
      cluster.add_node(i, {4000, 8192, true});
    }
    const app::AppGraph app = app::social_network_app();
    const BassScheduler scheduler(Heuristic::kAuto);
    EXPECT_TRUE(scheduler.schedule(app, cluster, view).ok());  // warm-up
    const auto snap = testing::take_alloc_snapshot();
    const auto placed = scheduler.schedule(app, cluster, view);
    const std::int64_t allocs = testing::allocations_since(snap);
    EXPECT_TRUE(placed.ok());
    return allocs;
  };
  const std::int64_t small = place_allocs(4, 4);    // 64 nodes
  const std::int64_t large = place_allocs(32, 16);  // 2048 nodes
  EXPECT_GT(small, 0);
  EXPECT_EQ(small, large);
}

}  // namespace
}  // namespace bass::sched
