#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "monitor/net_monitor.h"
#include "monitor/traffic_stats.h"
#include "util/rng.h"

namespace bass::monitor {
namespace {

// Five components; edges 1->2 and 2->1 (a pair recorded both ways).
app::AppGraph pairs_app() {
  app::AppGraph g("pairs");
  for (int c = 0; c < 5; ++c) g.add_component({.name = "c" + std::to_string(c)});
  g.add_dependency({.from = 1, .to = 2});
  g.add_dependency({.from = 2, .to = 1});
  return g;
}

TEST(TrafficStats, RecordAndTotals) {
  TrafficStats stats(pairs_app());
  stats.record(1, 2, 1000);
  stats.record(1, 2, 500);
  stats.record(2, 1, 100);
  EXPECT_EQ(stats.total_bytes(1, 2), 1500);
  EXPECT_EQ(stats.total_bytes(2, 1), 100);
  EXPECT_EQ(stats.total_bytes(3, 4), 0);
}

TEST(TrafficStats, TakeWindowResetsWindow) {
  TrafficStats stats(pairs_app());
  stats.record(1, 2, 12'500);  // 100 kbit
  // Over 10 s that is 10 kbps.
  EXPECT_EQ(stats.take_window(1, 2, sim::seconds(10)).delivered, net::kbps(10));
  // Window reset: nothing since t=10.
  EXPECT_EQ(stats.take_window(1, 2, sim::seconds(20)).delivered, 0);
  EXPECT_EQ(stats.total_bytes(1, 2), 12'500);  // totals persist
}

TEST(TrafficStats, ZeroWindowIsZeroRate) {
  TrafficStats stats(pairs_app());
  stats.record(1, 2, 1000);
  EXPECT_EQ(stats.take_window(1, 2, 0).delivered, 0);
}

// Edge-slot and (from, to) accessors address the same counters on random
// apps; a pair that repeats resolves to its first edge.
TEST(TrafficStats, EdgeSlotsAndPairLookupsAgree) {
  util::Rng rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    app::AppGraph g("random");
    const int comps = static_cast<int>(rng.uniform_int(2, 9));
    for (int c = 0; c < comps; ++c) g.add_component({.name = "c" + std::to_string(c)});
    for (int a = 0; a < comps; ++a) {
      for (int b = a + 1; b < comps; ++b) {
        if (rng.chance(0.4)) g.add_dependency({.from = a, .to = b});
      }
    }
    if (g.edges().empty()) continue;
    const int edges = static_cast<int>(g.edges().size());
    TrafficStats by_edge(g);
    TrafficStats by_pair(g);
    sim::Time now = 0;
    for (int step = 0; step < 50; ++step) {
      const auto i = static_cast<int>(rng.uniform_int(0, edges - 1));
      const app::Edge& e = g.edges()[static_cast<std::size_t>(i)];
      ASSERT_EQ(by_pair.edge_index(e.from, e.to), i);
      const std::int64_t bytes = rng.uniform_int(0, 100'000);
      now += sim::seconds(1);
      switch (rng.uniform_int(0, 2)) {
        case 0:
          by_edge.record(i, bytes);
          by_pair.record(e.from, e.to, bytes);
          break;
        case 1:
          by_edge.record_offered(i, bytes);
          by_pair.record_offered(e.from, e.to, bytes);
          break;
        default: {
          const auto got = by_edge.take_window(i, now);
          const auto want = by_pair.take_window(e.from, e.to, now);
          EXPECT_EQ(got.delivered, want.delivered);
          EXPECT_EQ(got.offered, want.offered);
        }
      }
      EXPECT_EQ(by_edge.total_bytes(i), by_pair.total_bytes(e.from, e.to));
    }
  }
  app::AppGraph repeated = pairs_app();
  repeated.add_dependency({.from = 1, .to = 2});
  EXPECT_EQ(TrafficStats(repeated).edge_index(1, 2), 0);
}

TEST(TrafficStats, PairThatIsNoEdgeIsIgnored) {
  TrafficStats stats(pairs_app());
  EXPECT_EQ(stats.edge_index(3, 4), -1);
  stats.record(3, 4, 1000);
  stats.record_offered(3, 4, 1000);
  EXPECT_EQ(stats.total_bytes(3, 4), 0);
  EXPECT_EQ(stats.take_window(3, 4, sim::seconds(1)).offered, 0);
  EXPECT_EQ(stats.total_bytes(1, 2), 0);
  EXPECT_EQ(stats.total_bytes(2, 1), 0);
}

struct MonitorFixture {
  sim::Simulation sim;
  std::unique_ptr<net::Network> network;

  // 3 nodes in a line, 20 Mbps links.
  MonitorFixture() {
    net::Topology topo;
    for (int i = 0; i < 3; ++i) topo.add_node();
    topo.add_link(0, 1, net::mbps(20));
    topo.add_link(1, 2, net::mbps(20));
    network = std::make_unique<net::Network>(sim, std::move(topo));
  }
};

TEST(NetMonitor, StartupFullProbesMeasureCapacity) {
  MonitorFixture f;
  NetMonitor monitor(*f.network);
  monitor.start();
  f.sim.run_until(sim::seconds(2));
  for (int l = 0; l < f.network->topology().link_count(); ++l) {
    EXPECT_NEAR(static_cast<double>(monitor.cached_capacity(l)), 20e6, 20e6 * 0.02)
        << "link " << l;
  }
  EXPECT_EQ(monitor.full_probe_count(), 4);
  monitor.stop();
}

TEST(NetMonitor, CachedPathCapacityIsBottleneck) {
  MonitorFixture f;
  NetMonitor monitor(*f.network);
  monitor.start();
  f.sim.run_until(sim::seconds(2));
  f.network->set_link_capacity_between(1, 2, net::mbps(5));
  // Cache still says 20 until the next probe discovers the change.
  EXPECT_NEAR(static_cast<double>(monitor.cached_path_capacity(0, 2)), 20e6, 1e6);
  monitor.full_probe(*f.network->topology().link_between(1, 2));
  f.sim.run_until(sim::seconds(4));
  EXPECT_NEAR(static_cast<double>(monitor.cached_path_capacity(0, 2)), 5e6, 0.5e6);
  monitor.stop();
}

TEST(NetMonitor, HeadroomProbesRunPeriodically) {
  MonitorFixture f;
  MonitorConfig cfg;
  cfg.probe_interval = sim::seconds(30);
  NetMonitor monitor(*f.network, cfg);
  monitor.start();
  f.sim.run_until(sim::minutes(2));
  // 4 links probed at t=30,60,90,120.
  EXPECT_EQ(monitor.headroom_probe_count(), 16);
  monitor.stop();
}

TEST(NetMonitor, HeadroomViolationDetectedAndFullProbeFollows) {
  MonitorFixture f;
  MonitorConfig cfg;
  cfg.probe_interval = sim::seconds(30);
  cfg.headroom_frac = 0.10;
  NetMonitor monitor(*f.network, cfg);

  int violations = 0;
  net::LinkId violated = net::kInvalidLink;
  monitor.set_violation_callback([&](net::LinkId l, net::Bps) {
    ++violations;
    violated = l;
  });
  monitor.start();
  f.sim.run_until(sim::seconds(5));

  // Saturate link 0->1 with app traffic and shrink that direction only:
  // the 2 Mbps headroom probe can no longer be delivered alongside the
  // demand. (The reverse direction stays healthy, pinning down which link
  // the violation fires for.)
  const auto link01 = *f.network->topology().link_between(0, 1);
  f.network->open_stream(0, 1, net::kUnlimitedRate);
  f.network->set_link_capacity(link01, net::mbps(1));

  f.sim.run_until(sim::minutes(2));
  EXPECT_GT(violations, 0);
  EXPECT_EQ(violated, link01);
  // The follow-up full probe updated the cache downward.
  EXPECT_LT(monitor.cached_capacity(link01), net::mbps(3));
  monitor.stop();
}

TEST(NetMonitor, HeadroomOkWhenLinkIdle) {
  MonitorFixture f;
  NetMonitor monitor(*f.network);
  monitor.start();
  f.sim.run_until(sim::minutes(2));
  for (int l = 0; l < f.network->topology().link_count(); ++l) {
    EXPECT_TRUE(monitor.headroom_ok(l));
  }
  monitor.stop();
}

TEST(NetMonitor, ProbeOverheadIsBounded) {
  // §6.3.4: 30 s interval, 1 s probes at 10 % capacity => ~0.33 % of link
  // traffic. Verify the measured overhead is in that ballpark.
  MonitorFixture f;
  NetMonitor monitor(*f.network);
  monitor.start();
  f.sim.run_until(sim::minutes(10));
  monitor.stop();
  const double probe_bytes = static_cast<double>(monitor.probe_bytes_sent());
  // Capacity-seconds available over 10 min on 4 links of 20 Mbps:
  const double capacity_bytes = 4 * 20e6 / 8 * 600;
  const double startup_flood = 4 * 20e6 / 8 * 1;  // one 1 s flood per link
  EXPECT_LT(probe_bytes - startup_flood, capacity_bytes * 0.005);
  EXPECT_GT(probe_bytes, 0);
}

TEST(MonitorNetworkView, ReflectsCache) {
  MonitorFixture f;
  NetMonitor monitor(*f.network);
  monitor.start();
  f.sim.run_until(sim::seconds(2));
  MonitorNetworkView view(monitor);
  EXPECT_EQ(view.link_count(), 4);
  EXPECT_NEAR(static_cast<double>(view.link_capacity(0)), 20e6, 1e6);
  EXPECT_NEAR(static_cast<double>(view.node_link_capacity(1)), 40e6, 2e6);
  EXPECT_EQ(view.path(0, 2).size(), 2u);
  EXPECT_NEAR(static_cast<double>(view.path_capacity(0, 2)), 20e6, 1e6);
  monitor.stop();
}

}  // namespace
}  // namespace bass::monitor

namespace bass::monitor {
namespace {

TEST(NetMonitor, DisplacementDetectedOnSaturatedLink) {
  // A saturated link still *delivers* a fair-share probe, but doing so
  // displaces application traffic — which must count as a headroom
  // violation (otherwise a congested link looks healthy to the probe).
  MonitorFixture f;
  NetMonitor monitor(*f.network);
  monitor.start();
  f.sim.run_until(sim::seconds(5));
  // Fill 0->1 completely with a backlogged stream at its full capacity.
  f.network->open_stream(0, 1, net::kUnlimitedRate);
  int violations = 0;
  monitor.set_violation_callback([&](net::LinkId, net::Bps) { ++violations; });
  f.sim.run_until(sim::minutes(2));
  EXPECT_GT(violations, 0);
  const auto link01 = *f.network->topology().link_between(0, 1);
  EXPECT_FALSE(monitor.headroom_ok(link01));
  monitor.stop();
}

TEST(NetMonitor, FullRefreshRecoversStaleLowCapacity) {
  MonitorFixture f;
  MonitorConfig cfg;
  cfg.probe_interval = sim::seconds(30);
  cfg.full_refresh_interval = sim::minutes(2);
  NetMonitor monitor(*f.network, cfg);
  monitor.start();
  f.sim.run_until(sim::seconds(5));

  const auto link01 = *f.network->topology().link_between(0, 1);
  // Degrade, let a violation-triggered full probe cache the low value.
  f.network->set_link_capacity(link01, net::mbps(2));
  // Saturate so the headroom probe notices the degradation.
  const auto hog = f.network->open_stream(0, 1, net::kUnlimitedRate);
  f.sim.run_until(sim::seconds(70));
  EXPECT_LT(monitor.cached_capacity(link01), net::mbps(5));
  // Recover the link; only the periodic refresh can discover it (headroom
  // probes are sized off the stale-low cache and keep passing).
  f.network->close_stream(hog);
  f.network->set_link_capacity(link01, net::mbps(20));
  f.sim.run_until(sim::minutes(5));
  EXPECT_GT(monitor.cached_capacity(link01), net::mbps(15));
  monitor.stop();
}

TEST(NetMonitor, AlwaysFullProbeAblationFloodsEveryRound) {
  MonitorFixture f;
  MonitorConfig cfg;
  cfg.probe_interval = sim::seconds(30);
  cfg.always_full_probe = true;
  cfg.full_refresh_interval = 0;
  NetMonitor monitor(*f.network, cfg);
  monitor.start();
  f.sim.run_until(sim::minutes(2));
  monitor.stop();
  EXPECT_EQ(monitor.headroom_probe_count(), 0);
  // Startup round (4) + 4 rounds x 4 links.
  EXPECT_EQ(monitor.full_probe_count(), 20);
}

TEST(NetMonitor, ViolationNotRaisedByBriefProbeOfIdleLink) {
  // Probing an idle link must never displace anything or fail.
  MonitorFixture f;
  NetMonitor monitor(*f.network);
  int violations = 0;
  monitor.set_violation_callback([&](net::LinkId, net::Bps) { ++violations; });
  monitor.start();
  f.sim.run_until(sim::minutes(5));
  EXPECT_EQ(violations, 0);
  monitor.stop();
}

}  // namespace
}  // namespace bass::monitor

namespace bass::monitor {
namespace {

// n x n grid of 20 Mbps links (both directions), no traffic.
std::unique_ptr<net::Network> grid_network(sim::Simulation& sim, int n) {
  net::Topology topo;
  for (int i = 0; i < n * n; ++i) topo.add_node();
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < n; ++c) {
      const net::NodeId node = r * n + c;
      if (c + 1 < n) topo.add_link(node, node + 1, net::mbps(20));
      if (r + 1 < n) topo.add_link(node, node + n, net::mbps(20));
    }
  }
  return std::make_unique<net::Network>(sim, std::move(topo));
}

TEST(NetMonitorBatching, HeadroomRoundCostsTwoPassesWhateverTheLinkCount) {
  for (const int n : {2, 4, 8}) {
    sim::Simulation sim;
    auto network = grid_network(sim, n);
    NetMonitor monitor(*network);
    monitor.start();
    sim.run_until(sim::seconds(29));
    const int probes_before = monitor.headroom_probe_count();
    const std::int64_t passes_before = network->reallocation_count();
    sim.run_until(sim::seconds(31) + 1);  // the round opens at 30 s, closes at 31 s
    EXPECT_EQ(monitor.headroom_probe_count() - probes_before,
              network->topology().link_count());
    EXPECT_LE(network->reallocation_count() - passes_before, 2) << n << "x" << n;
    monitor.stop();
  }
}

TEST(NetMonitorBatching, StartupFloodCostsTwoPasses) {
  sim::Simulation sim;
  auto network = grid_network(sim, 8);
  NetMonitor monitor(*network);
  const std::int64_t passes_before = network->reallocation_count();
  monitor.start();
  sim.run_until(sim::seconds(2));
  EXPECT_EQ(monitor.full_probe_count(), network->topology().link_count());
  EXPECT_LE(network->reallocation_count() - passes_before, 2);
  for (int l = 0; l < network->topology().link_count(); ++l) {
    EXPECT_NEAR(static_cast<double>(monitor.cached_capacity(l)), 20e6, 20e6 * 0.02);
  }
  monitor.stop();
}

// 0 -(20 Mbps)- 1 -(`second` Mbps)- 2 with one app stream 0->2 crossing
// both forward links, which the monitor probes in one batch.
struct TwoHopApp {
  sim::Simulation sim;
  std::unique_ptr<net::Network> network;
  net::LinkId first = net::kInvalidLink;
  net::LinkId second = net::kInvalidLink;

  TwoHopApp(net::Bps second_capacity, net::Bps app_demand) {
    net::Topology topo;
    for (int i = 0; i < 3; ++i) topo.add_node();
    topo.add_link(0, 1, net::mbps(20));
    topo.add_link(1, 2, second_capacity);
    network = std::make_unique<net::Network>(sim, std::move(topo));
    first = *network->topology().link_between(0, 1);
    second = *network->topology().link_between(1, 2);
    network->open_stream(0, 2, app_demand);
  }
};

TEST(NetMonitorBatching, OthersIsReadWithEveryProbeOfTheBatchOpen) {
  // Both floods open: the app gets 10 Mbps (its fair share of the first
  // link), the second link's probe 30 of its 40 Mbps. Read with both probes
  // still open, the second link's estimate is 30 + 10 = 40 Mbps. Had the
  // first probe closed before the second was read, the app would already
  // have climbed to 20 Mbps and the estimate would read 50.
  TwoHopApp f(net::mbps(40), net::kUnlimitedRate);
  NetMonitor monitor(*f.network);
  monitor.start();
  f.sim.run_until(sim::seconds(2));
  EXPECT_NEAR(static_cast<double>(monitor.cached_capacity(f.first)), 20e6, 1e3);
  EXPECT_NEAR(static_cast<double>(monitor.cached_capacity(f.second)), 40e6, 1e3);
  monitor.stop();
}

TEST(NetMonitorBatching, UsageBeforeIsReadBeforeAnyProbeOfTheBatchOpens) {
  // The app offers 19.5 Mbps over two 20 Mbps links, so neither link has
  // the 2 Mbps headroom a probe asks for: both probes displace the app
  // (19.5 -> 18 Mbps). Had the second link's usage_before been read after
  // the first probe opened, it would already show 18 Mbps and the second
  // link would wrongly pass.
  TwoHopApp f(net::mbps(20), net::kbps(19'500));
  MonitorConfig cfg;
  cfg.full_probe_on_violation = false;
  NetMonitor monitor(*f.network, cfg);
  std::vector<net::LinkId> violated;
  monitor.set_violation_callback([&](net::LinkId l, net::Bps) { violated.push_back(l); });
  monitor.start();
  f.sim.run_until(sim::seconds(29));
  EXPECT_TRUE(monitor.headroom_ok(f.first));
  EXPECT_TRUE(monitor.headroom_ok(f.second));
  f.sim.run_until(sim::seconds(32));
  EXPECT_FALSE(monitor.headroom_ok(f.first));
  EXPECT_FALSE(monitor.headroom_ok(f.second));
  EXPECT_EQ(violated, (std::vector<net::LinkId>{f.first, f.second}));
  monitor.stop();
}

TEST(NetMonitorBatching, ViolationFullProbesOpenAsOneBatch) {
  TwoHopApp f(net::mbps(20), net::kbps(19'500));
  NetMonitor monitor(*f.network);
  monitor.start();
  f.sim.run_until(sim::seconds(30) + 1);  // the round is open
  const int floods_before = monitor.full_probe_count();
  const std::int64_t passes_before = f.network->reallocation_count();
  f.sim.run_until(sim::seconds(31) + 1);
  EXPECT_EQ(monitor.violation_count(), 2);
  EXPECT_EQ(monitor.full_probe_count() - floods_before, 2);
  // One pass closes the round, one opens both re-estimating floods.
  EXPECT_EQ(f.network->reallocation_count() - passes_before, 2);
  monitor.stop();
}

TEST(NetMonitorBatching, ProbingLinkIsSkippedAndFullProbeStillCallsDone) {
  MonitorFixture f;
  MonitorConfig cfg;
  cfg.full_refresh_interval = 0;
  NetMonitor monitor(*f.network, cfg);
  monitor.start();
  f.sim.run_until(sim::seconds(29) + sim::millis(500));
  f.network->set_link_capacity(0, net::mbps(8));

  std::vector<net::Bps> results;
  monitor.full_probe(0, [&](net::Bps capacity) { results.push_back(capacity); });
  // Already probing: answered at once from the cache.
  monitor.full_probe(0, [&](net::Bps capacity) { results.push_back(capacity); });
  ASSERT_EQ(results.size(), 1u);
  EXPECT_NEAR(static_cast<double>(results[0]), 20e6, 20e6 * 0.02);

  // The round at 30 s skips link 0, which is still flooding.
  f.sim.run_until(sim::seconds(31));
  EXPECT_EQ(monitor.headroom_probe_count(), f.network->topology().link_count() - 1);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_NEAR(static_cast<double>(results[1]), 8e6, 8e6 * 0.02);
  EXPECT_EQ(monitor.cached_capacity(0), results[1]);
  monitor.stop();
}

TEST(NetMonitor, SkippedFloodIsNotCounted) {
  sim::Simulation sim;
  net::Topology topo;
  topo.add_node();
  topo.add_node();
  topo.add_link(0, 1, net::mbps(20));
  net::Network network(sim, std::move(topo));
  NetMonitor monitor(network);
  monitor.full_probe(0);
  monitor.full_probe(0);  // the link is already probing: skipped
  EXPECT_EQ(monitor.full_probe_count(), 1);
  sim.run_until(sim::seconds(2));
  EXPECT_EQ(monitor.full_probe_count(), 1);
  // One 20 Mbps x 1 s flood went out.
  EXPECT_NEAR(static_cast<double>(monitor.probe_bytes_sent()), 2'500'000.0, 25'000.0);
}

}  // namespace
}  // namespace bass::monitor
