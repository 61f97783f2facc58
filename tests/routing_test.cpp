#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <span>
#include <utility>
#include <vector>

#include "net/network.h"
#include "net/routing.h"
#include "topo/city_grid.h"
#include "util/rng.h"

namespace bass::net {
namespace {

// Line topology a - b - c - d.
Topology line4() {
  Topology t;
  const NodeId a = t.add_node(), b = t.add_node(), c = t.add_node(), d = t.add_node();
  t.add_link(a, b, mbps(10));
  t.add_link(b, c, mbps(10));
  t.add_link(c, d, mbps(10));
  return t;
}

TEST(Routing, DirectNeighbor) {
  Topology t = line4();
  RoutingTable rt(t);
  EXPECT_EQ(rt.hops(0, 1), 1);
  ASSERT_EQ(rt.path(0, 1).size(), 1u);
  EXPECT_EQ(t.link(rt.path(0, 1)[0]).dst, 1);
}

TEST(Routing, MultiHopPathIsConnected) {
  Topology t = line4();
  RoutingTable rt(t);
  const auto& p = rt.path(0, 3);
  ASSERT_EQ(p.size(), 3u);
  NodeId at = 0;
  for (LinkId l : p) {
    EXPECT_EQ(t.link(l).src, at);
    at = t.link(l).dst;
  }
  EXPECT_EQ(at, 3);
}

TEST(Routing, SelfPathIsEmpty) {
  Topology t = line4();
  RoutingTable rt(t);
  EXPECT_TRUE(rt.path(2, 2).empty());
  EXPECT_EQ(rt.hops(2, 2), 0);
  EXPECT_TRUE(rt.reachable(2, 2));
}

TEST(Routing, PrefersShortestHopCount) {
  // Square with a diagonal: a-b, b-c, a-c. a->c should use the diagonal.
  Topology t;
  const NodeId a = t.add_node(), b = t.add_node(), c = t.add_node();
  t.add_link(a, b, mbps(10));
  t.add_link(b, c, mbps(10));
  t.add_link(a, c, mbps(1));
  RoutingTable rt(t);
  EXPECT_EQ(rt.hops(a, c), 1);
}

TEST(Routing, UnreachablePartition) {
  Topology t;
  const NodeId a = t.add_node(), b = t.add_node(), c = t.add_node(), d = t.add_node();
  t.add_link(a, b, mbps(10));
  t.add_link(c, d, mbps(10));
  RoutingTable rt(t);
  EXPECT_FALSE(rt.reachable(a, c));
  EXPECT_TRUE(rt.path(a, c).empty());
  EXPECT_TRUE(rt.reachable(a, b));
}

TEST(Routing, DeterministicTieBreak) {
  // Two equal-length routes a->d: via b or via c. BFS explores out-links in
  // insertion order, so the route must go via b (added first) every time.
  Topology t;
  const NodeId a = t.add_node(), b = t.add_node(), c = t.add_node(), d = t.add_node();
  t.add_link(a, b, mbps(10));
  t.add_link(a, c, mbps(10));
  t.add_link(b, d, mbps(10));
  t.add_link(c, d, mbps(10));
  RoutingTable rt(t);
  ASSERT_EQ(rt.path(a, d).size(), 2u);
  EXPECT_EQ(t.link(rt.path(a, d)[0]).dst, b);
  RoutingTable rt2(t);
  EXPECT_TRUE(std::ranges::equal(rt.path(a, d), rt2.path(a, d)));
}

TEST(Routing, SymmetricReachability) {
  Topology t = line4();
  RoutingTable rt(t);
  for (NodeId u = 0; u < 4; ++u) {
    for (NodeId v = 0; v < 4; ++v) {
      EXPECT_EQ(rt.hops(u, v), rt.hops(v, u));
    }
  }
}

}  // namespace
}  // namespace bass::net

namespace bass::net {
namespace {

// Diamond: a-b-d is wide (20,20), a-c-d is narrow (5,5), plus a direct
// skinny a-d link (2).
Topology diamond() {
  Topology t;
  const NodeId a = t.add_node(), b = t.add_node(), c = t.add_node(), d = t.add_node();
  t.add_link(a, b, mbps(20));
  t.add_link(b, d, mbps(20));
  t.add_link(a, c, mbps(5));
  t.add_link(c, d, mbps(5));
  t.add_link(a, d, mbps(2));
  return t;
}

TEST(WidestPath, PrefersFatTwoHopOverSkinnyDirect) {
  Topology t = diamond();
  RoutingTable min_hop(t, RoutingPolicy::kMinHop);
  RoutingTable widest(t, RoutingPolicy::kWidestPath);
  // Min-hop takes the direct 2 Mbps link; widest goes via b at 20 Mbps.
  EXPECT_EQ(min_hop.hops(0, 3), 1);
  ASSERT_EQ(widest.hops(0, 3), 2);
  Bps bottleneck = kUnlimitedRate;
  for (LinkId l : widest.path(0, 3)) bottleneck = std::min(bottleneck, t.link(l).capacity);
  EXPECT_EQ(bottleneck, mbps(20));
}

TEST(WidestPath, TieBreaksByHops) {
  // Equal-width routes: direct (10) vs 2-hop (10,10): prefer direct.
  Topology t;
  const NodeId a = t.add_node(), b = t.add_node(), c = t.add_node();
  t.add_link(a, c, mbps(10));
  t.add_link(a, b, mbps(10));
  t.add_link(b, c, mbps(10));
  RoutingTable widest(t, RoutingPolicy::kWidestPath);
  EXPECT_EQ(widest.hops(a, c), 1);
}

TEST(WidestPath, PathsAreConnectedAndReachable) {
  Topology t = diamond();
  RoutingTable widest(t, RoutingPolicy::kWidestPath);
  for (NodeId u = 0; u < 4; ++u) {
    for (NodeId v = 0; v < 4; ++v) {
      EXPECT_TRUE(widest.reachable(u, v));
      if (u == v) continue;
      NodeId at = u;
      for (LinkId l : widest.path(u, v)) {
        EXPECT_EQ(t.link(l).src, at);
        at = t.link(l).dst;
      }
      EXPECT_EQ(at, v);
    }
  }
}

TEST(WidestPath, RoutesHoldUntilANewTableIsBuilt) {
  Topology t = diamond();
  RoutingTable widest(t, RoutingPolicy::kWidestPath);
  // Fatten the direct link beyond the b route before any lookup: the table
  // routes on its construction-time capacities, so the route stays put
  // (routes are computed once and held stable) ...
  t.set_capacity(*t.link_between(0, 3), mbps(50));
  EXPECT_EQ(widest.hops(0, 3), 2);
  // ... and a table built afterwards sees the new capacity.
  RoutingTable rebuilt(t, RoutingPolicy::kWidestPath);
  EXPECT_EQ(rebuilt.hops(0, 3), 1);
}

TEST(WidestPath, NetworkUsesConfiguredPolicy) {
  bass::sim::Simulation sim;
  NetworkConfig cfg;
  cfg.routing = RoutingPolicy::kWidestPath;
  Network network(sim, diamond(), cfg);
  EXPECT_EQ(network.routing().policy(), RoutingPolicy::kWidestPath);
  // Transfers follow the wide route: a 20 Mbit transfer at 20 Mbps takes
  // ~1 s (the skinny direct link would take 10 s).
  bass::sim::Time done_at = -1;
  network.start_transfer(0, 3, 20'000'000 / 8, [&] { done_at = sim.now(); });
  sim.run_all();
  EXPECT_NEAR(bass::sim::to_seconds(done_at), 1.0, 0.05);
}

}  // namespace
}  // namespace bass::net

// ---- Lazy table vs the eager all-pairs tables it replaced ----

namespace bass::net {
namespace {

// The eager all-pairs routing the lazy table replaced, kept as the oracle:
// one BFS (or O(n²) selection-scan widest Dijkstra) per source, every route
// materialized up front.
struct EagerRoutes {
  int n = 0;
  std::vector<std::vector<LinkId>> paths;  // paths[src * n + dst]
  std::vector<bool> reachable;

  const std::vector<LinkId>& path(NodeId s, NodeId d) const {
    return paths[static_cast<std::size_t>(s) * n + d];
  }
  bool reach(NodeId s, NodeId d) const {
    return reachable[static_cast<std::size_t>(s) * n + d];
  }
};

void store_routes(EagerRoutes& out, NodeId src,
                  const std::vector<bool>& seen, const std::vector<NodeId>& parent,
                  const std::vector<LinkId>& in_link) {
  for (NodeId dst = 0; dst < out.n; ++dst) {
    if (!seen[dst]) continue;
    out.reachable[static_cast<std::size_t>(src) * out.n + dst] = true;
    if (dst == src) continue;
    std::vector<LinkId> rev;
    for (NodeId v = dst; v != src; v = parent[v]) rev.push_back(in_link[v]);
    std::reverse(rev.begin(), rev.end());
    out.paths[static_cast<std::size_t>(src) * out.n + dst] = std::move(rev);
  }
}

EagerRoutes eager_routes(const Topology& t, RoutingPolicy policy) {
  EagerRoutes out;
  out.n = t.node_count();
  const int n = out.n;
  out.paths.assign(static_cast<std::size_t>(n) * n, {});
  out.reachable.assign(static_cast<std::size_t>(n) * n, false);
  for (NodeId src = 0; src < n; ++src) {
    std::vector<LinkId> in_link(n, kInvalidLink);
    std::vector<NodeId> parent(n, kInvalidNode);
    std::vector<bool> seen(n, false);
    if (policy == RoutingPolicy::kMinHop) {
      std::queue<NodeId> queue;
      seen[src] = true;
      queue.push(src);
      while (!queue.empty()) {
        const NodeId u = queue.front();
        queue.pop();
        for (LinkId l : t.out_links(u)) {
          const NodeId v = t.link(l).dst;
          if (seen[v]) continue;
          seen[v] = true;
          parent[v] = u;
          in_link[v] = l;
          queue.push(v);
        }
      }
    } else {
      std::vector<Bps> width(n, -1);
      std::vector<int> hops(n, 0);
      std::vector<bool> done(n, false);
      width[src] = kUnlimitedRate;
      for (int round = 0; round < n; ++round) {
        NodeId u = kInvalidNode;
        for (NodeId v = 0; v < n; ++v) {
          if (done[v] || width[v] < 0) continue;
          if (u == kInvalidNode || width[v] > width[u] ||
              (width[v] == width[u] && hops[v] < hops[u])) {
            u = v;
          }
        }
        if (u == kInvalidNode) break;
        done[u] = true;
        for (LinkId l : t.out_links(u)) {
          const NodeId v = t.link(l).dst;
          if (done[v]) continue;
          const Bps through = std::min(width[u], t.link(l).capacity);
          const int h = hops[u] + 1;
          if (through > width[v] || (through == width[v] && h < hops[v])) {
            width[v] = through;
            hops[v] = h;
            parent[v] = u;
            in_link[v] = l;
          }
        }
      }
      for (NodeId v = 0; v < n; ++v) seen[v] = width[v] >= 0;
    }
    store_routes(out, src, seen, parent, in_link);
  }
  return out;
}

// A random mesh with ties, parallel links, one-way links and a part no
// node of the main part can reach (nodes [main, n)).
Topology random_mesh(util::Rng& rng) {
  Topology t;
  const int n = static_cast<int>(rng.uniform_int(12, 40));
  const int main = n - static_cast<int>(rng.uniform_int(2, 5));
  for (int i = 0; i < n; ++i) t.add_node();
  // Few distinct capacities, so widest-path ties are common.
  const auto cap = [&rng] { return mbps(10 * rng.uniform_int(1, 4)); };
  const auto connect = [&](int lo, int hi) {
    for (int v = lo + 1; v < hi; ++v) {  // random spanning tree
      const auto u = static_cast<NodeId>(rng.uniform_int(lo, v - 1));
      t.add_link(u, v, cap(), cap());
    }
    for (int e = 0; e < (hi - lo) / 2; ++e) {  // extra links
      const auto a = static_cast<NodeId>(rng.uniform_int(lo, hi - 1));
      const auto b = static_cast<NodeId>(rng.uniform_int(lo, hi - 1));
      if (a == b) continue;
      if (rng.chance(0.5)) {
        t.add_directed_link(a, b, cap());  // one-way, maybe parallel
      } else if (!t.link_between(a, b) && !t.link_between(b, a)) {
        t.add_link(a, b, cap(), cap());
      }
    }
  };
  connect(0, main);
  connect(main, n);
  // The second part may reach the main part, never the reverse.
  t.add_directed_link(static_cast<NodeId>(n - 1), 0, cap());
  // Parallel links with the same endpoints as existing ones.
  for (int i = 0; i < 3; ++i) {
    const Link l = t.link(static_cast<LinkId>(rng.uniform_int(0, t.link_count() - 1)));
    t.add_directed_link(l.src, l.dst, cap());
  }
  return t;
}

Topology city_grid() {
  topo::CityGridParams params;
  params.blocks_x = 6;
  params.blocks_y = 4;
  params.gateway_every = 5;
  auto grid = topo::make_city_grid(params);
  EXPECT_TRUE(grid.ok());
  return std::move(grid.take().topology);
}

// Visits every (src, dst) pair in a seeded random order, so trees and
// routes are built in an order unrelated to node ids.
void expect_matches_eager(const Topology& t, const RoutingTable& lazy,
                          const EagerRoutes& eager, std::uint64_t seed) {
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (NodeId s = 0; s < t.node_count(); ++s) {
    for (NodeId d = 0; d < t.node_count(); ++d) pairs.emplace_back(s, d);
  }
  util::Rng rng(seed);
  std::shuffle(pairs.begin(), pairs.end(), rng.engine());
  for (const auto& [s, d] : pairs) {
    // Alternate which query touches the pair first.
    switch ((s + d) % 3) {
      case 0:
        ASSERT_EQ(lazy.reachable(s, d), eager.reach(s, d)) << s << "->" << d;
        break;
      case 1:
        ASSERT_EQ(lazy.hops(s, d), static_cast<int>(eager.path(s, d).size()))
            << s << "->" << d;
        break;
      default:
        break;
    }
    const std::span<const LinkId> path = lazy.path(s, d);
    ASSERT_TRUE(std::ranges::equal(path, eager.path(s, d))) << s << "->" << d;
    ASSERT_EQ(lazy.hops(s, d), static_cast<int>(path.size()));
    ASSERT_EQ(lazy.reachable(s, d), eager.reach(s, d)) << s << "->" << d;
  }
}

TEST(LazyRouting, MatchesEagerTableOnRandomMeshes) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    util::Rng rng(seed);
    const Topology t = random_mesh(rng);
    for (const auto policy : {RoutingPolicy::kMinHop, RoutingPolicy::kWidestPath}) {
      SCOPED_TRACE(::testing::Message() << "seed " << seed << " policy "
                                      << static_cast<int>(policy));
      const RoutingTable lazy(t, policy);
      expect_matches_eager(t, lazy, eager_routes(t, policy), seed);
    }
  }
}

TEST(LazyRouting, MatchesEagerTableOnCityGrid) {
  const Topology t = city_grid();
  for (const auto policy : {RoutingPolicy::kMinHop, RoutingPolicy::kWidestPath}) {
    const RoutingTable lazy(t, policy);
    expect_matches_eager(t, lazy, eager_routes(t, policy), 7);
  }
}

TEST(LazyRouting, WidestRoutesUseConstructionCapacities) {
  util::Rng rng(11);
  const Topology original = random_mesh(rng);
  const EagerRoutes reference = eager_routes(original, RoutingPolicy::kWidestPath);
  sim::Simulation sim;
  NetworkConfig cfg;
  cfg.routing = RoutingPolicy::kWidestPath;
  Network network(sim, original, cfg);
  // Reshape capacities before any route is asked for: lazily built trees
  // must not see them.
  for (LinkId l = 0; l < original.link_count(); ++l) {
    network.set_link_capacity(l, mbps(rng.uniform_int(1, 90)));
  }
  ASSERT_NE(network.topology().link(0).capacity, original.link(0).capacity);
  expect_matches_eager(original, network.routing(), reference, 11);
}

TEST(LazyRouting, SpansAreStableAcrossLaterMaterialization) {
  const Topology t = city_grid();
  for (const auto policy : {RoutingPolicy::kMinHop, RoutingPolicy::kWidestPath}) {
    const RoutingTable rt(t, policy);
    const NodeId far = static_cast<NodeId>(t.node_count() - 1);
    const NodeId neighbour = t.link(t.out_links(0).front()).dst;
    // A one-hop route taken before node 0 has a tree, and a long route.
    const std::span<const LinkId> one = rt.path(0, neighbour);
    const std::span<const LinkId> longest = rt.path(0, far);
    ASSERT_EQ(one.size(), 1u);
    ASSERT_GT(longest.size(), 2u);
    const std::vector<LinkId> one_copy(one.begin(), one.end());
    const std::vector<LinkId> longest_copy(longest.begin(), longest.end());
    for (NodeId s = 0; s < t.node_count(); ++s) {
      for (NodeId d = 0; d < t.node_count(); ++d) rt.path(s, d);
    }
    EXPECT_EQ(rt.path(0, neighbour).data(), one.data());
    EXPECT_EQ(rt.path(0, far).data(), longest.data());
    EXPECT_TRUE(std::ranges::equal(one, one_copy));
    EXPECT_TRUE(std::ranges::equal(longest, longest_copy));
  }
}

TEST(LazyRouting, StateGrowsWithRoutesUsed) {
  const Topology t = city_grid();
  const RoutingTable rt(t);
  EXPECT_EQ(rt.trees_built(), 0);
  EXPECT_EQ(rt.routes_interned(), 0);
  const std::size_t seeded = rt.pool_bytes();
  EXPECT_EQ(seeded, static_cast<std::size_t>(t.link_count()) * sizeof(LinkId));
  // Every link's one-hop route (the monitor's probe sweep) builds nothing.
  for (const Link& l : t.links()) {
    EXPECT_EQ(rt.hops(l.src, l.dst), 1);
    EXPECT_TRUE(rt.reachable(l.src, l.dst));
  }
  EXPECT_EQ(rt.trees_built(), 0);
  EXPECT_EQ(rt.pool_bytes(), seeded);
  // A multi-hop route builds its source's tree and interns one route, once.
  const NodeId far = static_cast<NodeId>(t.node_count() - 1);
  rt.path(0, far);
  rt.path(0, far);
  EXPECT_EQ(rt.trees_built(), 1);
  EXPECT_EQ(rt.routes_interned(), 1);
  EXPECT_GT(rt.pool_bytes(), seeded);
  rt.hops(far, 0);  // a tree without a materialized route
  EXPECT_EQ(rt.trees_built(), 2);
  EXPECT_EQ(rt.routes_interned(), 1);
}

TEST(LazyRouting, NetworkMirrorsRouteStateIntoMetrics) {
  sim::Simulation sim;
  Network network(sim, line4());
  network.routing().path(0, 2);  // before the recorder: counted on attach
  obs::Recorder recorder;
  network.set_recorder(&recorder);
  network.open_stream(3, 0, mbps(1));
  auto& metrics = recorder.metrics();
  EXPECT_EQ(metrics.counter("net.routing.trees").value(), 2);
  EXPECT_EQ(metrics.counter("net.routing.routes").value(), 2);
  EXPECT_EQ(metrics.gauge("net.routing.pool_bytes").value(),
            static_cast<double>(network.routing().pool_bytes()));
}

}  // namespace
}  // namespace bass::net
