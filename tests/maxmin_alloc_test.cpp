// Zero-allocation steady-state guarantees. The perf contract (DESIGN.md
// §5c) is that once the solver's arena and the engine's pools reach their
// workload high-water mark, churn rounds touch no allocator at all. These
// tests measure that with a global operator new/delete probe rather than
// trusting the arena's own bookkeeping: any allocation anywhere in the
// process during the measured window fails the test.
#include "alloc_probe.h"  // must be the only TU in this binary including it

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "net/maxmin.h"
#include "net/network.h"
#include "topo/city_grid.h"
#include "util/rng.h"

namespace bass::net {
namespace {

// A fixed pool of paths over a synthetic link space, with churn that
// mutates demands and swaps entities in and out — the access pattern
// Network generates, minus the engine.
struct SolverWorkload {
  std::vector<double> capacities;
  std::vector<std::vector<LinkId>> paths;
  std::vector<AllocEntityRef> entities;
  util::Rng rng{0xBA55};

  SolverWorkload(std::size_t links, std::size_t flows) {
    capacities.resize(links);
    for (auto& c : capacities) {
      c = static_cast<double>(mbps(rng.uniform_int(5, 100)));
    }
    paths.resize(flows);
    entities.resize(flows);
    for (std::size_t f = 0; f < flows; ++f) {
      const std::size_t hops = rng.uniform_int(1, 6);
      for (std::size_t h = 0; h < hops; ++h) {
        const LinkId l = static_cast<LinkId>(
            (f * 37 + h * 11 + rng.uniform_int(0, links - 1)) % links);
        bool dup = false;
        for (LinkId seen : paths[f]) dup |= (seen == l);
        if (!dup) paths[f].push_back(l);
      }
      entities[f] = {demand_for(f), paths[f]};
    }
  }

  double demand_for(std::size_t f) {
    if (rng.chance(0.2)) return static_cast<double>(kUnlimitedRate);
    (void)f;
    return static_cast<double>(mbps(rng.uniform_int(1, 50)));
  }

  // One churn round: a demand flip plus one entity leaving and re-entering
  // with a different path from the pool.
  void churn() {
    const std::size_t a = rng.uniform_int(0, entities.size() - 1);
    entities[a].demand = demand_for(a);
    const std::size_t b = rng.uniform_int(0, entities.size() - 1);
    const std::size_t p = rng.uniform_int(0, paths.size() - 1);
    entities[b] = {demand_for(b), paths[p]};
  }
};

TEST(MaxMinAlloc, SolverSteadyStateAllocatesNothing) {
  SolverWorkload w(/*links=*/120, /*flows=*/200);
  MaxMinSolver solver;

  for (int round = 0; round < 200; ++round) {  // warm-up: arena finds its high-water
    w.churn();
    solver.solve(w.capacities, w.entities);
  }
  const std::int64_t growths = solver.scratch_growths();

  const auto snap = testing::take_alloc_snapshot();
  for (int round = 0; round < 1000; ++round) {
    w.churn();
    solver.solve(w.capacities, w.entities);
  }
  EXPECT_EQ(testing::allocations_since(snap), 0);
  EXPECT_EQ(testing::bytes_since(snap), 0);
  EXPECT_EQ(solver.scratch_growths(), growths) << "arena grew after warm-up";
  EXPECT_GT(solver.scratch_bytes(), 0u);
}

TEST(MaxMinAlloc, ScalarPathIsAlsoZeroAlloc) {
  SolverWorkload w(/*links=*/60, /*flows=*/80);
  MaxMinSolver solver;
  solver.set_use_simd(false);
  for (int round = 0; round < 100; ++round) {
    w.churn();
    solver.solve(w.capacities, w.entities);
  }
  const auto snap = testing::take_alloc_snapshot();
  for (int round = 0; round < 300; ++round) {
    w.churn();
    solver.solve(w.capacities, w.entities);
  }
  EXPECT_EQ(testing::allocations_since(snap), 0);
}

// End-to-end: the engine's stream churn path (open → reallocate → close →
// reallocate) is allocation-free once slot pools, occupancy lists, and the
// solver arena are warm.
TEST(MaxMinAlloc, NetworkStreamChurnSteadyStateAllocatesNothing) {
  util::Rng rng(7);
  sim::Simulation sim;
  Topology topo;
  const int n = 32;
  for (int i = 0; i < n; ++i) topo.add_node();
  for (int i = 0; i < n; ++i) {
    topo.add_link(i, (i + 1) % n, mbps(rng.uniform_int(5, 60)));
  }
  for (int i = 0; i < n / 2; ++i) {
    const auto a = static_cast<NodeId>(rng.uniform_int(0, n - 1));
    const auto b = static_cast<NodeId>(rng.uniform_int(0, n - 1));
    if (a != b && !topo.link_between(a, b)) {
      topo.add_link(a, b, mbps(rng.uniform_int(5, 60)));
    }
  }
  Network network(sim, topo);

  // A steady state needs a recurring flow population: churn closes a stream
  // and reopens the same (src, dst, demand) triple, so the concurrent flow
  // multiset — and with it every per-link occupancy high-water mark — is
  // constant after the pool is first filled. (Fully random flows keep
  // setting new per-link occupancy records, which is legitimate amortized
  // vector growth, not steady state.)
  struct Triple {
    NodeId src, dst;
    Bps demand;
  };
  std::vector<Triple> triples;
  for (int i = 0; i < 48; ++i) {
    const auto src = static_cast<NodeId>(rng.uniform_int(0, n - 1));
    auto dst = static_cast<NodeId>(rng.uniform_int(0, n - 1));
    if (dst == src) dst = static_cast<NodeId>((dst + 1) % n);
    triples.push_back({src, dst, mbps(rng.uniform_int(1, 40))});
  }
  std::vector<StreamId> pool;
  pool.reserve(triples.size());
  for (const Triple& t : triples) {
    pool.push_back(network.open_stream(t.src, t.dst, t.demand));
  }

  auto churn = [&] {
    const std::size_t victim = rng.uniform_int(0, pool.size() - 1);
    network.close_stream(pool[victim]);
    const Triple& t = triples[victim];
    pool[victim] = network.open_stream(t.src, t.dst, t.demand);
  };
  for (int i = 0; i < 200; ++i) churn();  // warm-up: pools reach high-water

  const auto snap = testing::take_alloc_snapshot();
  for (int i = 0; i < 200; ++i) churn();
  EXPECT_EQ(testing::allocations_since(snap), 0)
      << "engine stream churn allocated after warm-up";
  EXPECT_EQ(network.stream_count(), 48u);
}

// Routing is lazy, so bringing a Network up costs a fixed number of
// allocations whatever the mesh size — no per-node or per-pair routes.
TEST(MaxMinAlloc, NetworkConstructionAllocationsIndependentOfSize) {
  const auto construction_allocs = [](int blocks_x, int blocks_y,
                                      RoutingPolicy policy) {
    topo::CityGridParams params;
    params.blocks_x = blocks_x;
    params.blocks_y = blocks_y;
    params.nodes_per_block = 4;
    auto grid = topo::make_city_grid(params);
    EXPECT_TRUE(grid.ok());
    Topology topology = std::move(grid.take().topology);
    sim::Simulation sim;
    NetworkConfig cfg;
    cfg.routing = policy;
    const auto snap = testing::take_alloc_snapshot();
    Network network(sim, std::move(topology), cfg);
    return testing::allocations_since(snap);
  };
  for (const auto policy : {RoutingPolicy::kMinHop, RoutingPolicy::kWidestPath}) {
    const std::int64_t small = construction_allocs(4, 4, policy);     // 64 nodes
    const std::int64_t large = construction_allocs(32, 16, policy);   // 2048 nodes
    EXPECT_GT(small, 0);
    EXPECT_EQ(small, large) << "policy " << static_cast<int>(policy);
  }
}

}  // namespace
}  // namespace bass::net
