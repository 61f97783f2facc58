// Property suite for the allocation fast path. Two layers of oracle:
//
//  1. Kernel: the active-set MaxMinSolver must produce rates identical
//     (within kAllocEps-scale tolerance) to the retained brute-force
//     reference kernel on random instances.
//  2. Engine: a Network driven through random topology/flow/capacity churn
//     must report, after every mutation, exactly the rates a from-scratch
//     reference allocation over its current flow set would assign — the
//     invariant that incremental contention-component reallocation is
//     indistinguishable from recomputing the world.
//
// Plus focused checks that a change reprices only its contention component
// (via the flows-touched counter), which is the whole point of the engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "net/network.h"
#include "util/rng.h"

namespace bass::net {
namespace {

constexpr double kUnlimited = static_cast<double>(kUnlimitedRate);

// Rates live on the 1e5..5e7 bps scale; both kernels freeze at kAllocEps
// thresholds, so agreement well below 1 bps is expected.
constexpr double kRateTol = 1.0;

// ---- Layer 1: kernel vs. brute-force reference ----

struct KernelCase {
  std::uint64_t seed;
};

class KernelEquivalence : public ::testing::TestWithParam<KernelCase> {};

TEST_P(KernelEquivalence, ActiveSetMatchesReference) {
  util::Rng rng(GetParam().seed);
  const int n_links = static_cast<int>(rng.uniform_int(1, 64));
  const int n_flows = static_cast<int>(rng.uniform_int(1, 128));
  std::vector<double> caps;
  for (int l = 0; l < n_links; ++l) {
    // Include dead links and huge spreads to stress freeze thresholds.
    caps.push_back(rng.chance(0.05) ? 0.0 : rng.uniform(1e5, 50e6));
  }
  std::vector<AllocEntity> entities;
  for (int f = 0; f < n_flows; ++f) {
    AllocEntity e;
    e.demand = rng.chance(0.3) ? kUnlimited : rng.uniform(0.1e6, 40e6);
    if (rng.chance(0.05)) e.demand = 0.0;  // idle entity
    const int path_len = static_cast<int>(rng.uniform_int(1, std::min(n_links, 6)));
    for (int i = 0; i < path_len; ++i) {
      const LinkId l = static_cast<LinkId>(rng.uniform_int(0, n_links - 1));
      if (std::find(e.links.begin(), e.links.end(), l) == e.links.end()) {
        e.links.push_back(l);
      }
    }
    entities.push_back(std::move(e));
  }

  const auto fast = max_min_allocate(caps, entities);
  const auto ref = max_min_allocate_reference(caps, entities);
  ASSERT_EQ(fast.size(), ref.size());
  for (std::size_t f = 0; f < ref.size(); ++f) {
    EXPECT_NEAR(fast[f], ref[f], kRateTol) << "flow " << f;
  }
}

TEST_P(KernelEquivalence, SolverScratchReuseIsClean) {
  // Back-to-back solves on one solver instance must match fresh solves:
  // stamped scratch may not leak state between calls.
  util::Rng rng(GetParam().seed + 7000);
  MaxMinSolver solver;
  for (int round = 0; round < 8; ++round) {
    const int n_links = static_cast<int>(rng.uniform_int(1, 16));
    const int n_flows = static_cast<int>(rng.uniform_int(1, 24));
    std::vector<double> caps;
    for (int l = 0; l < n_links; ++l) caps.push_back(rng.uniform(1e6, 30e6));
    std::vector<AllocEntity> owned;
    std::vector<AllocEntityRef> refs;
    for (int f = 0; f < n_flows; ++f) {
      AllocEntity e;
      e.demand = rng.chance(0.4) ? kUnlimited : rng.uniform(0.5e6, 20e6);
      e.links.push_back(static_cast<LinkId>(rng.uniform_int(0, n_links - 1)));
      owned.push_back(std::move(e));
    }
    for (const AllocEntity& e : owned) refs.push_back({e.demand, e.links});
    const auto& fast = solver.solve(caps, refs);
    const auto ref = max_min_allocate_reference(caps, owned);
    for (std::size_t f = 0; f < ref.size(); ++f) {
      EXPECT_NEAR(fast[f], ref[f], kRateTol) << "round " << round << " flow " << f;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, KernelEquivalence,
                         ::testing::Values(KernelCase{1}, KernelCase{2}, KernelCase{3},
                                           KernelCase{4}, KernelCase{5}, KernelCase{6},
                                           KernelCase{7}, KernelCase{8}, KernelCase{9},
                                           KernelCase{10}, KernelCase{11}, KernelCase{12},
                                           KernelCase{13}, KernelCase{14}, KernelCase{15},
                                           KernelCase{16}, KernelCase{17}, KernelCase{18},
                                           KernelCase{19}, KernelCase{20}));

// ---- Layer 2: incremental engine vs. from-scratch reference ----

// Shadow model of the Network's flow set, independent of its entity cache.
struct Shadow {
  struct Flow {
    NodeId src, dst;
    double demand;  // kUnlimited for backlogged channels
    bool is_stream;
    StreamId stream = 0;
  };
  std::map<std::pair<NodeId, NodeId>, int> channel_backlog;  // queued transfers
  std::vector<std::pair<StreamId, Flow>> streams;            // open mesh streams

  // From-scratch allocation over the current flow set, using the retained
  // reference kernel — the oracle the incremental engine must match.
  std::map<StreamId, double> reference_rates(const Network& net) const {
    std::vector<double> caps(static_cast<std::size_t>(net.topology().link_count()));
    for (int l = 0; l < net.topology().link_count(); ++l) {
      caps[static_cast<std::size_t>(l)] =
          static_cast<double>(net.topology().link(l).capacity);
    }
    const auto owned_path = [&net](NodeId src, NodeId dst) {
      const std::span<const LinkId> path = net.routing().path(src, dst);
      return std::vector<LinkId>(path.begin(), path.end());
    };
    std::vector<AllocEntity> entities;
    std::vector<StreamId> ids;
    for (const auto& [pair, backlog] : channel_backlog) {
      if (backlog <= 0) continue;
      entities.push_back({kUnlimited, owned_path(pair.first, pair.second)});
      ids.push_back(0);  // channel: no stream id
    }
    for (const auto& [id, flow] : streams) {
      if (flow.demand <= 0.0) continue;
      entities.push_back({flow.demand, owned_path(flow.src, flow.dst)});
      ids.push_back(id);
    }
    const auto rates = max_min_allocate_reference(caps, entities);
    std::map<StreamId, double> by_stream;
    for (std::size_t i = 0; i < rates.size(); ++i) {
      if (ids[i] != 0) by_stream[ids[i]] = rates[i];
    }
    return by_stream;
  }
};

struct ChurnCase {
  std::uint64_t seed;
};

class IncrementalEquivalence : public ::testing::TestWithParam<ChurnCase> {};

TEST_P(IncrementalEquivalence, ChurnMatchesFromScratchReference) {
  util::Rng rng(GetParam().seed * 7919);
  sim::Simulation sim;

  // Random topology of 2-4 islands so contention components are real:
  // rings with chords per island, no links between islands.
  Topology topo;
  const int islands = static_cast<int>(rng.uniform_int(2, 4));
  std::vector<std::vector<NodeId>> members(static_cast<std::size_t>(islands));
  for (int i = 0; i < islands; ++i) {
    const int n = static_cast<int>(rng.uniform_int(3, 6));
    for (int k = 0; k < n; ++k) {
      members[static_cast<std::size_t>(i)].push_back(topo.add_node());
    }
    const auto& isle = members[static_cast<std::size_t>(i)];
    for (std::size_t k = 0; k < isle.size(); ++k) {
      topo.add_link(isle[k], isle[(k + 1) % isle.size()],
                    mbps(rng.uniform_int(2, 30)));
    }
    if (isle.size() >= 4 && rng.chance(0.5)) {
      topo.add_link(isle[0], isle[2], mbps(rng.uniform_int(2, 30)));
    }
  }
  // Zero per-hop latency so completion callbacks land in the same
  // run_until() window as the channel deactivation they report — the
  // shadow's channel set then exactly mirrors the engine's at check time.
  NetworkConfig cfg;
  cfg.per_hop_latency = 0;
  Network net(sim, topo, cfg);
  Shadow shadow;

  auto random_pair = [&](NodeId& src, NodeId& dst) {
    const auto& isle =
        members[static_cast<std::size_t>(rng.uniform_int(0, islands - 1))];
    src = isle[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(isle.size()) - 1))];
    do {
      dst = isle[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(isle.size()) - 1))];
    } while (dst == src);
  };

  auto check = [&] {
    const auto expected = shadow.reference_rates(net);
    for (const auto& [id, rate] : expected) {
      EXPECT_NEAR(static_cast<double>(net.stream_rate(id)), rate, kRateTol)
          << "stream " << id;
    }
    for (int l = 0; l < topo.link_count(); ++l) {
      EXPECT_LE(net.link_allocated(l), net.link_capacity(l) + 1)
          << "link " << l << " oversubscribed";
    }
  };

  // 120 random mutations: stream open/close/demand-change, transfer
  // start/completion (via time advance), capacity churn — sometimes
  // batched like a trace tick.
  for (int step = 0; step < 120; ++step) {
    const double op = rng.uniform(0.0, 1.0);
    if (op < 0.25) {
      NodeId src, dst;
      random_pair(src, dst);
      const Bps demand = rng.chance(0.2) ? 0 : mbps(rng.uniform_int(1, 20));
      const StreamId id = net.open_stream(src, dst, demand);
      shadow.streams.push_back(
          {id, {src, dst, static_cast<double>(demand), true, id}});
    } else if (op < 0.4 && !shadow.streams.empty()) {
      const auto idx = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(shadow.streams.size()) - 1));
      net.close_stream(shadow.streams[idx].first);
      shadow.streams.erase(shadow.streams.begin() +
                           static_cast<std::ptrdiff_t>(idx));
    } else if (op < 0.55 && !shadow.streams.empty()) {
      const auto idx = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(shadow.streams.size()) - 1));
      const Bps demand = rng.chance(0.2) ? 0 : mbps(rng.uniform_int(1, 20));
      net.set_stream_demand(shadow.streams[idx].first, demand);
      shadow.streams[idx].second.demand = static_cast<double>(demand);
    } else if (op < 0.7) {
      NodeId src, dst;
      random_pair(src, dst);
      const auto key = std::make_pair(src, dst);
      ++shadow.channel_backlog[key];
      net.start_transfer(src, dst, rng.uniform_int(100'000, 5'000'000),
                         [&shadow, key] { --shadow.channel_backlog[key]; });
    } else if (op < 0.9) {
      // Trace tick: batch-update 1-4 random links.
      Network::BatchUpdate batch(net);
      const int updates = static_cast<int>(rng.uniform_int(1, 4));
      for (int u = 0; u < updates; ++u) {
        const LinkId l =
            static_cast<LinkId>(rng.uniform_int(0, topo.link_count() - 1));
        net.set_link_capacity(l, mbps(rng.uniform_int(1, 30)));
      }
    } else {
      // Let transfers drain / complete so channels churn too.
      sim.run_until(sim.now() + sim::millis(rng.uniform_int(50, 2000)));
    }
    check();
  }
  sim.run_all();
  check();
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalEquivalence,
                         ::testing::Values(ChurnCase{1}, ChurnCase{2}, ChurnCase{3},
                                           ChurnCase{4}, ChurnCase{5}, ChurnCase{6},
                                           ChurnCase{7}, ChurnCase{8}, ChurnCase{9},
                                           ChurnCase{10}, ChurnCase{11}, ChurnCase{12}));

// ---- Contention-component isolation ----

TEST(ContentionComponents, CapacityChangeTouchesOnlyItsComponent) {
  sim::Simulation sim;
  // Two disjoint islands: 0-1-2 (line) and 3-4-5 (line).
  Topology topo;
  for (int i = 0; i < 6; ++i) topo.add_node();
  topo.add_link(0, 1, mbps(10));
  topo.add_link(1, 2, mbps(10));
  topo.add_link(3, 4, mbps(10));
  topo.add_link(4, 5, mbps(10));
  Network net(sim, topo);

  // Island A: 3 flows across 0-1-2. Island B: 2 flows across 3-4-5.
  net.open_stream(0, 2, mbps(6));
  net.open_stream(0, 1, mbps(6));
  net.open_stream(1, 2, mbps(6));
  const StreamId b1 = net.open_stream(3, 5, mbps(6));
  const StreamId b2 = net.open_stream(3, 4, mbps(6));

  // A capacity blip on island A's 0->1 link must reprice only island A.
  const auto before = net.alloc_stats().flows_touched;
  if (auto l = net.topology().link_between(0, 1)) {
    net.set_link_capacity(*l, mbps(4));
  }
  EXPECT_EQ(net.alloc_stats().last_flows_touched, 3);
  EXPECT_EQ(net.alloc_stats().flows_touched - before, 3);
  // Island B's rates are untouched (and still correct).
  EXPECT_NEAR(static_cast<double>(net.stream_rate(b1)), 5e6, kRateTol);
  EXPECT_NEAR(static_cast<double>(net.stream_rate(b2)), 5e6, kRateTol);
}

TEST(ContentionComponents, DisjointPathsOnSharedIslandStayIndependent) {
  sim::Simulation sim;
  // Star: center 0 with leaves 1..4. Flow 1->0 and flow 2->0 share no
  // directed link with flow 0->3, so they are separate components even in
  // one connected island.
  Topology topo;
  for (int i = 0; i < 5; ++i) topo.add_node();
  topo.add_link(0, 1, mbps(10));
  topo.add_link(0, 2, mbps(10));
  topo.add_link(0, 3, mbps(10));
  topo.add_link(0, 4, mbps(10));
  Network net(sim, topo);

  net.open_stream(1, 0, mbps(8));
  net.open_stream(0, 3, mbps(8));
  net.open_stream(0, 4, mbps(8));

  if (auto l = net.topology().link_between(1, 0)) {
    net.set_link_capacity(*l, mbps(3));
  }
  // Only the 1->0 stream shares the dirtied directed link.
  EXPECT_EQ(net.alloc_stats().last_flows_touched, 1);
}

TEST(ContentionComponents, IdleLinkChangeTouchesNoFlows) {
  sim::Simulation sim;
  Topology topo;
  for (int i = 0; i < 3; ++i) topo.add_node();
  topo.add_link(0, 1, mbps(10));
  topo.add_link(1, 2, mbps(10));
  Network net(sim, topo);
  net.open_stream(0, 1, mbps(5));

  if (auto l = net.topology().link_between(2, 1)) {
    net.set_link_capacity(*l, mbps(3));  // reverse direction: no flows
  }
  EXPECT_EQ(net.alloc_stats().last_flows_touched, 0);
  EXPECT_GT(net.alloc_stats().reallocations, 0);
}

// ---- SIMD vs scalar: bit-for-bit, not "close" ----
//
// Every SIMD kernel is element-wise, so its results must be IDENTICAL to
// the scalar path — exact double equality, no tolerance. On builds without
// compiled SIMD support set_use_simd(true) stays scalar and these pass
// trivially.

std::vector<double> solve_with(bool simd, const std::vector<double>& caps,
                               const std::vector<AllocEntity>& entities) {
  std::vector<AllocEntityRef> refs;
  refs.reserve(entities.size());
  for (const AllocEntity& e : entities) refs.push_back({e.demand, e.links});
  MaxMinSolver solver;
  solver.set_use_simd(simd);
  return solver.solve(caps, refs);
}

void expect_bitwise_equal(const std::vector<double>& a,
                          const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "flow " << i << " differs between SIMD and scalar";
  }
}

class SimdEquivalence : public ::testing::TestWithParam<KernelCase> {};

TEST_P(SimdEquivalence, SimdMatchesScalarBitForBit) {
  util::Rng rng(GetParam().seed * 104729);
  const int n_links = static_cast<int>(rng.uniform_int(1, 48));
  const int n_flows = static_cast<int>(rng.uniform_int(1, 96));
  std::vector<double> caps;
  for (int l = 0; l < n_links; ++l) {
    caps.push_back(rng.chance(0.1) ? 0.0 : rng.uniform(1e5, 50e6));
  }
  std::vector<AllocEntity> entities;
  for (int f = 0; f < n_flows; ++f) {
    AllocEntity e;
    e.demand = rng.chance(0.3) ? kUnlimited : rng.uniform(0.1e6, 40e6);
    const int path_len = static_cast<int>(rng.uniform_int(1, std::min(n_links, 7)));
    for (int i = 0; i < path_len; ++i) {
      const LinkId l = static_cast<LinkId>(rng.uniform_int(0, n_links - 1));
      if (std::find(e.links.begin(), e.links.end(), l) == e.links.end()) {
        e.links.push_back(l);
      }
    }
    entities.push_back(std::move(e));
  }
  expect_bitwise_equal(solve_with(true, caps, entities),
                       solve_with(false, caps, entities));
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, SimdEquivalence,
                         ::testing::Values(KernelCase{1}, KernelCase{2}, KernelCase{3},
                                           KernelCase{4}, KernelCase{5}, KernelCase{6},
                                           KernelCase{7}, KernelCase{8}, KernelCase{9},
                                           KernelCase{10}, KernelCase{11}, KernelCase{12}));

TEST(SimdEquivalenceEdges, RaggedPathsInfiniteDemandsExtremeCapacities) {
  // Path lengths 0/1/3/5 exercise every vector-tail combination; capacities
  // span 1e-6..1e15 so shares underflow toward the freeze threshold and
  // dwarf every demand respectively; idle entities (demand 0, empty path)
  // ride along legally.
  const std::vector<double> caps = {1e-6, 1e15, 3e7, 5e5, 1e12, 2.5e6, 1e-3};
  std::vector<AllocEntity> entities;
  entities.push_back({0.0, {}});                               // 0 links, idle
  entities.push_back({kUnlimited, {0}});                       // 1 link, tiny cap
  entities.push_back({kUnlimited, {1}});                       // 1 link, huge cap
  entities.push_back({5e6, {2, 3, 4}});                        // 3 links
  entities.push_back({kUnlimited, {0, 2, 4, 5, 6}});           // 5 links
  entities.push_back({3e5, {6, 5, 3, 1, 0}});                  // 5 links reversed
  entities.push_back({0.0, {}});                               // another idle
  entities.push_back({kUnlimited, {3}});
  expect_bitwise_equal(solve_with(true, caps, entities),
                       solve_with(false, caps, entities));
}

TEST(SimdKernels, FairShareClampAndFreezeMatchScalarExactly) {
  // Direct kernel-level cross-check across ragged sizes, including values
  // chosen to produce inf/denormal shares.
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                              std::size_t{5}, std::size_t{8}, std::size_t{13}}) {
    std::vector<double> remaining(n), unfrozen(n);
    std::vector<std::uint32_t> idx(n);
    for (std::size_t i = 0; i < n; ++i) {
      remaining[i] = (i % 3 == 0) ? 1e-300 : (i % 3 == 1 ? 1e15 : -4.2e6);
      unfrozen[i] = (i % 4 == 0) ? 0.0 : static_cast<double>(i);  // div by 0 → inf
      idx[i] = static_cast<std::uint32_t>(n - 1 - i);
    }
    std::vector<double> out_simd(n, -1.0), out_scalar(n, -1.0);
    util::simd::fair_share(out_simd.data(), remaining.data(), unfrozen.data(), n, true);
    util::simd::fair_share(out_scalar.data(), remaining.data(), unfrozen.data(), n, false);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(out_simd[i], out_scalar[i]) << "fair_share n=" << n << " i=" << i;
    }

    std::vector<double> clamp_simd = remaining, clamp_scalar = remaining;
    clamp_simd.push_back(-0.0);  // -0.0 must map to +0.0 on both paths
    clamp_scalar.push_back(-0.0);
    util::simd::clamp_nonnegative(clamp_simd.data(), clamp_simd.size(), true);
    util::simd::clamp_nonnegative(clamp_scalar.data(), clamp_scalar.size(), false);
    for (std::size_t i = 0; i < clamp_simd.size(); ++i) {
      EXPECT_EQ(clamp_simd[i], clamp_scalar[i]) << "clamp n=" << n << " i=" << i;
      EXPECT_GE(clamp_simd[i], 0.0);
    }

    // freeze_subtract has one implementation (unrolled scalar scatter); run
    // it against a plain loop to pin its semantics.
    std::vector<double> rem_a = remaining, unf_a = unfrozen;
    std::vector<double> rem_b = remaining, unf_b = unfrozen;
    util::simd::freeze_subtract(rem_a.data(), unf_a.data(), idx.data(), n, 7.5e5);
    for (std::size_t j = 0; j < n; ++j) {
      rem_b[idx[j]] -= 7.5e5;
      unf_b[idx[j]] -= 1.0;
    }
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(rem_a[i], rem_b[i]) << "freeze remaining n=" << n << " i=" << i;
      EXPECT_EQ(unf_a[i], unf_b[i]) << "freeze unfrozen n=" << n << " i=" << i;
    }
  }
}

TEST(ContentionComponents, StatsAccumulate) {
  sim::Simulation sim;
  Topology topo;
  topo.add_node();
  topo.add_node();
  topo.add_link(0, 1, mbps(10));
  Network net(sim, topo);
  net.open_stream(0, 1, mbps(4));
  net.open_stream(0, 1, mbps(4));
  const auto& stats = net.alloc_stats();
  EXPECT_EQ(stats.reallocations, 2);
  EXPECT_EQ(stats.flows_touched, 1 + 2);  // first solo, then both
  EXPECT_EQ(stats.max_component_flows, 2);
  EXPECT_EQ(stats.full_reallocations, 2);  // one shared link: all flows
  EXPECT_GE(stats.alloc_seconds, 0.0);
}

}  // namespace
}  // namespace bass::net
